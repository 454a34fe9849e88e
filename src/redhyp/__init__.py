"""Desk-scale toolkit for reduced 3-uniform hypergraphs.

Exact density checking, reduced-image search with independent oracles, a
cleaning and row-preparation pipeline that assembles verified five-vertex
target embeddings, a glued-configuration finder, extremal lower-bound
constructions, and plain 3-graph density audits.

Importing the package loads none of its layers.  Each exported name lives
in the submodule that _EXPORTS lists it under; the first access, `from
redhyp import *` included, imports that submodule (PEP 562) and binds the
name here, so a program, the command line among them, loads only the
layers it uses.
"""

import importlib

_EXPORTS = {
    "constructions": ("Tournament", "cyclic_triple_3graph", "orientation_reduced",
                      "random_box_dense", "random_tournament", "reduced_blow_up"),
    "core": ("Pattern", "ReducedHypergraph", "ReducedMap", "blow_up",
             "constituent_density", "is_box_dense", "pattern_catalog"),
    "embed": ("EmbedCertificate", "OracleResult", "SearchResult",
              "exhaustive_oracle", "find_reduced_image", "validate_reduced_map"),
    "errors": ("CapExceeded", "DanglingReferenceError", "DomainError",
               "ParseError", "RedhypError", "RowPreparationError", "SelfCheckError"),
    "glue": ("GlueConfig", "GluedConfiguration", "GlueResult", "brute_force_glued",
             "find_glued", "prepare_row_glue", "validate_glued"),
    "pipeline": ("PipelineConfig", "PipelineResult", "RowRecord", "find_fstar",
                 "prepare_row"),
    "plain": ("AuditResult", "Plain3Graph", "automorphism_count", "count_copies",
              "uniform_density_audit"),
    "qsystem": ("CleanResult", "QGraphSystem", "StageFailure", "build_q_graphs",
                "check_sum_of_squares", "clean", "color_triples", "compute_s_sets",
                "level_coloring", "ramsey_extract"),
}

# Exported name -> the submodule that defines it; a submodule names itself.
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in (module, *names)}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    try:
        owner = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{owner}")
    value = globals()[name] = module if name == owner else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
