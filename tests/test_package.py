"""Package-wide checks."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import redhyp

SRC = Path(__file__).resolve().parent.parent / "src" / "redhyp"


def test_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert outside == []


def test_only_core_builds_and_validates_hosts():
    # The host rules live in core (ReducedHypergraph._from_cells, and
    # edge_cell for each row); the parser recognises canonical text and
    # hands each constituent's cells over.
    owned = {"Constituent", "check_table_size", "_assemble"}
    tree = ast.parse((SRC / "fileio.py").read_text())
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert named & owned == set()
    assert {"_from_cells", "edge_cell"} <= named


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10: no later syntax.
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


# Today's exported objects; the eight submodules below are exported too.
EXPORTED_OBJECTS = (
    "AuditResult", "CapExceeded", "CleanResult", "DanglingReferenceError", "DomainError",
    "EmbedCertificate", "GlueConfig", "GlueResult", "GluedConfiguration", "OracleResult",
    "ParseError", "Pattern", "PipelineConfig", "PipelineResult", "Plain3Graph",
    "QGraphSystem", "RedhypError", "ReducedHypergraph", "ReducedMap",
    "RowPreparationError", "RowRecord", "SearchResult", "SelfCheckError", "StageFailure",
    "Tournament", "automorphism_count", "blow_up", "brute_force_glued", "build_q_graphs",
    "check_sum_of_squares", "clean", "color_triples", "compute_s_sets",
    "constituent_density", "count_copies", "cyclic_triple_3graph", "exhaustive_oracle",
    "find_fstar", "find_glued", "find_many_triangles", "find_reduced_image",
    "is_box_dense", "level_coloring", "orientation_reduced", "pattern_catalog",
    "prepare_row", "prepare_row_glue", "ramsey_extract", "random_box_dense",
    "random_tournament", "reduced_blow_up", "shadow", "transitive_tournament",
    "uniform_density_audit", "validate_glued", "validate_reduced_map",
)
EXPORTED_MODULES = ("constructions", "core", "embed", "errors", "glue", "pipeline",
                    "plain", "qsystem")


def test_exported_names_resolve_to_their_defining_modules():
    assert (len(EXPORTED_OBJECTS), len(EXPORTED_MODULES)) == (56, 8)
    assert redhyp.__all__ == sorted(EXPORTED_OBJECTS + EXPORTED_MODULES)
    for name in EXPORTED_MODULES:
        assert getattr(redhyp, name) is importlib.import_module(f"redhyp.{name}")
    for name in EXPORTED_OBJECTS:
        value = getattr(redhyp, name)
        assert value.__module__ in {f"redhyp.{module}" for module in EXPORTED_MODULES}
        assert value is getattr(sys.modules[value.__module__], name)
    star: dict = {}
    exec("from redhyp import *", star)
    assert {name: star[name] for name in redhyp.__all__} == \
        {name: getattr(redhyp, name) for name in redhyp.__all__}
    assert set(redhyp.__all__) <= set(dir(redhyp))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        redhyp.no_such_name
