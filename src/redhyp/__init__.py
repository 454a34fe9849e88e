"""Desk-scale toolkit for reduced 3-uniform hypergraphs.

Exact density checking, reduced-image search with independent oracles, a
cleaning and row-preparation pipeline that assembles verified five-vertex
target embeddings, a glued-configuration finder, extremal lower-bound
constructions, and plain 3-graph density audits.
"""

from .constructions import (Tournament, cyclic_triple_3graph,
                            orientation_reduced, random_box_dense,
                            random_tournament, reduced_blow_up,
                            transitive_tournament)
from .core import (Pattern, ReducedHypergraph, ReducedMap, blow_up,
                   constituent_density, is_box_dense, pattern_catalog, shadow)
from .embed import (EmbedCertificate, OracleResult, SearchResult,
                    exhaustive_oracle, find_reduced_image, validate_reduced_map)
from .errors import (CapExceeded, DanglingReferenceError, DomainError,
                     ParseError, RedhypError, RowPreparationError,
                     SelfCheckError)
from .glue import (GlueConfig, GluedConfiguration, GlueResult,
                   brute_force_glued, find_glued, prepare_row_glue,
                   validate_glued)
from .pipeline import (PipelineConfig, PipelineResult, RowRecord,
                       find_fstar, find_many_triangles, prepare_row)
from .plain import (AuditResult, Plain3Graph, automorphism_count,
                    count_copies, uniform_density_audit)
from .qsystem import (CleanResult, QGraphSystem, StageFailure,
                      build_q_graphs, check_sum_of_squares, clean,
                      color_triples, compute_s_sets, level_coloring,
                      ramsey_extract)

__all__ = [name for name in dir() if not name.startswith("_")]
