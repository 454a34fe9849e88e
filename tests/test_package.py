"""Package-wide checks."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import redhyp

SRC = Path(__file__).resolve().parent.parent / "src" / "redhyp"
PERFBENCH = SRC.parent.parent / "perfbench"


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
    "find_fstar", "find_glued", "find_reduced_image",
    "is_box_dense", "level_coloring", "orientation_reduced", "pattern_catalog",
    "prepare_row", "prepare_row_glue", "ramsey_extract", "random_box_dense",
    "random_tournament", "reduced_blow_up",
    "uniform_density_audit", "validate_glued", "validate_reduced_map",
)
EXPORTED_MODULES = ("constructions", "core", "embed", "errors", "glue", "pipeline",
                    "plain", "qsystem")


def test_exported_names_resolve_to_their_defining_modules():
    assert (len(EXPORTED_OBJECTS), len(EXPORTED_MODULES)) == (53, 8)
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


# Definitions in src/redhyp that neither the package nor perfbench uses,
# each with the consumer that keeps it.
USED_ONLY_FROM_OUTSIDE = {
    "blow_up": "tests build blown-up patterns with it (test_core, test_embed)",
    "count_copies": "acceptance criterion 2: cyclic-triple 3-graphs are K4minus-free",
    "Plain3Graph.density": "acceptance criterion 2: cyclic-triple density is near 1/4",
    "Tournament.beats": "the reference is_cyclic_triple's table is tested against",
    "_Parser.error": "argparse calls it on a bad command line",
    "_Parser.print_help": "argparse calls it for --help",
}


def _uses(tree: ast.AST) -> Counter:
    """Each Name id and imported name under tree, and each Attribute both as
    ".attr" and as "owner.attr", owner the name it hangs off.  String
    constants do not count, so _EXPORTS alone keeps nothing alive."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "id", getattr(node.value, "attr", ""))
            used[f".{node.attr}"] += 1
            used[f"{owner}.{node.attr}"] += 1
    return used


def _definitions(tree: ast.Module):
    """(qualified name, node) of each top-level function and class, and of
    each method of a top-level class; dunders are left out."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("__"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds) and not item.name.startswith("__"):
                        yield f"{node.name}.{item.name}", item


def _unused(trees: dict, defining) -> set:
    """Qualified names of the definitions in the modules at paths defining
    that no tree in trees (path -> module) uses outside their own def.

    A module-level name counts as used by name or as module.name, so an
    attribute of the same name elsewhere does not keep it; a method
    counts as used by any attribute of its name."""
    used = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = set()
    for path in defining:
        for qualname, node in _definitions(trees[path]):
            owner, _, name = qualname.rpartition(".")
            keys = (name, f".{name}" if owner else f"{path.stem}.{name}")
            own = _uses(node)
            if sum(used[key] - own[key] for key in keys) <= 0:
                unused.add(qualname)
    return unused


def test_every_definition_is_used_by_the_program_or_named_with_its_consumer():
    paths = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    assert _unused(trees, sorted(SRC.glob("*.py"))) == set(USED_ONLY_FROM_OUTSIDE)


# Each case: the source of a defining module m.py, of a second module
# user.py, and the names the guard must report as unused.
GUARD_CASES = {
    "unused": ("def f(): pass\n", "", {"f"}),
    "called": ("def f(): pass\n", "import m\nm.f()\n", set()),
    "imported": ("def f(): pass\n", "from m import f\n", set()),
    "own-recursion": ("def f(): return f()\n", "", {"f"}),
    "string-constant": ("def f(): pass\nNAMES = ('f',)\n", "", {"f"}),
    "other-owner-attribute": ("def f(): pass\n", "import x\nx.f()\n", {"f"}),
    "method": ("class C:\n    def g(self): pass\n    def h(self): pass\n",
               "from m import C\nC().g()\n", {"C.h"}),
}


@pytest.mark.parametrize("name", GUARD_CASES)
def test_definition_guard_counts_uses_outside_the_def(name):
    defining, user, unused = GUARD_CASES[name]
    trees = {Path("m.py"): ast.parse(defining), Path("user.py"): ast.parse(user)}
    assert _unused(trees, [Path("m.py")]) == unused
