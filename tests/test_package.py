"""Package-wide checks."""

import ast
import sys
from pathlib import Path

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
