"""Static checks on the package layout: imports stay at module level, name
only the standard library or the package, and the internal import graph has
no cycle, so the layering reads
``abelian -> rootdata``, ``abelian -> covers -> brauer``, with ``cli`` on top.
"""

import ast
import sys
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stackbrauer"
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def internal_imports(tree: ast.Module) -> set[str]:
    """Sibling modules a module imports, at any depth of its body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("stackbrauer."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("stackbrauer."))
    return found & TREES.keys()


def test_sources_found():
    assert {"abelian", "rootdata", "covers", "brauer", "cli"} <= TREES.keys()


def test_no_import_inside_a_function():
    nested = []
    for name, tree in TREES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{name}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_internal_import_graph_is_acyclic():
    graph = {name: internal_imports(tree) for name, tree in TREES.items()}
    # raises graphlib.CycleError naming the cycle
    TopologicalSorter(graph).prepare()
    assert graph["covers"] == {"abelian"}
    assert graph["brauer"] == {"abelian", "covers"}


def test_runtime_imports_only_the_standard_library():
    outside = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [f"{name}:{node.lineno} {top}" for top in tops
                        if top not in sys.stdlib_module_names]
    assert outside == []
