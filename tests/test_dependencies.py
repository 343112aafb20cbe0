import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sbikit").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "sbikit"}
TREES = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + TESTS}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def referenced_names(tree):
    """Names a module reads: bare names, attribute names and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


# parsed, not word-matched: a name that only occurs in comments, strings or
# test names is still unused
USED = {name for tree in TREES.values() for name in referenced_names(tree)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_scipy_or_sbikit(path):
    outside = set(imported_roots(TREES[path])) - ALLOWED
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_functions_and_classes_are_referenced(path):
    unused = [node.name for node in TREES[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in USED]
    assert not unused, f"{path.name} defines {unused}, which nothing in src/ or tests/ uses"
