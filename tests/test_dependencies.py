import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "sbikit").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "sbikit"}


def imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_scipy_or_sbikit(path):
    outside = set(imported_roots(ast.parse(path.read_text(), str(path)))) - ALLOWED
    assert not outside, f"{path.name} imports {sorted(outside)}"
