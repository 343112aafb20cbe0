import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sbikit").glob("*.py"))
# readers of the library: its tests and the benchmark, which reads e.g.
# ``TrainReport.best_val_loss``
READERS = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy", "sbikit"}
TREES = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES + READERS}


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
# a method is read as an attribute, so a local variable of its name is no use of it
ATTRIBUTES = {node.attr for tree in TREES.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_numpy_scipy_or_sbikit(path):
    outside = set(imported_roots(TREES[path])) - ALLOWED
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_public_functions_and_classes_are_referenced(path):
    unused = [node.name for node in TREES[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in USED]
    assert not unused, f"{path.name} defines {unused}, which nothing in src/, tests/ or perfbench/ uses"


def unused_private_functions_and_methods(tree):
    """Private module-level functions that nothing names, and methods, but
    the dunders Python calls by protocol, that nothing reads as an attribute."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
            if node.name not in USED:
                yield node.name
        elif isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, ast.FunctionDef) and item.name not in ATTRIBUTES
                        and not (item.name.startswith("__") and item.name.endswith("__")))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_private_functions_and_methods_are_referenced(path):
    unused = list(unused_private_functions_and_methods(TREES[path]))
    assert not unused, f"{path.name} defines {unused}, which nothing in src/, tests/ or perfbench/ uses"


def environment_reads(tree):
    """``os.environ`` / ``os.getenv`` attribute reads and imports of either."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            yield f"line {node.lineno}: {ast.unparse(node)}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    yield f"line {node.lineno}: from os import {alias.name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_reads_no_environment_variables(path):
    reads = list(environment_reads(TREES[path]))
    assert not reads, f"{path.name} reads the environment ({reads}); pass settings as arguments"


# the row loop runs in the calling thread: a pool comes back only with a
# benchmark that shows it pays on this package's workloads
CONCURRENCY = {"threading", "concurrent", "multiprocessing"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_no_thread_or_process_pool(path):
    pools = set(imported_roots(TREES[path])) & CONCURRENCY
    assert not pools, f"{path.name} imports {sorted(pools)}; the library runs in the calling thread"


def eager_imports(tree):
    """Import statements that run when the module is imported: all of them
    outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


# importing scipy holds about 25 MB of resident memory, so the library
# imports it inside the functions that use it
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_imports_scipy_only_inside_functions(path):
    eager = [f"line {node.lineno}: {ast.unparse(node)}" for node in eager_imports(TREES[path])
             if "scipy" in imported_roots(node)]
    assert not eager, f"{path.name} imports scipy at import time ({eager}); import it where used"


# every error the library raises is one of its named classes, so callers can
# catch sbikit failures apart from numpy's; NotImplementedError marks hooks
BARE_ERRORS = {"ValueError", "RuntimeError", "TypeError", "Exception"}


def bare_raises(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE_ERRORS:
                yield f"line {node.lineno}: raise {exc.id}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_raises_only_its_named_errors(path):
    bare = list(bare_raises(TREES[path]))
    assert not bare, f"{path.name} raises builtin errors directly ({bare}); raise a named one"


# a parameter's ``.data`` is a read-only view into its store's one buffer:
# binding it anywhere but in ndiff detaches the parameter, and Adam stops
# moving it
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "ndiff.py"],
                         ids=lambda p: p.name)
def test_only_ndiff_binds_a_data_attribute(path):
    binds = [f"line {node.lineno}: {ast.unparse(node)}" for node in ast.walk(TREES[path])
             if isinstance(node, ast.Attribute) and node.attr == "data"
             and isinstance(node.ctx, ast.Store)]
    assert not binds, f"{path.name} binds .data ({binds}); change parameters with ParamStore.load"
