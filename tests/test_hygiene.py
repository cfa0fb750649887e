"""Source hygiene: every name a module imports is read somewhere in it,
only dyadic.py reads a tree's `levels`, so the level representation can
change inside that one module, every library tree comes from
`DyadicTree.from_leaves`, not the trusting hand-built constructor, and no
kernel calls the hash-based `np.unique` or packs an `int.from_bytes` bit
grid, the two slow paths the sort-and-dedupe and FFT kernels replace.  The
suite's warning filter lets a failing hypothesis test report its example."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dimlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_detects_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_levels_reads(source: str) -> list[int]:
    """Lines that read `.levels` on anything but `self`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr == "levels"
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def test_detects_a_foreign_levels_read():
    source = "def f(t, p):\n    n = len(t.levels[0])\n    return p.tree.levels, self.levels\n"
    assert foreign_levels_reads(source) == [2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dyadic.py"], ids=lambda p: p.name)
def test_tree_levels_read_only_in_dyadic(path):
    assert foreign_levels_reads(path.read_text(encoding="utf-8")) == []


def hand_built_trees(source: str) -> list[int]:
    """Lines that call the hand-built `DyadicTree(...)` constructor outside
    `loads_tree`, which calls it only to audit a rejected file."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == "loads_tree"
        for node in ast.walk(func)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in allowed
        and (
            isinstance(node.func, ast.Name) and node.func.id == "DyadicTree"
            or isinstance(node.func, ast.Attribute) and node.func.attr == "DyadicTree"
        )
    )


def test_detects_a_hand_built_tree():
    source = (
        "def subtree(t):\n    return DyadicTree(1, 1, t)\n"
        "def loads_tree(text):\n    return DyadicTree(0, 1, [()])\n"
        "def f(dl):\n    return dl.DyadicTree.from_leaves(0, 1, []), dl.DyadicTree(0, 1, [()])\n"
    )
    assert hand_built_trees(source) == [2, 6]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_trees_built_from_leaves(path):
    assert hand_built_trees(path.read_text(encoding="utf-8")) == []


def slow_kernel_calls(source: str) -> list[int]:
    """Lines that reach `np.unique` / `numpy.unique` or `int.from_bytes`."""
    banned = {("np", "unique"), ("numpy", "unique"), ("int", "from_bytes")}
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and (node.value.id, node.attr) in banned
    )


def test_detects_slow_kernel_calls():
    source = (
        "import numpy as np\nx = np.unique(a)\ny = numpy.unique(a, axis=0)\n"
        "m = int.from_bytes(b, 'little')\nz = np.sort(a)\n"
    )
    assert slow_kernel_calls(source) == [2, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unique_or_bit_grid(path):
    assert slow_kernel_calls(path.read_text(encoding="utf-8")) == []


FAILING_TESTS = """
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_past_four(x):
    assert x < 5


def test_library_deprecation_is_an_error():
    warnings.warn_explicit("old", DeprecationWarning, "arithmetic.py", 1, module="dimlab.arithmetic")
"""


def test_failing_hypothesis_test_reports_its_example(tmp_path):
    # the report hook imports libcst, which warns of mypy_extensions.TypedDict;
    # under a blanket error filter that warning aborts the whole session
    (tmp_path / "test_failing.py").write_text(FAILING_TESTS, encoding="utf-8")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_fails_past_four(" in out
    assert "FAILED test_failing.py::test_library_deprecation_is_an_error" in out
    assert "DeprecationWarning: old" in out
    assert "2 failed" in out
