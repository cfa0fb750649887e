"""Source hygiene: every name a module imports is read somewhere in it,
no module reads a tree's `levels` or a grid's `cells`, the tuple forms
kept for callers outside the library, every library tree comes from
`DyadicTree.from_leaves`, not the trusting hand-built constructor, and no
kernel calls the hash-based `np.unique` or packs an `int.from_bytes` bit
grid, the two slow paths the sort-and-dedupe and FFT kernels replace.  Only
budget.py raises ResourceLimitError, so `budget.charge` is the one resource
limit.  Only io.py knows the text formats: no other module spells a
format's first word, or defines, imports or reads the number and header
helpers.  Every public name is reached: some library module, benchmark
script or tool names it outside its own definition, and `__all__` lists
each once.  The suite's warning filter lets a failing hypothesis test
report its example."""

import ast
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import dimlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dimlab"
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


def tuple_form_reads(source: str) -> list[int]:
    """Lines that read `.levels` or `.cells` on anything but `self`."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr in ("levels", "cells")
        and isinstance(node.ctx, ast.Load)
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def test_detects_a_foreign_levels_read():
    source = (
        "def f(t, p):\n    n = len(t.levels[0])\n    return p.tree.levels, self.levels\n"
        "def h(g):\n    return g.cells, self.cells\n"
    )
    assert tuple_form_reads(source) == [2, 3, 5]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "dyadic.py"], ids=lambda p: p.name)
def test_tree_levels_read_only_in_dyadic(path):
    assert tuple_form_reads(path.read_text(encoding="utf-8")) == []


def test_dyadic_reads_no_levels_or_cells():
    assert tuple_form_reads((SRC / "dyadic.py").read_text(encoding="utf-8")) == []


def hand_built_trees(source: str) -> list[int]:
    """Lines that call the hand-built `DyadicTree(...)` constructor.  No
    library code calls it, `loads_tree` included: it takes the decoded
    levels by the trusted `_set` path and audits a rejected file on that
    same tree."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
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
    assert hand_built_trees(source) == [2, 4, 6]


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


def resource_limit_raises(source: str) -> list[int]:
    """Lines that raise `ResourceLimitError`, bare or through a module."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        for name in ast.walk(node.exc)
        if isinstance(name, ast.Name) and name.id == "ResourceLimitError"
        or isinstance(name, ast.Attribute) and name.attr == "ResourceLimitError"
    )


def test_detects_a_resource_limit_raise():
    source = (
        "def f(n):\n    if n > 8:\n        raise ResourceLimitError(f'{n} > 8')\n"
        "    try:\n        g()\n    except ResourceLimitError:\n        raise\n"
        "    raise errors.ResourceLimitError('cap')\n"
    )
    assert resource_limit_raises(source) == [3, 8]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "budget.py"], ids=lambda p: p.name)
def test_only_the_budget_refuses_work(path):
    assert resource_limit_raises(path.read_text(encoding="utf-8")) == []


TEXT_HELPERS = (
    "_decimal_tokens", "_decimal_text", "_number_blocks", "_read_header", "_token_ints", "_plain_int",
    "_fold_crlf", "_FIELD", "_HEADER",
)
FORMAT_WORDS = ("dyadic-tree", "grid-set")


def text_format_knowledge(source: str) -> list[str]:
    """What a module knows of the text formats: each string constant, not a
    docstring, that starts with a format's first word, and each text helper
    it defines, imports or reads from a module, as "<name> (line <n>)"."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names = [word for word in FORMAT_WORDS if node.value.startswith(word)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in (*TEXT_HELPERS, *FORMAT_WORDS)]
    return found


def test_detects_text_format_knowledge():
    source = (
        '"""dyadic-tree v1 files."""\n'
        "from .io import _FIELD, dumps_tree\n"
        "def f(t):\n"
        "    '''grid-set v1'''\n"
        "    return f'grid-set v1 d={t}', io._fold_crlf(t), 'a dyadic-tree', t.grid_set\n"
        "_HEADER = 1\n"
        "def _plain_int(x):\n"
        "    return 'dyadic-tree'\n"
    )
    assert sorted(text_format_knowledge(source)) == [
        "_FIELD (line 2)", "_HEADER (line 6)", "_fold_crlf (line 5)", "_plain_int (line 7)",
        "dyadic-tree (line 8)", "grid-set (line 5)",
    ]


def test_io_holds_the_text_formats():
    found = " ".join(text_format_knowledge((SRC / "io.py").read_text(encoding="utf-8")))
    assert [name for name in (*TEXT_HELPERS, *FORMAT_WORDS) if f"{name} (" not in found] == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "io.py"], ids=lambda p: p.name)
def test_only_io_knows_the_text_formats(path):
    assert text_format_knowledge(path.read_text(encoding="utf-8")) == []


def unreached(names, sources) -> list[str]:
    """The names no source mentions: a name is reached when it is a word of
    some line other than the one that defines it (`def name`, `class name`,
    `name = ...`).  A mention in a docstring or a message counts, so this
    finds the names nothing names at all."""
    mentioned = set()
    for source in sources:
        for line in source.splitlines():
            defined = re.match(r"\s*(?:async\s+def|def|class)\s+(\w+)|(\w+)\s*=[^=]", line)
            mentioned |= set(re.findall(r"[A-Za-z_]\w*", line)) - set(defined.groups() if defined else ())
    return sorted(set(names) - mentioned)


def test_detects_an_unreached_name():
    sources = [
        "def f():\n    return g()\nasync def g():\n    pass\nclass C:\n    pass\nK = 1\nL = 2\n",
        "import m\nfrom m import k\nm.h(), k\n'Calls e.'\nmin_d = L == 2\n",
    ]
    assert unreached(["f", "g", "C", "K", "L", "h", "k", "e", "d", "min_d"], sources) == ["C", "K", "d", "f", "min_d"]


def test_every_public_name_is_reached():
    paths = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "tools").glob("*.py"))]
    assert unreached(dimlab.__all__, [p.read_text(encoding="utf-8") for p in paths]) == []


def test_all_lists_each_public_name_once():
    names = dimlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(dimlab, name)] == []
    assert [name for name in names if isinstance(getattr(dimlab, name), ModuleType)] == []
    assert [name for name in names if name.startswith("_")] == []


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
