"""The battery's reference check: `compare` fails on any changed output and
lets JSON floats move only within the stated bound."""

import copy
import json
from pathlib import Path

import pytest

from cli_battery import CASES, FLOAT_ABS_TOL, FLOAT_REL_TOL, _entry, compare
from dimlab import IfsSpec, ifs_attractor
from dimlab.io import dumps_tree

TREE = dumps_tree(ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 6))
SLOPE = 0.6309297535714574


def record(tree=TREE, slope=SLOPE, code=0) -> dict:
    """The references of one run that writes a tree and a JSON report."""
    report = {"count": 106, "per_scale": [[2, 1.0], [3, slope]], "slope": slope}
    return {"cases": {"sum-pair": {
        "exit": code,
        "stdout": _entry(b""),
        "stderr": _entry(b""),
        "files": {"o.tree": _entry(tree.encode()), "r.json": _entry(json.dumps(report).encode())},
    }}}


def test_the_same_outputs_match():
    assert compare(record(), copy.deepcopy(record())) == []


def test_one_changed_byte_in_a_tree_text_fails():
    i = TREE.index("\n") + 3
    changed = TREE[:i] + chr(ord(TREE[i]) ^ 1) + TREE[i + 1 :]
    assert len(changed) == len(TREE) and changed != TREE
    assert [d.split(":")[0] for d in compare(record(), record(tree=changed))] == ["/cases/sum-pair/files/o.tree/sha256"]


@pytest.mark.parametrize("factor", [1 + 1e-12, 1 - 1e-12, 1 + FLOAT_REL_TOL / 2])
def test_a_float_moved_inside_the_bound_passes(factor):
    assert compare(record(), record(slope=SLOPE * factor)) == []


@pytest.mark.parametrize("factor", [1 + 2 * FLOAT_REL_TOL, 1 - 2 * FLOAT_REL_TOL, 1.01])
def test_a_float_moved_past_the_bound_fails(factor):
    diffs = compare(record(), record(slope=SLOPE * factor))
    assert [d.split(":")[0] for d in diffs] == [
        "/cases/sum-pair/files/r.json/json/per_scale/1/1",
        "/cases/sum-pair/files/r.json/json/slope",
    ]


def test_a_rounding_error_figure_matches_within_the_absolute_floor():
    assert compare({"max_abs_error": 2.66e-15}, {"max_abs_error": 3.1e-15}) == []
    assert compare({"max_abs_error": 0.0}, {"max_abs_error": 2 * FLOAT_ABS_TOL}) != []


def test_a_different_exit_code_fails():
    assert compare(record(), record(code=2)) == ["/cases/sum-pair/exit: 2, references hold 0"]


def test_types_and_shapes_are_compared_exactly():
    assert compare({"k": 1}, {"k": 1.0}) == ["/k: 1.0, references hold 1"]
    assert compare({"k": True}, {"k": 1}) == ["/k: 1, references hold True"]
    assert compare({"k": [1, 2]}, {"k": [1]}) == ["/k: 1 items, references hold 2"]
    assert compare({"a": 1}, {"b": 1}) == ["/a: missing", "/b: not in the references"]
    assert compare({"k": "0.5"}, {"k": 0.5}) == ["/k: 0.5, references hold '0.5'"]


def test_the_references_hold_every_case():
    refs = json.loads((Path(__file__).parent / "cli_battery_refs.json").read_text())
    assert sorted(refs["cases"]) == sorted(name for name, _, _, _ in CASES)
    assert {name: refs["cases"][name]["exit"] for name, _, _, _ in CASES} == {name: code for name, code, _, _ in CASES}
    assert "runtime_s" not in json.dumps(refs["verify all --json"])
