"""The benchmark's own checks must catch an altered output.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import dimlab as dl  # noqa: E402
from checks import (  # noqa: E402
    compare,
    fingerprint,
    leaves_problems,
    outer_difference,
    outer_sum,
    saturation_problems,
)
from tracing import Api, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
    REFS = json.load(fh)["workloads"]

# One cheap item per workload.
ITEMS = {
    "entropy-sweep": "rand-s05-v1",
    "sumset-growth": "cli-c3-q2-14-sum",
    "dust-distance": "4-c3-c3-c3",
    "vertex-queries": "t0-v00",
}


def run_item(name, tmp_path, api=None):
    wl = WORKLOADS[name]
    api = api or Api(dl)
    state = wl.setup(api, wl.setup_inputs())
    key = ITEMS[name]
    inputs = wl.prepare(key, state, str(tmp_path / "job"))
    return wl, key, inputs, wl.run(api, state, key, inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_references_and_oracles(name, tmp_path):
    wl, key, inputs, out = run_item(name, tmp_path)
    assert compare(fingerprint(out), REFS[name][key]) == []
    assert wl.oracle(key, inputs, out) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_altered_output_fails_the_check(name, tmp_path):
    _, key, _, out = run_item(name, tmp_path)
    want = REFS[name][key]
    tag, kind, value = next(e for e in out if e[1] in ("tree", "file"))
    if kind == "tree":
        deep = list(value.levels[value.max_depth])
        altered = dl.DyadicTree.from_leaves(value.max_depth, value.span, deep[:-1] or [deep[0] ^ 1])
    else:
        altered = str(tmp_path / "altered")
        with open(value, "rb") as src, open(altered, "wb") as dst:
            dst.write(src.read().replace(b"1", b"2", 1))
    bad = [(t, k, altered if t == tag else v) for t, k, v in out]
    assert "exact outputs differ from the reference digest" in compare(fingerprint(bad), want)


def test_float_outputs_compare_within_tolerance():
    want = fingerprint([("x", "json", {"value": 0.5, "n": 3})])
    close = fingerprint([("x", "json", {"value": 0.5 + 1e-12, "n": 3})])
    far = fingerprint([("x", "json", {"value": 0.5 + 1e-6, "n": 3})])
    assert compare(close, want) == []
    assert compare(far, want) and "float output 0" in compare(far, want)[0]
    assert compare(want, None) == ["no recorded reference"]


def test_reals_summary_sees_one_changed_element():
    values = list(np.linspace(0.0, 1.0, 50))
    moved = values.copy()
    moved[17] += 1e-6
    swapped = values.copy()
    swapped[3], swapped[4] = swapped[4], swapped[3]
    want = fingerprint([("r", "reals", values)])
    assert compare(fingerprint([("r", "reals", moved)]), want)
    assert compare(fingerprint([("r", "reals", swapped)]), want)


def test_oracles_agree_with_brute_force_and_catch_errors():
    rng = np.random.default_rng(5)
    a = np.unique(rng.integers(0, 500, 40))
    b = np.unique(rng.integers(0, 300, 25))
    assert outer_sum(a, b).tolist() == sorted({int(x) + int(y) for x in a for y in b})
    diff, offset = outer_difference(a)
    assert offset == a[-1] - a[0]
    assert diff.tolist() == sorted({int(x) - int(y) + offset for x in a for y in a})
    tree = dl.DyadicTree.from_leaves(9, 1, a)
    assert leaves_problems(tree, a, "t") == []
    assert leaves_problems(tree, a[1:], "t") == ["t: leaves differ from the numpy oracle"]
    levels = [list(level) for level in tree.levels]
    levels[4] = levels[4][1:]
    assert saturation_problems(dl.DyadicTree(9, 1, levels))


def test_traced_run_resolves_every_per_layer_metric(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    tracer = Tracer()
    tracer.begin_job(0)
    run_item("sumset-growth", tmp_path, Api(dl, tracer))
    tracer.end_job(True)
    values = tracer.layer_metrics(names, 1.0, 1.0)
    assert sorted(values) == sorted(names)
    assert values["cli.main.gen.calls"] == 2
    assert 0.9 < values["trace.covered_frac"] <= 1.0


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vertex-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
