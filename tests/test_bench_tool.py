"""tools/bench.py against a stub harness with fixed output: it keeps the
harness's figures, summarizes them by median and quartiles, counts the
pairs a change wins, and refuses a run whose outputs are wrong."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench.py"

STUB = '''
import json, sys
from pathlib import Path
counter = Path(__file__).with_name("count")
n = int(counter.read_text()) if counter.exists() else 0
counter.write_text(str(n + 1))
jobs, p50, correct, *raw = {values!r}[n]
raw_jobs = raw[0] if raw else jobs - 1
print("machine " + json.dumps({{"cpu": "stub", "nproc": 2}}))
print("workload w seed " + sys.argv[sys.argv.index("--seed") + 1] + " jobs 5 failed 0")
print(f"unadjusted jobs_per_s={{raw_jobs:.6g}} job_p50_ms={{p50 + 1:.6g}}")
print(f"metric jobs_per_s {{jobs:.6g}} 1/s")
print(json.dumps({{"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
                  "metrics": {{"jobs_per_s": {{"value": jobs, "unit": "1/s"}},
                              "job_p50_ms": {{"value": p50, "unit": "ms"}}}}}}))
sys.exit(0 if correct else 1)
'''

SPEC = {"end_to_end": [{"name": "jobs_per_s", "better": "higher"}, {"name": "job_p50_ms", "better": "lower"}]}


def checkout(root: Path, name: str, values) -> Path:
    repo = root / name
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB.format(values=values))
    (repo / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return repo


def bench(repo: Path, *args):
    return subprocess.run([sys.executable, str(TOOL), "--workload", "w", "--seconds", "1", *args],
                          cwd=repo, capture_output=True, text=True, timeout=60)


def test_pairs_keep_the_harness_figures_and_count_wins(tmp_path):
    change = checkout(tmp_path, "change", [(10.0, 5.0, True), (12.0, 4.0, True), (11.0, 6.0, True)])
    parent = checkout(tmp_path, "parent", [(9.0, 5.5, True), (9.5, 3.0, True), (10.0, 7.0, True)])
    out = tmp_path / "BENCH.json"
    proc = bench(change, "--repo", str(parent), "--pairs", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (series,) = json.loads(out.read_text())["series"]
    assert (series["workload"], series["seed"], series["seconds"]) == ("w", 1, 1.0)
    mine = series["change"]
    assert [r["adjusted"]["jobs_per_s"] for r in mine["runs"]] == [10.0, 12.0, 11.0]
    assert mine["summary"]["adjusted"]["jobs_per_s"] == {"median": 11.0, "q1": 10.5, "q3": 11.5}
    assert mine["summary"]["unadjusted"]["jobs_per_s"] == {"median": 10.0, "q1": 9.5, "q3": 10.5}
    assert mine["summary"]["unadjusted"]["job_p50_ms"]["median"] == 6.0
    assert mine["machine"] == {"cpu": "stub", "nproc": 2}
    assert mine["head"] is None and mine["dirty"] is None  # not a git tree
    assert series["pairs"]["jobs_per_s"] == {
        "change_wins": 3, "pairs": 3, "median_gap": 1.5, "parent_iqr": 0.5, "gap_exceeds_parent_iqr": True,
    }
    # lower is better: 5 < 5.5 and 6 < 7 win, 4 > 3 loses
    p50 = series["pairs"]["job_p50_ms"]
    assert (p50["change_wins"], p50["median_gap"], p50["gap_exceeds_parent_iqr"]) == (2, 0.5, False)


def test_pairs_compare_the_unadjusted_figures_too(tmp_path):
    # the host adjustment says the change loses every pair, the raw figures
    # that it wins every pair: both verdicts are kept
    # (adjusted jobs_per_s, job_p50_ms, correct, unadjusted jobs_per_s)
    change = checkout(tmp_path, "change", [(9.0, 5.0, True, 12.0), (9.5, 5.0, True, 13.0),
                                           (9.0, 5.0, True, 12.5)])
    parent = checkout(tmp_path, "parent", [(10.0, 5.0, True, 10.0), (10.5, 5.0, True, 11.0),
                                           (10.0, 5.0, True, 9.0)])
    out = tmp_path / "BENCH.json"
    proc = bench(change, "--repo", str(parent), "--pairs", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (series,) = json.loads(out.read_text())["series"]
    adjusted, raw = series["pairs"]["jobs_per_s"], series["pairs"]["unadjusted"]["jobs_per_s"]
    assert (adjusted["change_wins"], adjusted["median_gap"]) == (0, -1.0)
    assert adjusted["gap_exceeds_parent_iqr"] is False
    assert raw == {
        "change_wins": 3, "pairs": 3, "median_gap": 2.5, "parent_iqr": 1.0, "gap_exceeds_parent_iqr": True,
    }
    # unadjusted p50 is p50 + 1 on both sides: no pair won, no gap
    assert series["pairs"]["unadjusted"]["job_p50_ms"]["change_wins"] == 0
    assert set(series["pairs"]["unadjusted"]) == {"jobs_per_s", "job_p50_ms"}


def test_runs_of_one_checkout_extend_the_file(tmp_path):
    change = checkout(tmp_path, "change", [(10.0, 5.0, True), (20.0, 5.0, True)])
    out = tmp_path / "BENCH.json"
    assert bench(change, "--runs", "1", "--out", str(out)).returncode == 0
    assert bench(change, "--runs", "1", "--seed", "7", "--out", str(out)).returncode == 0
    series = json.loads(out.read_text())["series"]
    assert [(s["seed"], s["change"]["runs"][0]["adjusted"]["jobs_per_s"]) for s in series] == [(1, 10.0), (7, 20.0)]
    assert all("pairs" not in s for s in series)


@pytest.mark.parametrize("which", ["change", "parent"])
def test_a_wrong_output_refuses_the_recording(tmp_path, which):
    good, bad = [(10.0, 5.0, True)] * 2, [(10.0, 5.0, True), (50.0, 1.0, False)]
    change = checkout(tmp_path, "change", bad if which == "change" else good)
    parent = checkout(tmp_path, "parent", bad if which == "parent" else good)
    out = tmp_path / "BENCH.json"
    proc = bench(change, "--repo", str(parent), "--pairs", "2", "--out", str(out))
    assert proc.returncode == 1
    assert "correct=False" in proc.stderr
    assert not out.exists()
