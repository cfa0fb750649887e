#!/usr/bin/env python3
"""Record benchmark runs of perfbench/run.py into a BENCH JSON file.

Run from the repository root.  Five runs of one workload of this checkout:

    python3 tools/bench.py --workload sumset-growth --seed 1 --seconds 20 --runs 5 --out BENCH.json

Ten pairs of runs of another checkout (say, the parent commit) and of this
one, which side runs first alternating from pair to pair:

    python3 tools/bench.py --workload sumset-growth --seed 1 --seconds 20 \\
        --repo ../parent --pairs 10 --out BENCH.json

Each run is `perfbench/run.py --workload W --seed S --seconds T --trace 0`
in a subprocess, started in the checkout it measures.  The recorder parses
the lines the harness prints, the `machine` line, the `unadjusted` line and
the last line's JSON result, and never recomputes a metric.  A run that
reports "correct": false, or prints no result, stops the recording and
nothing is written.

The file keeps every run and, per metric, the median, Q1 and Q3 of the
host-adjusted and of the unadjusted values, with the machine line, seed,
run length and, per checkout, `git rev-parse HEAD` and whether its tree is
dirty.  With --pairs it also counts, per metric, the pairs the change wins
(by the metric's `better` direction in BENCHMARK.json), and whether the
gap between the two medians exceeds the other checkout's Q1-Q3 spread:
for the host-adjusted metrics under their names, and for the unadjusted
ones under "unadjusted", since the two can disagree.
An existing file keeps its other series: one series per workload, seed and
run length, replaced when recorded again.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()


class BenchError(Exception):
    """A run that cannot be recorded."""


def parse_run(stdout: str) -> dict:
    """The harness's own figures from one run's standard output."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("the run printed no result line") from None
    if result.get("correct") is not True:
        raise BenchError(f"the run reports correct={result.get('correct')!r}: outputs differ from the references")
    run = {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "adjusted": {name: body["value"] for name, body in result["metrics"].items()},
        "unadjusted": {},
        "machine": None,
    }
    for line in lines[:-1]:
        if line.startswith("machine "):
            run["machine"] = json.loads(line[len("machine "):])
        elif line.startswith("unadjusted "):
            pairs = (field.split("=", 1) for field in line.split()[1:])
            run["unadjusted"] = {name: float(value) for name, value in pairs}
    return run


def run_once(repo: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True, timeout=seconds + 900)
    try:
        return parse_run(proc.stdout)
    except BenchError as exc:
        raise BenchError(f"{workload} in {repo} (exit {proc.returncode}): {exc}\n{proc.stderr[-2000:]}") from None


def quartiles(values: list[float]) -> dict:
    """Median, Q1 and Q3 (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(runs: list[dict]) -> dict:
    return {
        kind: {name: quartiles([r[kind][name] for r in runs]) for name in runs[0][kind]}
        for kind in ("adjusted", "unadjusted")
    }


def checkout(repo: str) -> dict:
    """HEAD and whether the tree is dirty, or None where repo is not a git tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", repo, *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"head": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def side(repo: str, runs: list[dict]) -> dict:
    return {**checkout(repo), "machine": runs[0]["machine"], "runs": runs, "summary": summary(runs)}


def compare(change: list[dict], parent: list[dict], better: dict, kind: str = "adjusted") -> dict:
    """Per metric of a kind (adjusted or unadjusted): pairs the change wins,
    and whether the gap of the medians exceeds the parent's Q1-Q3 spread in
    the better direction."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (c[kind][name] - p[kind][name]) > 0 for c, p in zip(change, parent))
        mine = quartiles([r[kind][name] for r in change])
        theirs = quartiles([r[kind][name] for r in parent])
        gap = sign * (mine["median"] - theirs["median"])
        out[name] = {
            "change_wins": wins,
            "pairs": len(change),
            "median_gap": gap,
            "parent_iqr": theirs["q3"] - theirs["q1"],
            "gap_exceeds_parent_iqr": gap > theirs["q3"] - theirs["q1"],
        }
    return out


def record(args) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    series = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    change, parent = [], []
    for i in range(args.pairs or args.runs):
        if args.pairs and i % 2 == 0:
            parent.append(run_once(args.repo, args.workload, args.seed, args.seconds))
        change.append(run_once(ROOT, args.workload, args.seed, args.seconds))
        if args.pairs and i % 2 == 1:
            parent.append(run_once(args.repo, args.workload, args.seed, args.seconds))
        sys.stderr.write(f"bench: {args.workload} run {i + 1} done\n")
    series["change"] = side(ROOT, change)
    if args.pairs:
        series["parent"] = side(args.repo, parent)
        series["pairs"] = compare(change, parent, better)
        series["pairs"]["unadjusted"] = compare(change, parent, better, "unadjusted")
    return series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--runs", type=int, default=5, help="runs of this checkout, without --repo")
    parser.add_argument("--repo", help="the other checkout, run first in every other pair")
    parser.add_argument("--pairs", type=int, default=0, help="alternating pairs with --repo")
    parser.add_argument("--out", required=True, help="the BENCH JSON file to write or extend")
    args = parser.parse_args(argv)
    if bool(args.repo) != bool(args.pairs):
        parser.error("--repo and --pairs go together")
    if max(args.runs, args.pairs) < 1:
        parser.error("need at least one run")
    try:
        series = record(args)
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1
    data = {"series": []}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    key = (series["workload"], series["seed"], series["seconds"])
    data["series"] = [s for s in data["series"] if (s["workload"], s["seed"], s["seconds"]) != key] + [series]
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
