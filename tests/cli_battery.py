"""A fixed battery of `dimlab` CLI runs, for comparing two versions of the CLI.

    python3 tests/cli_battery.py DIR
    python3 tests/cli_battery.py DIR --record tests/cli_battery_refs.json
    python3 tests/cli_battery.py DIR --check tests/cli_battery_refs.json

runs every case in its own directory DIR/<case>, on small input files
written there first and with relative paths only, and records the exit
code, stdout and stderr in DIR/<case>/run.txt beside the files the run
wrote.  The CLI under test is the `src` tree beside this file.  Run the
battery from two checkouts into two directories and compare them with
`diff -r`; a difference is a change in what some run prints, writes or
returns.  The script exits 1 when an exit code differs from the one
listed with its case.

--record and --check also run `dimlab verify all --json` and hold the
standing references: per case the exit code, and for stdout, stderr and
each file the run wrote or changed, its parsed value when it is JSON and
the sha256 of its bytes otherwise; for verify, its exit code and output
with each check's `runtime_s` removed.  --record writes them to FILE;
--check compares them with FILE by `compare` and exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dimlab import DyadicTree, IfsSpec, MoranSpec, grid_product, ifs_attractor, moran_tree  # noqa: E402
from dimlab.cli import main  # noqa: E402
from dimlab.io import dumps_grid, dumps_tree  # noqa: E402

CANTOR = {"type": "ifs", "r": "1/3", "translations": [0, "2/3"]}
MORAN = {"type": "moran", "k": 2, "lengths": "4^-j"}


def _cfg(**fields) -> dict:
    """A depth-8 Cantor config with the given fields added or replaced."""
    return {"name": "bat", "depth": 8, "generators": [CANTOR], **fields}


# (case name, expected exit code, argv, config written to cfg.json or None)
CASES = [
    # gen
    ("gen-ifs", 0, ["gen", "--ifs", "r=1/3", "t=0,2/3", "--depth", "6", "--out", "o.tree"], None),
    ("gen-ifs-span", 0, ["gen", "--ifs", "r=1/2", "t=0,1/2,1", "span=2", "--depth", "5"], None),
    ("gen-moran", 0, ["gen", "--moran", "k=2", "lengths=4^-j", "--depth", "8"], None),
    ("gen-moran-list", 0, ["gen", "--moran", "k=2", "lengths=0.25,0.0625", "--depth", "6"], None),
    ("gen-semigroup", 0, ["gen", "--semigroup", "gens=1,1.5", "bound=8", "--depth", "5"], None),
    ("gen-reciprocal", 0, ["gen", "--reciprocal", "--depth", "6"], None),
    ("gen-spec", 0, ["gen", "--spec", "spec.json", "--depth", "6"], None),
    ("gen-product", 0, ["gen", "--product", "c.tree", "c.tree", "--out", "o.grid"], None),
    ("gen-no-source", 2, ["gen", "--depth", "4"], None),
    ("gen-product-two-sources", 2, ["gen", "--product", "c.tree", "c.tree", "--reciprocal"], None),
    ("gen-product-depth", 2, ["gen", "--product", "c.tree", "c.tree", "--depth", "9"], None),
    ("gen-two-sources", 2, ["gen", "--reciprocal", "--ifs", "r=1/3", "t=0"], None),
    ("gen-ifs-needs-t", 2, ["gen", "--ifs", "r=1/3"], None),
    ("gen-ifs-unknown-key", 2, ["gen", "--ifs", "r=1/3", "t=0", "spn=2"], None),
    ("gen-moran-not-kv", 2, ["gen", "--moran", "k2", "lengths=4^-j"], None),
    ("gen-semigroup-needs-bound", 2, ["gen", "--semigroup", "gens=1"], None),
    ("gen-negative-depth", 2, ["gen", "--reciprocal", "--depth", "-1"], None),
    ("gen-bad-depth-flag", 2, ["gen", "--reciprocal", "--depth", "x"], None),
    ("gen-zero-budget", 3, ["--budget-cells", "0", "gen", "--reciprocal", "--depth", "6"], None),
    # sum, diff, dist
    ("sum-pair", 0, ["sum", "c.tree", "m.tree", "--report", "r.json", "--out", "o.tree"], None),
    ("sum-iterate", 0, ["sum", "c.tree", "--k", "3", "--report", "-"], None),
    ("sum-level", 0, ["sum", "c.tree", "c.tree", "--level", "3"], None),
    ("sum-empty-pair", 0, ["sum", "c.tree", "e.tree", "--report", "-"], None),
    ("sum-empty-iterate", 0, ["sum", "e.tree", "--k", "3", "--report", "-"], None),
    ("sum-empty-k0", 2, ["sum", "e.tree", "--k", "0"], None),
    ("sum-k0", 2, ["sum", "c.tree", "--k", "0"], None),
    ("sum-k-two-inputs", 2, ["sum", "c.tree", "c.tree", "--k", "2"], None),
    ("sum-three-inputs", 2, ["sum", "c.tree", "c.tree", "c.tree"], None),
    ("sum-level-high", 2, ["sum", "c.tree", "m.tree", "--level", "7"], None),
    ("sum-level-negative", 2, ["sum", "c.tree", "--level", "-1"], None),
    ("sum-missing-file", 2, ["sum", "nope.tree"], None),
    ("sum-grid-input", 2, ["sum", "g.grid"], None),
    ("diff", 0, ["diff", "c.tree", "--report", "r.json"], None),
    ("diff-level", 0, ["diff", "m.tree", "--level", "3"], None),
    ("diff-empty", 0, ["diff", "e.tree", "--report", "-"], None),
    ("diff-level-high", 2, ["diff", "c.tree", "--level", "9"], None),
    ("diff-level-negative", 2, ["diff", "c.tree", "--level", "-2"], None),
    ("dist", 0, ["dist", "g.grid", "--out", "o.tree"], None),
    ("dist-tree-input", 2, ["dist", "c.tree"], None),
    # analyze with flags
    ("an-tree-all", 0, ["analyze", "m.tree", "--box", "2,8", "--assouad", "3", "--lower", "2",
                        "--profile", "0.25,2", "--covering-check", "0.25", "--json", "o.json",
                        "--csv", "o.csv"], None),
    ("an-defaults", 0, ["analyze", "c.tree", "--box", "3,6", "--assouad", "2"], None),
    ("an-splitting", 0, ["analyze", "m.tree", "--profile", "0.25,2,4", "--measure", "splitting"], None),
    ("an-covering-pass", 0, ["analyze", "u.tree", "--covering-check", "0.25,2"], None),
    ("an-no-analyses", 0, ["analyze", "c.tree"], None),
    ("an-grid", 0, ["analyze", "g.grid", "--box", "2,6", "--assouad", "2", "--lower", "2"], None),
    ("an-grid-profile", 2, ["analyze", "g.grid", "--profile", "0.1"], None),
    ("an-grid-covering", 2, ["analyze", "g.grid", "--box", "2,6", "--covering-check", "0.1"], None),
    ("an-box-three", 2, ["analyze", "c.tree", "--box", "1,2,3"], None),
    ("an-box-not-int", 2, ["analyze", "c.tree", "--box", "1,x"], None),
    ("an-box-out-of-range", 2, ["analyze", "c.tree", "--box", "0,99"], None),
    ("an-profile-no-eps", 2, ["analyze", "c.tree", "--profile", ","], None),
    ("an-profile-bad-eps", 2, ["analyze", "c.tree", "--profile", "2"], None),
    ("an-assouad-not-int", 2, ["analyze", "c.tree", "--assouad", "x"], None),
    ("an-no-input", 2, ["analyze", "--box", "2,4"], None),
    ("an-missing-file", 2, ["analyze", "nope.tree"], None),
    ("an-bad-header", 2, ["analyze", "spec.json"], None),
    ("an-input-depth", 2, ["analyze", "c.tree", "--depth", "5", "--box", "2,5"], None),
    # hand-edited and edge input files
    ("an-crlf-tree", 0, ["analyze", "crlf.tree", "--box", "2,6", "--assouad", "2"], None),
    ("an-hand-grid", 0, ["analyze", "hand.grid", "--box", "2,6"], None),
    ("dist-hand-grid", 0, ["dist", "hand.grid", "--out", "o.tree"], None),
    ("an-deep-tree", 0, ["analyze", "deep.tree", "--box", "50,60", "--lower", "2"], None),
    ("sum-bad-token", 2, ["sum", "x.tree"], None),
    ("sum-signed-token", 2, ["sum", "plus.tree"], None),
    ("sum-unsplit-list", 2, ["sum", "split.tree"], None),
    ("sum-padded-tree", 0, ["sum", "pad.tree"], None),
    # analyze finds the header as the loaders do, and headers take the number rule
    ("an-lead-tree", 0, ["analyze", "lead.tree", "--box", "2,6"], None),
    ("sum-signed-header", 2, ["sum", "plus.hdr.tree"], None),
    # a full tree's RUNS levels, each under the cap but not all together
    ("an-runs-budget", 0, ["--budget-cells", "300", "analyze", "u.tree", "--box", "2,6"], None),
    # analyze with a config
    ("cfg-ok", 0, ["analyze", "--config", "cfg.json"], _cfg(
        generators=[MORAN], pipeline=[{"op": "iterate", "k": 2}],
        analyses=[{"kind": "box", "window": [4, 8]}, {"kind": "box"}, {"kind": "assouad", "m": 3},
                  {"kind": "lower"}, {"kind": "growth", "k_max": 2},
                  {"kind": "profile", "eps": 0.25, "m": 2, "n": 4, "measure": "splitting"},
                  {"kind": "profile", "eps": 0.25}, {"kind": "covering-check", "eps": 0.25}],
        out={"tree": "o.tree", "json": "o.json", "csv": "o.csv"})),
    ("cfg-minimal", 0, ["analyze", "--config", "cfg.json"], {"depth": 6, "generators": [CANTOR]}),
    ("cfg-sum", 0, ["analyze", "--config", "cfg.json"], _cfg(
        generators=[CANTOR, MORAN], pipeline=[{"op": "sum"}, {"op": "difference"}],
        analyses=[{"kind": "box"}], out={"tree": "o.tree"})),
    ("cfg-product", 0, ["analyze", "--config", "cfg.json", "--json", "o.json"], _cfg(
        depth=6, generators=[CANTOR, CANTOR], pipeline=[{"op": "product"}],
        analyses=[{"kind": "box"}, {"kind": "lower", "m": 2}], out={"tree": "o.grid"})),
    ("cfg-distance", 0, ["analyze", "--config", "cfg.json"], _cfg(
        depth=6, generators=[CANTOR, CANTOR], pipeline=[{"op": "product"}, {"op": "distance"}],
        analyses=[{"kind": "box"}, {"kind": "profile", "eps": 0.25}], out={"tree": "o.tree"})),
    ("cfg-depth-flag", 0, ["analyze", "--config", "cfg.json", "--depth", "5", "--csv", "o.csv"],
     _cfg(analyses=[{"kind": "box"}])),
    ("cfg-budget", 3, ["analyze", "--config", "cfg.json"], _cfg(budget_cells=10)),
    ("cfg-window-out-of-range", 2, ["analyze", "--config", "cfg.json"],
     _cfg(analyses=[{"kind": "box", "window": [0, 8]}])),
    ("cfg-not-object", 2, ["analyze", "--config", "cfg.json"], [1]),
    ("cfg-unknown-key", 2, ["analyze", "--config", "cfg.json"], _cfg(budget=5)),
    ("cfg-depth-bool", 2, ["analyze", "--config", "cfg.json"], _cfg(depth=True)),
    ("cfg-depth-missing", 2, ["analyze", "--config", "cfg.json"], {"generators": [CANTOR]}),
    ("cfg-depth-flag-zero", 2, ["analyze", "--config", "cfg.json", "--depth", "0"], _cfg()),
    ("cfg-budget-float", 2, ["analyze", "--config", "cfg.json"], _cfg(budget_cells=1.5)),
    ("cfg-out-string", 2, ["analyze", "--config", "cfg.json"], _cfg(out="o.tree")),
    ("cfg-out-key", 2, ["analyze", "--config", "cfg.json"], _cfg(out={"jsn": "o.json"})),
    ("cfg-out-path", 2, ["analyze", "--config", "cfg.json"], _cfg(out={"csv": 5})),
    ("cfg-no-generators", 2, ["analyze", "--config", "cfg.json"], _cfg(generators=[])),
    ("cfg-generators-object", 2, ["analyze", "--config", "cfg.json"], _cfg(generators={"a": 1})),
    ("cfg-bad-spec", 2, ["analyze", "--config", "cfg.json"], _cfg(generators=[CANTOR, {"type": "x"}])),
    ("cfg-spec-key", 2, ["analyze", "--config", "cfg.json"], _cfg(generators=[{**MORAN, "kk": 1}])),
    ("cfg-pipeline-number", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=5)),
    ("cfg-stage-number", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[1])),
    ("cfg-unknown-op", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[{"op": "fold"}])),
    ("cfg-stage-key", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[{"op": "sum", "k": 2}])),
    ("cfg-iterate-k", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[{"op": "iterate", "k": "8"}])),
    ("cfg-iterate-k0", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[{"op": "iterate", "k": 0}])),
    ("cfg-distance-on-tree", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[{"op": "distance"}])),
    ("cfg-sum-on-grid", 2, ["analyze", "--config", "cfg.json"],
     _cfg(generators=[CANTOR, CANTOR], pipeline=[{"op": "product"}, {"op": "sum"}])),
    ("cfg-sum-one-generator", 2, ["analyze", "--config", "cfg.json"], _cfg(pipeline=[{"op": "sum"}])),
    ("cfg-analyses-number", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=5)),
    ("cfg-analysis-string", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=["box"])),
    ("cfg-unknown-kind", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=[{"kind": "hausdorff"}])),
    ("cfg-analysis-key", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=[{"kind": "box", "windw": [2, 4]}])),
    ("cfg-window", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=[{"kind": "box", "window": [2, True]}])),
    ("cfg-m-string", 2, ["analyze", "--config", "cfg.json"],
     _cfg(pipeline=[{"op": "iterate", "k": 8}], analyses=[{"kind": "box"}, {"kind": "assouad", "m": "6"}])),
    ("cfg-k-max", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=[{"kind": "growth", "k_max": 2.5}])),
    ("cfg-eps", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=[{"kind": "profile", "eps": "0.1"}])),
    ("cfg-measure", 2, ["analyze", "--config", "cfg.json"],
     _cfg(analyses=[{"kind": "covering-check", "measure": "lebesgue"}])),
    ("cfg-n", 2, ["analyze", "--config", "cfg.json"], _cfg(analyses=[{"kind": "profile", "n": True}])),
    ("cfg-profile-on-grid", 2, ["analyze", "--config", "cfg.json"],
     _cfg(generators=[CANTOR, CANTOR], pipeline=[{"op": "product"}], analyses=[{"kind": "profile"}])),
    ("cfg-late-distance", 2, ["analyze", "--config", "cfg.json"],
     _cfg(pipeline=[{"op": "iterate", "k": 8}, {"op": "distance"}])),
    ("cfg-with-input", 2, ["analyze", "c.tree", "--config", "cfg.json"], _cfg()),
    ("cfg-with-flags", 2, ["analyze", "--config", "cfg.json", "--box", "2,5", "--lower", "3"], _cfg()),
    ("cfg-with-measure", 2, ["analyze", "--config", "cfg.json", "--measure", "splitting"], _cfg()),
    ("cfg-missing", 2, ["analyze", "--config", "nope.json"], None),
]


def _inputs() -> dict[str, str]:
    """The files every case directory starts with: writer output, and files
    as a person might edit them."""
    cantor = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 6)
    grid = grid_product([cantor, cantor])
    # the grid's rows backwards, zero-padded, tab-separated, between blank lines
    rows = [f"  {x:03d}\t{y:05d} " for x, y in grid.array()[::-1].tolist()]
    level = "dyadic-tree v1 depth=2 span=1\n0: 0\n1: 0\n2: {}\n"
    return {
        "c.tree": dumps_tree(cantor),
        "m.tree": dumps_tree(moran_tree(MoranSpec(2, "4^-j"), 8)),
        "u.tree": dumps_tree(DyadicTree.from_leaves(8, 1, range(256))),
        "e.tree": dumps_tree(DyadicTree.from_leaves(4, 1, [])),
        "g.grid": dumps_grid(grid),
        "spec.json": json.dumps(MORAN) + "\n",
        "crlf.tree": dumps_tree(cantor).replace("\n", "\r\n"),
        "hand.grid": "\n".join(["grid-set v1 d=2 depth=6 span=1", "", *rows[:9], "\t", *rows[9:], "", ""]),
        # 19-digit indices: a depth-60 grid of span 4 has 2^62 cells
        "deep.tree": dumps_tree(DyadicTree.from_leaves(60, 4, [0, 10**18, 3 << 60, (1 << 62) - 1])),
        "x.tree": level.format("0,x"),
        "plus.tree": level.format("+1"),
        "split.tree": level.format("0 1,"),
        "pad.tree": level.format("0" * 30 + "1"),
        "lead.tree": "\n" + dumps_tree(cantor),
        "plus.hdr.tree": level.format("1").replace("depth=2", "depth=+2"),
    }


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _entry(data: bytes) -> dict:
    """An output as the references hold it: its parsed value when it is
    JSON, else the sha256 of its bytes."""
    try:
        return {"json": json.loads(data)}
    except ValueError:
        return {"sha256": hashlib.sha256(data).hexdigest()}


def run_records(root) -> dict[str, dict]:
    """Run every case under `root`; returns, per case, its exit code and
    the entries of its stdout, stderr and each file it wrote or changed."""
    inputs = _inputs()
    records = {}
    home = os.getcwd()
    try:
        for name, _, argv, config in CASES:
            case = Path(root, name)
            case.mkdir(parents=True)
            given = {file: text.encode() for file, text in inputs.items()}
            if config is not None:
                given["cfg.json"] = (json.dumps(config) + "\n").encode()
            for file, data in given.items():
                (case / file).write_bytes(data)
            os.chdir(case)
            code, out, err = _call(argv)
            os.chdir(home)
            written = {p.name: p.read_bytes() for p in sorted(case.iterdir()) if p.is_file()}
            records[name] = {
                "exit": code,
                "stdout": _entry(out.encode()),
                "stderr": _entry(err.encode()),
                "files": {file: _entry(data) for file, data in written.items() if given.get(file) != data},
            }
            (case / "run.txt").write_text(
                f"argv {json.dumps(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"
            )
    finally:
        os.chdir(home)
    return records


def run_battery(root) -> dict[str, int]:
    """Run every case under `root`; returns the exit code of each."""
    return {name: record["exit"] for name, record in run_records(root).items()}


def verify_record() -> dict:
    """`dimlab verify all --json`: its exit code, stderr and output, with
    each check's `runtime_s`, the one field that moves from run to run,
    removed."""
    code, out, err = _call(["verify", "all", "--json"])
    report = json.loads(out)
    for criterion in report["criteria"]:
        del criterion["runtime_s"]
    return {"exit": code, "stdout": {"json": report}, "stderr": _entry(err.encode())}


# JSON floats match when they differ by at most a relative 1e-9: numpy's
# `log` and its pairwise sums may differ in the last bits between CPUs and
# numpy builds, and CI runs Python 3.10 and 3.11 on whatever numpy each
# installs.  A few ulps of drift, even carried through a regression slope,
# stays many orders below 1e-9, while any change in what is computed moves
# a figure far past it.  Below 1e-12 in absolute value the figures are
# themselves rounding errors (the checks' `max_*_error` details sit near
# 1e-15), and those move wholesale when the last bits do, so they match
# within that absolute floor.
FLOAT_REL_TOL = 1e-9
FLOAT_ABS_TOL = 1e-12


def compare(want, got, where: str = "") -> list[str]:
    """The differences between references `want` and a fresh record `got`,
    one line each: every value exactly, of the same JSON type, except
    floats, which match within FLOAT_REL_TOL (or FLOAT_ABS_TOL)."""
    if isinstance(want, dict) and isinstance(got, dict):
        diffs = [f"{where}/{key}: missing" for key in sorted(want.keys() - got.keys())]
        diffs += [f"{where}/{key}: not in the references" for key in sorted(got.keys() - want.keys())]
        for key in sorted(want.keys() & got.keys()):
            diffs += compare(want[key], got[key], f"{where}/{key}")
        return diffs
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} items, references hold {len(want)}"]
        return [d for i, (w, g) in enumerate(zip(want, got)) for d in compare(w, g, f"{where}/{i}")]
    if type(want) is float and type(got) is float:
        if math.isclose(want, got, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return []
    elif type(want) is type(got) and want == got:
        return []
    return [f"{where}: {got!r}, references hold {want!r}"]


def main_battery(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 tests/cli_battery.py")
    parser.add_argument("dir", help="a new directory for the case directories")
    refs = parser.add_mutually_exclusive_group()
    refs.add_argument("--record", metavar="FILE", help="write the standing references here")
    refs.add_argument("--check", metavar="FILE", help="compare with the references recorded here")
    args = parser.parse_args(argv)
    records = run_records(args.dir)
    wrong = [(name, want, records[name]["exit"]) for name, want, _, _ in CASES if records[name]["exit"] != want]
    for name, want, got in wrong:
        sys.stdout.write(f"{name}: exit {got}, listed {want}\n")
    sys.stdout.write(f"{len(CASES)} runs in {args.dir}, {len(wrong)} with another exit code\n")
    diffs = []
    if args.record or args.check:
        found = {"cases": records, "verify all --json": verify_record()}
        if args.record:
            Path(args.record).write_text(json.dumps(found, indent=1, sort_keys=True) + "\n")
            sys.stdout.write(f"references written to {args.record}\n")
        else:
            diffs = compare(json.loads(Path(args.check).read_text()), found)
            for line in diffs:
                sys.stdout.write(line + "\n")
            sys.stdout.write(f"{len(diffs)} differences from {args.check}\n")
    return 1 if wrong or diffs else 0


if __name__ == "__main__":
    raise SystemExit(main_battery(sys.argv[1:]))
