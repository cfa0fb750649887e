"""A fixed battery of `dimlab` CLI runs, for comparing two versions of the CLI.

    python3 tests/cli_battery.py DIR

runs every case in its own directory DIR/<case>, on small input files
written there first and with relative paths only, and records the exit
code, stdout and stderr in DIR/<case>/run.txt beside the files the run
wrote.  The CLI under test is the `src` tree beside this file.  Run the
battery from two checkouts into two directories and compare them with
`diff -r`; a difference is a change in what some run prints, writes or
returns.  The script exits 1 when an exit code differs from the one
listed with its case.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dimlab import DyadicTree, IfsSpec, MoranSpec, grid_product, ifs_attractor, moran_tree  # noqa: E402
from dimlab.arithmetic import dumps_grid  # noqa: E402
from dimlab.cli import main  # noqa: E402
from dimlab.dyadic import dumps_tree  # noqa: E402

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
    """The files every case directory starts with."""
    cantor = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 6)
    return {
        "c.tree": dumps_tree(cantor),
        "m.tree": dumps_tree(moran_tree(MoranSpec(2, "4^-j"), 8)),
        "u.tree": dumps_tree(DyadicTree.from_leaves(8, 1, range(256))),
        "e.tree": dumps_tree(DyadicTree.from_leaves(4, 1, [])),
        "g.grid": dumps_grid(grid_product([cantor, cantor])),
        "spec.json": json.dumps(MORAN) + "\n",
    }


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_battery(root) -> dict[str, int]:
    """Run every case under `root`; returns the exit code of each."""
    inputs = _inputs()
    codes = {}
    home = os.getcwd()
    try:
        for name, _, argv, config in CASES:
            case = Path(root, name)
            case.mkdir(parents=True)
            for file, text in inputs.items():
                (case / file).write_text(text)
            if config is not None:
                (case / "cfg.json").write_text(json.dumps(config) + "\n")
            os.chdir(case)
            code, out, err = _call(argv)
            os.chdir(home)
            (case / "run.txt").write_text(
                f"argv {json.dumps(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}"
            )
            codes[name] = code
    finally:
        os.chdir(home)
    return codes


def main_battery(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write("usage: python3 tests/cli_battery.py DIR\n")
        return 2
    codes = run_battery(argv[0])
    wrong = [(name, want, codes[name]) for name, want, _, _ in CASES if codes[name] != want]
    for name, want, got in wrong:
        sys.stdout.write(f"{name}: exit {got}, listed {want}\n")
    sys.stdout.write(f"{len(CASES)} runs in {argv[0]}, {len(wrong)} with another exit code\n")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main_battery(sys.argv[1:]))
