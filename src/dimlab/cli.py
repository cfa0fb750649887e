"""Command-line driver: generate, combine, and analyze dyadic-grid sets.

Exit codes: 0 ok, 1 criterion failure, 2 usage or validation, 3 resource
limit.  Errors are emitted as one-line JSON objects on standard error so
scripted experiments can branch on the code field.  All file writes are
atomic and byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext

from .budget import DEFAULT_CELLS, limit
from .dyadic import DyadicTree, dumps_tree, load_tree, loads_tree
from .errors import (
    FormatError,
    HypothesisError,
    ResourceLimitError,
    SpecValidationError,
)
from .generators import build_tree, spec_from_json
from .measures import (
    counting_measure,
    covering_bounds_check,
    default_window,
    scale_profile,
    splitting_measure,
)
from .arithmetic import (
    GridSetD,
    difference_set,
    distance_set,
    dumps_grid,
    grid_product,
    index_sumset,
    iterated_sumset,
    load_grid,
    loads_grid,
    SumsetReport,
)
from .dimension import assouad_estimate, box_estimate, growth_experiment, lower_estimate
from .io import atomic_write_text, dumps_json
from .verify import run_suite

_MEASURES = {"counting": counting_measure, "splitting": splitting_measure}


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"code": code, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("USAGE", message)
        raise SystemExit(2)


def _budget(args) -> int:
    """--budget-cells, else DIMLAB_BUDGET_CELLS, else the library default."""
    if args.budget_cells is not None:
        return args.budget_cells
    env = os.environ.get("DIMLAB_BUDGET_CELLS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise SpecValidationError(f"DIMLAB_BUDGET_CELLS={env!r} is not an integer")
    return DEFAULT_CELLS


def _kv(tokens: list[str], what: str) -> dict[str, str]:
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecValidationError(f"{what}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    return out


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _load_any(path: str):
    with open(path, "r", encoding="ascii") as fh:
        head = fh.readline()
        rest = fh.read()
    text = head + rest
    if head.startswith("dyadic-tree"):
        return loads_tree(text)
    if head.startswith("grid-set"):
        return loads_grid(text)
    raise FormatError(f"{path}: unrecognized header {head.strip()!r}")


# -- gen -----------------------------------------------------------------


def _spec_from_args(args):
    chosen = [name for name in ("ifs", "moran", "reciprocal", "semigroup", "spec", "product")
              if getattr(args, name)]
    if len(chosen) != 1:
        raise SpecValidationError(
            f"gen needs exactly one of --ifs/--moran/--reciprocal/--semigroup/--spec/--product, got {chosen or 'none'}"
        )
    kind = chosen[0]
    if kind == "ifs":
        kv = _kv(args.ifs, "--ifs")
        if "r" not in kv or "t" not in kv:
            raise SpecValidationError("--ifs needs r=... and t=...")
        spec = {"type": "ifs", "r": kv["r"],
                "translations": [t for t in kv["t"].split(",") if t]}
        if "span" in kv:
            spec["span"] = int(kv["span"])
        return spec_from_json(spec)
    if kind == "moran":
        kv = _kv(args.moran, "--moran")
        if "k" not in kv or "lengths" not in kv:
            raise SpecValidationError("--moran needs k=... and lengths=...")
        lengths = kv["lengths"]
        if "," in lengths:
            lengths = [x for x in lengths.split(",") if x]
        return spec_from_json({"type": "moran", "k": int(kv["k"]), "lengths": lengths})
    if kind == "reciprocal":
        return spec_from_json({"type": "reciprocal"})
    if kind == "semigroup":
        kv = _kv(args.semigroup, "--semigroup")
        if "gens" not in kv or "bound" not in kv:
            raise SpecValidationError("--semigroup needs gens=... and bound=...")
        gens = [g for g in kv["gens"].split(",") if g]
        return spec_from_json({"type": "semigroup", "generators": gens, "bound": int(kv["bound"])})
    with open(args.spec, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def cmd_gen(args) -> int:
    if args.product:
        trees = [load_tree(p) for p in args.product]
        _write_text(args.out, dumps_grid(grid_product(trees)))
        return 0
    tree = build_tree(_spec_from_args(args), args.depth)
    _write_text(args.out, dumps_tree(tree))
    return 0


# -- sum / diff / dist ---------------------------------------------------


def _report_json(report: SumsetReport, extra: dict | None = None) -> str:
    body = report.to_json()
    if extra:
        body.update(extra)
    return dumps_json(body)


def cmd_sum(args) -> int:
    if len(args.inputs) > 2:
        raise SpecValidationError("sum takes one or two input trees")
    if len(args.inputs) == 2 and args.k != 1:
        raise SpecValidationError("--k applies to a single input only")
    trees = [load_tree(p) for p in args.inputs]
    level = args.level if args.level is not None else min(t.max_depth for t in trees)
    for t in trees:
        if level > t.max_depth:
            raise SpecValidationError(f"level {level} exceeds input depth {t.max_depth}")
    if any(t.is_empty() for t in trees):
        _emit_error("EMPTY_INPUT", "an input tree is empty; output is empty")
        out = DyadicTree.from_leaves(level, sum(t.span for t in trees) * max(1, args.k), [])
        _write_text(args.out, dumps_tree(out))
        if args.report:
            _write_text(args.report, _report_json(SumsetReport(level, 0, (0.0, 0.0))))
        return 0
    if len(trees) == 2:
        out, report = index_sumset(trees[0], trees[1], level)
    else:
        out = iterated_sumset(trees[0], args.k, level)
        count = len(out.levels[level])
        report = SumsetReport(level, count, (count / 2.0, 2.0 * count))
    _write_text(args.out, dumps_tree(out))
    if args.report:
        _write_text(args.report, _report_json(report, {"k": args.k, "inputs": len(trees)}))
    return 0


def cmd_diff(args) -> int:
    tree = load_tree(args.input)
    level = args.level if args.level is not None else tree.max_depth
    out, offset = difference_set(tree, level)
    _write_text(args.out, dumps_tree(out))
    if args.report:
        _write_text(args.report, dumps_json({"level": level, "offset": offset,
                                             "count": len(out.levels[level])}))
    return 0


def cmd_dist(args) -> int:
    _write_text(args.out, dumps_tree(distance_set(load_grid(args.input))))
    return 0


# -- analyze -------------------------------------------------------------


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise SpecValidationError(f"{what} expects two comma-separated integers, got {text!r}")
    return int(parts[0]), int(parts[1])


def _flag_analyses(args) -> list[dict]:
    """The --box/--assouad/--lower/--profile/--covering-check flags in the
    config `analyses` form, in the order their results are emitted."""
    reqs = [{"kind": "box", "window": list(_parse_pair(spec, "--box"))} for spec in args.box or []]
    reqs += [{"kind": "assouad", "m": m} for m in args.assouad or []]
    reqs += [{"kind": "lower", "m": m} for m in args.lower or []]
    for kind, specs in (("profile", args.profile), ("covering-check", args.covering_check)):
        for spec in specs or []:
            parts = [p for p in spec.split(",") if p]
            if not parts:
                raise SpecValidationError(f"--{kind} needs EPS, got {spec!r}")
            req = {"kind": kind, "eps": float(parts[0]), "measure": args.measure}
            if len(parts) > 1:
                req["m"] = int(parts[1])
            if len(parts) > 2 and kind == "profile":
                req["n"] = int(parts[2])
            reqs.append(req)
    return reqs


def _run_analyses(obj, reqs: list[dict], label: str, base_spec) -> tuple[list[dict], list[str], int]:
    """Run config-form analysis requests on a tree or grid set.  Returns the
    result rows, the per-scale CSV lines and the exit status (1 when a
    covering check fails).  `growth` runs on `base_spec`, not on obj."""
    depth = obj.max_depth if isinstance(obj, DyadicTree) else obj.depth
    results: list[dict] = []
    csv_rows = ["scale,log2_count"]
    measures: dict = {}
    status = 0
    for req in reqs:
        kind = req.get("kind")
        if kind == "box":
            n_min, n_max = req.get("window", [max(1, depth // 2), depth])
            for variant in ("upper", "lower"):
                est = box_estimate(obj, n_min, n_max, variant)
                results.append(est.to_json(label))
                if variant == "upper":
                    for n, logc in est.per_scale:
                        csv_rows.append(f"{n},{logc:.6f}")
        elif kind == "assouad":
            results.append(assouad_estimate(obj, int(req.get("m", max(1, depth // 2)))).to_json(label))
        elif kind == "lower":
            results.append(lower_estimate(obj, int(req.get("m", max(1, depth // 2)))).to_json(label))
        elif kind == "growth":
            table = growth_experiment(base_spec, int(req.get("k_max", 3)), depth)
            results.append({"kind": "growth", "set": label, **table.to_json()})
        elif kind in ("profile", "covering-check"):
            if not isinstance(obj, DyadicTree):
                raise SpecValidationError(f"{label}: {kind} needs a 1-d tree")
            measure = req.get("measure", "counting")
            if measure not in _MEASURES:
                raise SpecValidationError(f"{label}: unknown measure {measure!r}")
            if measure not in measures:
                measures[measure] = _MEASURES[measure](obj)
            eps = float(req.get("eps", 0.1))
            m = int(req.get("m", default_window(eps)))
            if kind == "profile":
                n = req.get("n")
                prof = scale_profile(measures[measure], eps, m, None if n is None else int(n))
                results.append({"kind": "profile", "set": label, **prof.to_json()})
            else:
                rep = covering_bounds_check(obj, scale_profile(measures[measure], eps, m), depth)
                results.append({"kind": "covering-check", "set": label, **rep.to_json()})
                if not rep.ok:
                    status = 1
        else:
            raise SpecValidationError(f"{label}: unknown analysis kind {kind!r}")
    return results, csv_rows, status


def _write_outputs(payload: str, csv_rows: list[str], json_path, csv_path) -> None:
    _write_text(json_path or "-", payload)
    if csv_path:
        _write_text(csv_path, "\n".join(csv_rows) + "\n")


def cmd_analyze(args) -> int:
    if args.config:
        return _run_config(args)
    if not args.input:
        raise SpecValidationError("analyze needs an input file or --config")
    obj = _load_any(args.input)
    results, csv_rows, status = _run_analyses(obj, _flag_analyses(args), args.input, None)
    payload = dumps_json({"input": args.input, "results": results})
    _write_outputs(payload, csv_rows, args.json, args.csv)
    return status


def _run_pipeline(cfg: dict, name: str, depth: int) -> DyadicTree | GridSetD:
    """Build the config's generator trees and run its pipeline stages on the
    first; `sum` and `product` combine the current stage with the others."""
    gens = cfg.get("generators")
    if not gens:
        raise SpecValidationError(f"config {name}: no generators")
    trees = [build_tree(g, depth) for g in gens]
    current: DyadicTree | GridSetD = trees[0]
    for stage in cfg.get("pipeline", []):
        op = stage.get("op")
        if op not in ("sum", "iterate", "difference", "product", "distance"):
            raise SpecValidationError(f"config {name}: unknown pipeline op {op!r}")
        if (op == "distance") == isinstance(current, DyadicTree):
            need = "a product grid" if op == "distance" else "a 1-d tree"
            raise SpecValidationError(f"config {name}: {op} needs {need}")
        if op == "sum":
            if len(trees) < 2:
                raise SpecValidationError(f"config {name}: sum needs two generators")
            current, _ = index_sumset(current, trees[1], depth)
        elif op == "iterate":
            current = iterated_sumset(current, int(stage.get("k", 2)), depth)
        elif op == "difference":
            current, _ = difference_set(current, depth)
        elif op == "product":
            current = grid_product([current, *trees[1:]])
        else:
            current = distance_set(current)
    return current


def _run_config(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    name = cfg.get("name", "experiment")
    depth = args.depth if args.depth is not None else cfg.get("depth")
    if not isinstance(depth, int) or depth < 1:
        raise SpecValidationError(f"config {name}: depth must be a positive integer")
    budget = cfg.get("budget_cells")
    if budget is not None and not isinstance(budget, int):
        raise SpecValidationError(f"config {name}: budget_cells must be an integer")
    with nullcontext() if budget is None else limit(budget):
        current = _run_pipeline(cfg, name, depth)
        results, csv_rows, status = _run_analyses(
            current, cfg.get("analyses", []), name, cfg["generators"][0]
        )
    out = cfg.get("out", {})
    if out.get("tree"):
        dump = dumps_tree if isinstance(current, DyadicTree) else dumps_grid
        _write_text(out["tree"], dump(current))
    payload = dumps_json({"name": name, "depth": depth, "results": results})
    _write_outputs(payload, csv_rows, args.json or out.get("json"), args.csv or out.get("csv"))
    return status


# -- verify --------------------------------------------------------------


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite)
    except KeyError as exc:
        raise SpecValidationError(str(exc.args[0])) from exc
    if args.json:
        sys.stdout.write(dumps_json({
            "suite": args.suite,
            "passed": all(r.passed for r in results),
            "criteria": [r.to_json() for r in results],
        }))
    else:
        for r in results:
            sys.stdout.write(r.line() + "\n")
    return 0 if all(r.passed for r in results) else 1


# -- wiring --------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="dimlab", description=__doc__)
    parser.add_argument("--budget-cells", type=int, default=None,
                        help="cap on memory-resident cells (or DIMLAB_BUDGET_CELLS)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a tree or grid product")
    gen.add_argument("--ifs", nargs="+", metavar="K=V", help="r=1/3 t=0,2/3 [span=1]")
    gen.add_argument("--moran", nargs="+", metavar="K=V", help="k=2 lengths=4^-j")
    gen.add_argument("--reciprocal", action="store_true")
    gen.add_argument("--semigroup", nargs="+", metavar="K=V", help="gens=1,1.5 bound=8")
    gen.add_argument("--spec", help="generator spec JSON file")
    gen.add_argument("--product", nargs="+", metavar="TREE", help="tree files to multiply")
    gen.add_argument("--depth", type=int, default=12)
    gen.add_argument("--out", default="-")
    gen.set_defaults(func=cmd_gen)

    sm = sub.add_parser("sum", help="index sumset of trees")
    sm.add_argument("inputs", nargs="+", metavar="TREE")
    sm.add_argument("--k", type=int, default=1, help="fold count for a single input")
    sm.add_argument("--level", type=int, default=None)
    sm.add_argument("--out", default="-")
    sm.add_argument("--report", default=None, help="write SumsetReport JSON here")
    sm.set_defaults(func=cmd_sum)

    df = sub.add_parser("diff", help="difference set of a tree")
    df.add_argument("input", metavar="TREE")
    df.add_argument("--level", type=int, default=None)
    df.add_argument("--out", default="-")
    df.add_argument("--report", default=None)
    df.set_defaults(func=cmd_diff)

    ds = sub.add_parser("dist", help="distance set of a grid set")
    ds.add_argument("input", metavar="GRID")
    ds.add_argument("--out", default="-")
    ds.set_defaults(func=cmd_dist)

    an = sub.add_parser("analyze", help="estimates, profiles, covering checks")
    an.add_argument("input", nargs="?", metavar="TREE|GRID")
    an.add_argument("--config", help="ExperimentConfig JSON file")
    an.add_argument("--depth", type=int, default=None, help="override config depth")
    an.add_argument("--box", action="append", metavar="NMIN,NMAX")
    an.add_argument("--assouad", action="append", type=int, metavar="M")
    an.add_argument("--lower", action="append", type=int, metavar="M")
    an.add_argument("--profile", action="append", metavar="EPS[,M[,N]]")
    an.add_argument("--covering-check", action="append", metavar="EPS[,M]")
    an.add_argument("--measure", choices=("counting", "splitting"), default="counting")
    an.add_argument("--json", default=None, help="write results JSON here ('-' stdout)")
    an.add_argument("--csv", default=None, help="write per-scale CSV here")
    an.set_defaults(func=cmd_analyze)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("suite")
    vf.add_argument("--json", action="store_true")
    vf.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with limit(_budget(args)):
            return args.func(args)
    except (SpecValidationError, FormatError) as exc:
        _emit_error("SPEC_INVALID", str(exc))
        return 2
    except ResourceLimitError as exc:
        _emit_error("RESOURCE_LIMIT", str(exc))
        return 3
    except HypothesisError as exc:
        _emit_error("HYPOTHESIS_FAILED", str(exc))
        return 1
    except (ValueError, KeyError) as exc:
        _emit_error("SPEC_INVALID", str(exc))
        return 2
    except OSError as exc:
        _emit_error("IO_ERROR", str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
