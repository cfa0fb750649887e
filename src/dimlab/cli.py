"""Command-line driver: generate, combine, and analyze dyadic-grid sets.

Exit codes: 0 ok, 1 criterion failure, 2 usage or validation, 3 resource
limit.  Errors are emitted as one-line JSON objects on standard error so
scripted experiments can branch on the code field.  All file writes are
atomic and byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from .budget import DEFAULT_CELLS, limit
from .dyadic import DyadicTree
from .errors import (
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
    grid_product,
    index_sumset,
    iterated_sumset,
    SumsetReport,
)
from .dimension import assouad_estimate, box_estimate, growth_experiment, lower_estimate
from .io import _check_keys, _is_int, atomic_write_text, dumps_grid, dumps_json, dumps_tree, load_any, load_grid, load_tree
from .verify import run_suite

_MEASURES = {"counting": counting_measure, "splitting": splitting_measure}
# the fields of each config analysis besides "kind"
_ANALYSIS_FIELDS = {
    "box": ("window",),
    "assouad": ("m",),
    "lower": ("m",),
    "growth": ("k_max",),
    "profile": ("eps", "measure", "m", "n"),
    "covering-check": ("eps", "measure", "m"),
}
_CONFIG_KEYS = ("name", "depth", "budget_cells", "generators", "pipeline", "analyses", "out")


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


def _kv(tokens: list[str], what: str, required: tuple[str, str], optional=()) -> dict[str, str]:
    """A generator flag's key=value tokens: both `required` keys, any `optional` ones."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise SpecValidationError(f"{what}: expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        out[key] = val
    _check_keys(out, (*required, *optional), what)
    if not all(key in out for key in required):
        raise SpecValidationError(f"{what} needs {required[0]}=... and {required[1]}=...")
    return out


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


# -- gen -----------------------------------------------------------------


def _spec_from_args(args):
    chosen = [name for name in ("ifs", "moran", "reciprocal", "semigroup", "spec", "product")
              if getattr(args, name)]
    if len(chosen) != 1:
        raise SpecValidationError(
            f"gen needs exactly one of --ifs/--moran/--reciprocal/--semigroup/--spec/--product, got {chosen or 'none'}"
        )
    kind = chosen[0]
    if kind == "product":
        if args.depth is not None:
            raise SpecValidationError("gen --product takes no --depth: the trees set it")
        return None
    if kind == "ifs":
        kv = _kv(args.ifs, "--ifs", ("r", "t"), ("span",))
        spec = {"type": "ifs", "r": kv["r"],
                "translations": [t for t in kv["t"].split(",") if t]}
        if "span" in kv:
            spec["span"] = int(kv["span"])
        return spec_from_json(spec)
    if kind == "moran":
        kv = _kv(args.moran, "--moran", ("k", "lengths"))
        lengths = kv["lengths"]
        if "," in lengths:
            lengths = [x for x in lengths.split(",") if x]
        return spec_from_json({"type": "moran", "k": int(kv["k"]), "lengths": lengths})
    if kind == "reciprocal":
        return spec_from_json({"type": "reciprocal"})
    if kind == "semigroup":
        kv = _kv(args.semigroup, "--semigroup", ("gens", "bound"))
        gens = [g for g in kv["gens"].split(",") if g]
        return spec_from_json({"type": "semigroup", "generators": gens, "bound": int(kv["bound"])})
    with open(args.spec, "r", encoding="utf-8") as fh:
        return spec_from_json(json.load(fh))


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    if args.product:
        trees = [load_tree(p) for p in args.product]
        _write_text(args.out, dumps_grid(grid_product(trees)))
        return 0
    tree = build_tree(spec, 12 if args.depth is None else args.depth)
    _write_text(args.out, dumps_tree(tree))
    return 0


# -- sum / diff / dist ---------------------------------------------------


def _level(args, trees: list[DyadicTree]) -> int:
    """--level, else the least input depth D; array() refuses one outside 0..D."""
    shallow = min(trees, key=lambda t: t.max_depth)
    level = shallow.max_depth if args.level is None else args.level
    shallow.array(level)
    return level


def cmd_sum(args) -> int:
    if len(args.inputs) > 2:
        raise SpecValidationError("sum takes one or two input trees")
    if len(args.inputs) == 2 and args.k != 1:
        raise SpecValidationError("--k applies to a single input only")
    trees = [load_tree(p) for p in args.inputs]
    level = _level(args, trees)
    if len(trees) == 2:
        out, report = index_sumset(trees[0], trees[1], level)
    else:
        out = iterated_sumset(trees[0], args.k, level)
        count = out.count(level)
        report = SumsetReport(level, count, (count / 2.0, 2.0 * count))
    if any(t.is_empty() for t in trees):
        _emit_error("EMPTY_INPUT", "an input tree is empty; output is empty")
    _write_text(args.out, dumps_tree(out))
    if args.report:
        _write_text(args.report, dumps_json({**report.to_json(), "k": args.k, "inputs": len(trees)}))
    return 0


def cmd_diff(args) -> int:
    tree = load_tree(args.input)
    level = _level(args, [tree])
    out, offset = difference_set(tree, level)
    _write_text(args.out, dumps_tree(out))
    if args.report:
        _write_text(args.report, dumps_json({"level": level, "offset": offset,
                                             "count": out.count(level)}))
    return 0


def cmd_dist(args) -> int:
    _write_text(args.out, dumps_tree(distance_set(load_grid(args.input))))
    return 0


# -- analyze -------------------------------------------------------------


def _flag_analyses(args) -> list[dict]:
    """The --box/--assouad/--lower/--profile/--covering-check flags in the
    config `analyses` form, in the order their results are emitted."""
    reqs = []
    for spec in args.box or []:
        if spec.count(",") != 1:
            raise SpecValidationError(f"--box expects two comma-separated integers, got {spec!r}")
        reqs.append({"kind": "box", "window": [int(n) for n in spec.split(",")]})
    reqs += [{"kind": kind, "m": m} for kind in ("assouad", "lower") for m in getattr(args, kind) or []]
    for kind, specs in (("profile", args.profile), ("covering-check", args.covering_check)):
        for spec in specs or []:
            parts = [p for p in spec.split(",") if p]
            if not parts:
                raise SpecValidationError(f"--{kind} needs EPS, got {spec!r}")
            req = {"kind": kind, "eps": float(parts[0]), "measure": args.measure or "counting"}
            if len(parts) > 1:
                req["m"] = int(parts[1])
            if len(parts) > 2 and kind == "profile":
                req["n"] = int(parts[2])
            reqs.append(req)
    return reqs


def _analysis(req, label: str, depth: int, is_tree: bool) -> dict:
    """A config-form analysis request, checked, with every default filled in;
    m defaults to default_window(eps) for a profile or covering check."""
    kind = _json_type(req, dict, f"{label}: analysis").get("kind")
    if not isinstance(kind, str) or kind not in _ANALYSIS_FIELDS:
        raise SpecValidationError(f"{label}: unknown analysis kind {kind!r}")
    _check_keys(req, ("kind", *_ANALYSIS_FIELDS[kind]), f"{label}: {kind} analysis")
    half = max(1, depth // 2)
    full = {"window": [half, depth], "m": half, "k_max": 3, "measure": "counting",
            "eps": 0.1, "n": None, **req}
    if kind in ("profile", "covering-check"):
        if not is_tree:
            raise SpecValidationError(f"{label}: {kind} needs a 1-d tree")
        if not isinstance(full["measure"], str) or full["measure"] not in _MEASURES:
            raise SpecValidationError(f"{label}: unknown measure {full['measure']!r}")
        if not isinstance(full["eps"], (int, float)) or isinstance(full["eps"], bool):
            raise SpecValidationError(f"{label}: {kind} eps must be a number")
        full["eps"] = float(full["eps"])
        full["m"] = req.get("m", default_window(full["eps"]))
    if kind == "box" and not (isinstance(full["window"], list) and len(full["window"]) == 2
                              and all(map(_is_int, full["window"]))):
        raise SpecValidationError(f"{label}: box window must be two integers")
    for key in ("m", "k_max", "n"):
        if key in _ANALYSIS_FIELDS[kind] and not (_is_int(full[key]) or key == "n" and full[key] is None):
            raise SpecValidationError(f"{label}: {kind} {key} must be an integer")
    return full


def _run_analyses(obj, reqs: list[dict], label: str, depth: int,
                  base_spec) -> tuple[list[dict], list[str], int]:
    """Run checked analysis requests on a tree or grid set.  Returns the
    result rows, the per-scale CSV lines and the exit status (1 when a
    covering check fails).  `growth` runs on `base_spec`, not on obj."""
    results: list[dict] = []
    csv_rows = ["scale,log2_count"]
    measure_of = functools.cache(lambda name: _MEASURES[name](obj))
    status = 0
    for req in reqs:
        kind = req["kind"]
        if kind == "box":
            upper, lower = (box_estimate(obj, *req["window"], v) for v in ("upper", "lower"))
            results += [upper.to_json(label), lower.to_json(label)]
            csv_rows += [f"{n},{logc:.6f}" for n, logc in upper.per_scale]
        elif kind in ("assouad", "lower"):
            estimate = assouad_estimate if kind == "assouad" else lower_estimate
            results.append(estimate(obj, req["m"]).to_json(label))
        elif kind == "growth":
            table = growth_experiment(base_spec, req["k_max"], depth)
            results.append({"kind": "growth", "set": label, **table.to_json()})
        else:
            prof = scale_profile(measure_of(req["measure"]), req["eps"], req["m"], req["n"])
            if kind == "profile":
                results.append({"kind": "profile", "set": label, **prof.to_json()})
            else:
                rep = covering_bounds_check(obj, prof, depth)
                results.append({"kind": "covering-check", "set": label, **rep.to_json()})
                status |= not rep.ok
    return results, csv_rows, status


def _write_outputs(envelope: dict, results: list[dict], csv_rows: list[str], json_path, csv_path) -> None:
    _write_text(json_path or "-", dumps_json({**envelope, "results": results}))
    if csv_path:
        _write_text(csv_path, "\n".join(csv_rows) + "\n")


def cmd_analyze(args) -> int:
    flags = [args.input] if args.input else []
    flags += [f"--{name}" for name in (*_ANALYSIS_FIELDS, "measure")
              if name != "growth" and getattr(args, name.replace("-", "_"))]
    if args.config:
        if flags:
            raise SpecValidationError(f"analyze --config takes no input file or analysis flag, got {flags}")
        return _run_config(args)
    if not args.input:
        raise SpecValidationError("analyze needs an input file or --config")
    if args.depth is not None:
        raise SpecValidationError("analyze --depth applies to --config only")
    obj = load_any(args.input)
    is_tree = isinstance(obj, DyadicTree)
    depth = obj.max_depth if is_tree else obj.depth
    reqs = [_analysis(req, args.input, depth, is_tree) for req in _flag_analyses(args)]
    results, csv_rows, status = _run_analyses(obj, reqs, args.input, depth, None)
    _write_outputs({"input": args.input}, results, csv_rows, args.json, args.csv)
    return status


def _json_type(value, kind: type, what: str):
    """value, which must be a JSON object (kind dict) or array (kind list)."""
    if not isinstance(value, kind):
        raise SpecValidationError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def _stages(pipeline, name: str, n_generators: int) -> tuple[list[tuple[str, int]], bool]:
    """The checked (op, k) stages, and whether the last one ends on a tree."""
    stages, is_tree = [], True
    for stage in _json_type(pipeline, list, f"config {name}: pipeline"):
        op = _json_type(stage, dict, f"config {name}: pipeline stage").get("op")
        if op not in ("sum", "iterate", "difference", "product", "distance"):
            raise SpecValidationError(f"config {name}: unknown pipeline op {op!r}")
        _check_keys(stage, ("op", "k") if op == "iterate" else ("op",), f"config {name}: {op} stage")
        if (op == "distance") == is_tree:
            need = "a product grid" if op == "distance" else "a 1-d tree"
            raise SpecValidationError(f"config {name}: {op} needs {need}")
        if op == "sum" and n_generators < 2:
            raise SpecValidationError(f"config {name}: sum needs two generators")
        k = stage.get("k", 2)
        if not _is_int(k):
            raise SpecValidationError(f"config {name}: iterate k must be an integer")
        stages.append((op, k))
        is_tree = op != "product"  # only product makes a grid, and only distance takes one
    return stages, is_tree


def _run_pipeline(specs: list, stages: list[tuple[str, int]], depth: int) -> DyadicTree | GridSetD:
    """Build the generator trees and run the stages on the first; `sum` and
    `product` combine the current stage with the other generators."""
    trees = [build_tree(spec, depth) for spec in specs]
    current: DyadicTree | GridSetD = trees[0]
    for op, k in stages:
        if op == "sum":
            current, _ = index_sumset(current, trees[1], depth)
        elif op == "iterate":
            current = iterated_sumset(current, k, depth)
        elif op == "difference":
            current, _ = difference_set(current, depth)
        elif op == "product":
            current = grid_product([current, *trees[1:]])
        else:
            current = distance_set(current)
    return current


def _run_config(args) -> int:
    """Check the whole config, then run it."""
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = _json_type(json.load(fh), dict, "config")
    name = cfg.get("name", "experiment")
    _check_keys(cfg, _CONFIG_KEYS, f"config {name}")
    depth = args.depth if args.depth is not None else cfg.get("depth")
    if not _is_int(depth) or depth < 1:
        raise SpecValidationError(f"config {name}: depth must be a positive integer")
    budget = cfg.get("budget_cells")
    if budget is not None and not _is_int(budget):
        raise SpecValidationError(f"config {name}: budget_cells must be an integer")
    out = {"tree": None, "json": None, "csv": None,
           **_json_type(cfg.get("out", {}), dict, f"config {name}: out")}
    _check_keys(out, ("tree", "json", "csv"), f"config {name}: out")
    for key in ("tree", "json", "csv"):
        if out[key] is not None and not isinstance(out[key], str):
            raise SpecValidationError(f"config {name}: out {key} must be a path string")
    gens = _json_type(cfg.get("generators") or [], list, f"config {name}: generators")
    if not gens:
        raise SpecValidationError(f"config {name}: no generators")
    specs = [spec_from_json(g) for g in gens]
    stages, is_tree = _stages(cfg.get("pipeline", []), name, len(specs))
    reqs = [_analysis(req, name, depth, is_tree)
            for req in _json_type(cfg.get("analyses", []), list, f"config {name}: analyses")]
    with nullcontext() if budget is None else limit(budget):
        current = _run_pipeline(specs, stages, depth)
        results, csv_rows, status = _run_analyses(current, reqs, name, depth, specs[0])
    if out["tree"]:
        _write_text(out["tree"], (dumps_tree if is_tree else dumps_grid)(current))
    _write_outputs({"name": name, "depth": depth}, results, csv_rows,
                   args.json or out["json"], args.csv or out["csv"])
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


@functools.cache
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
    gen.add_argument("--depth", type=int, default=None, help="default 12; not with --product")
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
    an.add_argument("--measure", choices=("counting", "splitting"), help="default counting")
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
