"""Deterministic verification suites for the headline finite-scale claims.

Each check is a frozen experiment: fixed seeds, fixed depths, fixed
tolerances, and a time budget, read on a monotonic clock, that is part of
the pass condition.
Suites bundle checks for the CLI; `all` runs every check once in order.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicTree, Vertex, covering_count
from .measures import (
    ATOMIC,
    classify_local,
    cond_entropy,
    counting_measure,
    covering_bounds_check,
    default_window,
    entropy,
    from_leaf_masses,
    local_entropy,
    scale_profile,
    splitting_measure,
)
from .generators import IfsSpec, MoranSpec, ifs_attractor, iterated_ifs, moran_tree, reciprocal_tree
from .arithmetic import (
    _difference_vectors,
    delta_dense_check,
    distance_set,
    grid_product,
    index_sumset,
    iterated_sumset,
)
from .dimension import assouad_estimate, assouad_slope, box_estimate, growth_experiment, lower_estimate

LOG2_3 = math.log(2) / math.log(3)
_SEED = 20260823


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    budget_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.runtime_s:.2f}s, budget {self.budget_s:.0f}s)"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "runtime_s": round(self.runtime_s, 3),
            "budget_s": self.budget_s,
            "details": self.details,
        }


def random_saturated_tree(rng: np.random.Generator, depth: int, p: float) -> DyadicTree:
    """Branching process: every vertex keeps its left child and keeps the
    right child with probability p, so the tree is saturated and nonempty."""
    idx = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        keep = rng.random(idx.size) < p
        idx = np.sort(np.concatenate([idx << 1, (idx[keep] << 1) | 1]))
    return DyadicTree.from_leaves(depth, 1, idx)


def random_leaf_measure(rng: np.random.Generator, tree: DyadicTree):
    masses = 0.1 + rng.random(tree.count(tree.max_depth))
    return from_leaf_masses(tree, masses)


CHECKS: dict[str, Callable[[], CriterionResult]] = {}


def _check(name: str, budget_s: float):
    """Register a body returning `(passed, details)` as check `name`, in
    definition order.  The check passes if the body passed in under
    `budget_s` seconds, read on the monotonic clock around it."""

    def register(body: Callable[[], tuple[bool, dict]]) -> Callable[[], CriterionResult]:
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            passed, details = body()
            runtime = time.perf_counter() - t0
            return CriterionResult(name, passed and runtime < budget_s, runtime, budget_s, details)

        CHECKS[name] = run
        return run

    return register


@_check("entropy-extremes", 1.0)
def check_entropy_extremes() -> tuple[bool, dict]:
    """Uniform measures hit log #A and point masses hit 0, to 1e-12."""
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 400))
        support = np.sort(rng.choice(1 << 10, size=k, replace=False))
        tree = DyadicTree.from_leaves(10, 1, support)
        mu = counting_measure(tree)
        worst = max(worst, abs(entropy(mu, 10) - math.log(k)))
    point = counting_measure(DyadicTree.from_leaves(10, 1, [731]))
    point_h = entropy(point, 10)
    ok = worst <= 1e-12 and point_h == 0.0
    return ok, {"max_abs_error": worst, "point_mass_entropy": point_h, "supports": 100}


@_check("chain-rules", 10.0)
def check_chain_rules() -> tuple[bool, dict]:
    """Telescoping and block chain rule to 1e-9 on 100 random measures."""
    rng = np.random.default_rng(_SEED + 1)
    depth = 16
    worst_tel = 0.0
    worst_block = 0.0
    for _ in range(100):
        tree = random_saturated_tree(rng, depth, 0.3 + 0.6 * rng.random())
        mu = random_leaf_measure(rng, tree)
        total = sum(cond_entropy(mu, i, i + 1) for i in range(depth))
        worst_tel = max(worst_tel, abs(total - entropy(mu, depth)))
        for _ in range(3):
            i = int(rng.integers(0, 12))
            m = int(rng.integers(1, min(5, depth - i) + 1))
            lhs = cond_entropy(mu, i, i + m)
            rhs = sum(
                mu.mass(Vertex(i, v)) * local_entropy(mu, Vertex(i, v), m)
                for v in tree.array(i).tolist()
            )
            worst_block = max(worst_block, abs(lhs - rhs))
    ok = worst_tel <= 1e-9 and worst_block <= 1e-9
    return ok, {"max_telescoping_error": worst_tel, "max_block_error": worst_block, "measures": 100}


@_check("entropy-covering", 60.0)
def check_entropy_covering() -> tuple[bool, dict]:
    """Every fired entropy-to-covering hypothesis has its conclusion hold,
    over 198 random depth-20 trees plus the full and single-chain extremes."""
    rng = np.random.default_rng(_SEED + 2)
    n = 20
    eps_grid = (0.05, 0.1, 0.2)
    trees = [random_saturated_tree(rng, n, 0.05 + 0.9 * rng.random()) for _ in range(198)]
    trees.append(DyadicTree.from_leaves(n, 1, np.arange(1 << n)))
    trees.append(DyadicTree.from_leaves(n, 1, [0]))
    fired = 0
    failures = 0
    checked = 0
    for tree in trees:
        mu = counting_measure(tree)
        for eps in eps_grid:
            prof = scale_profile(mu, eps, default_window(eps))
            rep = covering_bounds_check(tree, prof, n)
            checked += 1
            if rep.atomic_fired or rep.uniform_fired:
                fired += 1
            if not rep.ok:
                failures += 1
    ok = failures == 0 and fired > 0
    return ok, {"trees": len(trees), "checks": checked, "fired": fired, "failures": failures}


@_check("cantor-box", 10.0)
def check_cantor_box() -> tuple[bool, dict]:
    """Box and Assouad exponents of the middle-thirds set recover
    log 2/log 3, and lower <= box_lower <= box_upper <= assouad holds.

    Both exponent clauses compare a slope, not a single-scale value, since
    dyadic cells cover the ternary construction only up to a constant C
    near 2.  The box slope is taken over scales (16, 24).  The Assouad
    surrogate is the C = 1 value log2(max descendants)/m, so C biases it
    by log2(C)/m: at m = 12 it is 0.708, exactly the 362 cells under the
    root.  Its slope in m over (12, 24), from the check's m to the tree
    depth, drops the constant and is compared instead.  The raw m = 12
    value is still reported and still takes part in the ordering.
    """
    depth, m = 24, 12
    tree = ifs_attractor(IfsSpec(r=1 / 3, translations=(0.0, 2 / 3)), depth)
    bu = box_estimate(tree, 16, 24, "upper")
    bl = box_estimate(tree, 16, 24, "lower")
    ass = assouad_estimate(tree, m)
    ass_slope = assouad_slope(tree, m, depth)
    low = lower_estimate(tree, m)
    box_ok = abs(bu.slope - LOG2_3) <= 0.02
    ass_ok = abs(ass_slope - LOG2_3) <= 0.03
    order_ok = low.value <= bl.value <= bu.value <= ass.value
    return box_ok and ass_ok and order_ok, {
        "target": LOG2_3,
        "box_slope": bu.slope,
        "box_upper": bu.value,
        "box_lower": bl.value,
        "assouad": ass.value,
        "assouad_slope": ass_slope,
        "assouad_window": [m, depth],
        "lower": low.value,
        "box_ok": box_ok,
        "assouad_ok": ass_ok,
        "ordering_ok": order_ok,
    }


@_check("sumset-saturation", 5.0)
def check_sumset_saturation() -> tuple[bool, dict]:
    """Cantor + Cantor at depth 16 occupies the whole index-sum range."""
    c = ifs_attractor(IfsSpec(r=1 / 3, translations=(0.0, 2 / 3)), 16)
    s, rep = index_sumset(c, c, 16)
    want = np.arange(2 * (1 << 16) - 1)
    ok = np.array_equal(s.array(16), want)
    return ok, {"count": rep.count_exact, "expected": len(want)}


@_check("growth", 60.0)
def check_growth() -> tuple[bool, dict]:
    """Upper-box estimates of kF strictly increase and clear 0.95 by k=3;
    lower estimates are non-decreasing over k = 1..3."""
    spec = {"type": "moran", "k": 2, "lengths": "4^-j"}
    g3 = growth_experiment(spec, 3, 16)
    lows = [r.lower.value for r in g3.rows]
    ups = [r.box_upper.value for r in g3.rows]
    g4 = growth_experiment(spec, 4, 16)
    ok = (
        g3.strictly_increasing
        and ups[2] >= 0.95
        and all(a <= b for a, b in zip(lows, lows[1:]))
        and g4.strictly_increasing
    )
    return ok, {
        "box_upper": ups,
        "lower": lows,
        "strictly_increasing_k3": g3.strictly_increasing,
        "strictly_increasing_k4": g4.strictly_increasing,
        "box_upper_k4": [r.box_upper.value for r in g4.rows],
    }


@_check("reciprocal-density", 30.0)
def check_reciprocal_density() -> tuple[bool, dict]:
    """nF of the reciprocal set is cell-dense in [0, delta^(2^-n)] at
    delta = 2^-12, with covering counts matching dim >= 1 - 2^-n - 0.05."""
    depth = 12
    base = reciprocal_tree(depth)
    rows = []
    ok = True
    for n in (1, 2, 3):
        nf = iterated_sumset(base, n, depth)
        upper = 2.0 ** (-depth * 2.0 ** -n)
        dense = delta_dense_check(nf, depth, upper)
        hi = int(upper * (1 << depth))
        n_win = int(np.searchsorted(nf.array(depth), hi, side="right"))
        est = math.log2(n_win) / depth
        need = 1.0 - 2.0 ** -n - 0.05
        rows.append({"n": n, "upper": upper, "dense": dense, "cells_in_window": n_win,
                     "dim_proxy": est, "need": need})
        ok = ok and dense and est >= need
    return ok, {"rows": rows}


@_check("ifs-interval", 30.0)
def check_ifs_interval() -> tuple[bool, dict]:
    """kPhi fills [0, k) at depth 14 for k = ceil((1-r)/r); one fold fewer
    at r=1/4 must not fill."""
    details = {}
    ok = True
    for r, k in ((1 / 3, 2), (1 / 4, 3)):
        spec = iterated_ifs(IfsSpec(r=r, translations=(0.0, 1.0 - r)), k)
        tree = ifs_attractor(spec, 14)
        full = tree.count(14) == k << 14
        details[f"r={r:.4g},k={k}"] = {"count": tree.count(14), "capacity": k << 14, "full": full}
        ok = ok and full
    spec = iterated_ifs(IfsSpec(r=1 / 4, translations=(0.0, 0.75)), 2)
    tree = ifs_attractor(spec, 14)
    not_full = tree.count(14) < 2 << 14
    details["r=0.25,k=2"] = {"count": tree.count(14), "capacity": 2 << 14, "full": not not_full}
    ok = ok and not_full
    return ok, details


@_check("distance-set", 60.0)
def check_distance_set() -> tuple[bool, dict]:
    """Distance set of the planar Cantor dust keeps at least half the
    Assouad and box exponents of the dust, minus 0.05."""
    c = ifs_attractor(IfsSpec(r=1 / 3, translations=(0.0, 2 / 3)), 10)
    dust = grid_product([c, c])
    dist = distance_set(dust)
    _, seen, product = _difference_vectors(dust)
    a_f = assouad_estimate(dust, 6)
    a_d = assouad_estimate(dist, 6)
    b_f = box_estimate(dust, 5, 10, "upper")
    b_d = box_estimate(dist, 5, 10, "upper")
    ass_ok = a_d.value >= a_f.value / 2 - 0.05
    box_ok = b_d.value >= b_f.value / 2 - 0.05
    return ass_ok and box_ok, {
        "dust_cells": len(dust.array()),
        "vectors": int(np.count_nonzero(seen)),
        "product": product,
        "assouad_F": a_f.value,
        "assouad_D": a_d.value,
        "box_F": b_f.value,
        "box_D": b_d.value,
    }


@_check("moran-measure", 10.0)
def check_moran_measure() -> tuple[bool, dict]:
    """Splitting measures on branching-aligned Moran trees are never
    (0.25, 4)-atomic at any vertex up to depth 16."""
    m = 4
    eps = 0.25
    rows = []
    ok = True
    for k, lengths in ((2, "4^-j"), (4, "8^-j"), (8, "16^-j")):
        tree = moran_tree(MoranSpec(k, lengths), 16)
        mu = splitting_measure(tree)
        worst = math.inf
        atomic = 0
        for level in range(0, tree.max_depth - m + 1):
            for idx in tree.array(level).tolist():
                v = Vertex(level, idx)
                if classify_local(mu, v, eps, m) == ATOMIC:
                    atomic += 1
                worst = min(worst, local_entropy(mu, v, m) / (m * math.log(2)))
        rows.append({"k": k, "lengths": lengths, "atomic_vertices": atomic, "min_avg_entropy": worst})
        ok = ok and atomic == 0
    return ok, {"eps": eps, "m": m, "rows": rows}


@_check("counting-bracket", 30.0)
def check_counting_bracket() -> tuple[bool, dict]:
    """Exact index-sum counts sit in [N/2, 2N] around the oracle covering
    count of the true sumset, for common-ratio IFS pairs."""
    pairs = [
        (IfsSpec(r=1 / 3, translations=(0.0, 2 / 3)), IfsSpec(r=1 / 3, translations=(0.0, 2 / 3))),
        (IfsSpec(r=1 / 4, translations=(0.0, 0.75)), IfsSpec(r=1 / 4, translations=(0.0, 0.75))),
        (IfsSpec(r=1 / 3, translations=(0.0, 2 / 3)), IfsSpec(r=1 / 3, translations=(0.0, 1 / 3, 2 / 3))),
        (IfsSpec(r=1 / 5, translations=(0.0, 0.8)), IfsSpec(r=1 / 5, translations=(0.0, 0.4, 0.8))),
    ]
    rows = []
    ok = True
    for a, b in pairs:
        for depth in (8, 10, 12):
            sum_tree, rep = index_sumset(ifs_attractor(a, depth), ifs_attractor(b, depth), depth)
            sums = sorted({x + y for x in a.translations for y in b.translations})
            oracle = ifs_attractor(IfsSpec(r=a.r, translations=tuple(sums), span=a.span + b.span), depth)
            n_true = covering_count(oracle, depth)
            holds = n_true / 2 <= rep.count_exact <= 2 * n_true
            rows.append({"r": a.r, "maps": (len(a.translations), len(b.translations)),
                         "depth": depth, "count": rep.count_exact, "oracle": n_true, "holds": holds})
            ok = ok and holds
    return ok, {"pairs": rows}


SUITES = {name: (name,) for name in CHECKS}
SUITES["entropy-lemmas"] = ("entropy-extremes", "chain-rules", "entropy-covering")
SUITES["all"] = tuple(CHECKS)


def run_suite(suite: str) -> list[CriterionResult]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(sorted(SUITES))}")
    return [CHECKS[name]() for name in SUITES[suite]]
