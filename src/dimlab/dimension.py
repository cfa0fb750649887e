"""Finite-scale dimension estimators over dyadic trees and grid sets.

Box estimates report per-scale exponents e_n = log2(N_n / span^d) / n over a
window, taking max (upper variant) or min (lower variant); a least-squares
slope is attached as auxiliary data only.  Assouad and lower estimates scan
every occupied vertex with a fixed window length m and report the extreme
local branching exponent log2(descendants) / m, i.e. the C = 1 surrogate of
the covering definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dyadic import DyadicTree, _check_grid
from .arithmetic import GridSetD, index_sumset
from .budget import charge
from .generators import build_tree

GridLike = Union[DyadicTree, GridSetD]

SATURATION_TOL = 0.05


@dataclass(frozen=True)
class DimEstimate:
    """kind: box_upper | box_lower | assouad | lower.  window is (n_min,
    n_max) for box kinds and (0, m) for local kinds.  per_scale holds the
    (scale, log2 normalized count) pairs the value was taken from."""

    kind: str
    value: float
    window: tuple[int, int]
    per_scale: tuple[tuple[int, float], ...]
    slope: float | None = None

    def to_json(self, name: str | None = None) -> dict:
        row = {
            "kind": self.kind,
            "value": self.value,
            "window": list(self.window),
            "per_scale": [[int(n), float(v)] for n, v in self.per_scale],
        }
        if self.slope is not None:
            row["slope"] = self.slope
        if name is not None:
            row["set"] = name
        return row


def _dims_of(obj: GridLike) -> tuple[int, int, int]:
    """(depth, span, d) of either a tree or a grid set."""
    if isinstance(obj, DyadicTree):
        return obj.max_depth, obj.span, 1
    return obj.depth, obj.span, obj.dimension


def box_estimate(
    obj: GridLike, n_min: int, n_max: int, variant: str = "upper"
) -> DimEstimate:
    """Extreme per-scale exponent over the window [n_min, n_max]."""
    depth, span, d = _dims_of(obj)
    if not 1 <= n_min <= n_max <= depth:
        raise ValueError(f"window ({n_min}, {n_max}) not inside [1, {depth}]")
    if variant not in ("upper", "lower"):
        raise ValueError(f"variant must be upper or lower, got {variant!r}")
    norm = d * math.log2(span)
    scales = []
    for n in range(n_min, n_max + 1):
        count = obj.count(n)
        if count == 0:
            raise ValueError("empty set has no box estimate")
        scales.append((n, math.log2(count) - norm))
    exps = [v / n for n, v in scales]
    value = max(exps) if variant == "upper" else min(exps)
    slope = None
    if len(scales) > 1:
        slope = float(np.polyfit([n for n, _ in scales], [v for _, v in scales], 1)[0])
    return DimEstimate(f"box_{variant}", value, (n_min, n_max), tuple(scales), slope)


def _local_estimate(obj: GridLike, m: int, kind: str, reduce) -> DimEstimate:
    """Per parent level, the extreme log2 descendant count over all occupied
    vertices with a full m-level window below them; the value is the
    extreme of those over m."""
    depth, _, _ = _dims_of(obj)
    if not 1 <= m <= depth:
        raise ValueError(f"window m={m} not inside [1, {depth}]")
    if obj.count(depth) == 0:
        raise ValueError(f"empty set has no {kind} estimate")
    scales = tuple(
        (k, math.log2(int(reduce(obj.descendant_counts(k, m))))) for k in range(depth - m + 1)
    )
    return DimEstimate(kind, float(reduce([v for _, v in scales])) / m, (0, m), scales)


def assouad_estimate(obj: GridLike, m: int) -> DimEstimate:
    """Max local branching exponent over all occupied vertices."""
    return _local_estimate(obj, m, "assouad", np.max)


def assouad_slope(obj: GridLike, m_min: int, m_max: int) -> float:
    """Least-squares slope in m of m * assouad_estimate(obj, m).value, the
    log2 of the largest descendant count, over m in [m_min, m_max].

    A covering constant C biases each C = 1 surrogate value by log2(C) / m;
    in the log2 count it is an additive log2(C), which the slope drops."""
    if not 1 <= m_min < m_max:
        raise ValueError(f"window ({m_min}, {m_max}) needs 1 <= m_min < m_max")
    ms = range(m_min, m_max + 1)
    logs = [m * assouad_estimate(obj, m).value for m in ms]
    return float(np.polyfit(list(ms), logs, 1)[0])


def lower_estimate(obj: GridLike, m: int) -> DimEstimate:
    """Min local branching exponent over all occupied vertices."""
    return _local_estimate(obj, m, "lower", np.min)


# -- dimension growth under repeated sums --------------------------------


@dataclass(frozen=True)
class GrowthRow:
    k: int
    box_upper: DimEstimate
    box_lower: DimEstimate
    assouad: DimEstimate
    lower: DimEstimate

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "box_upper": self.box_upper.value,
            "box_lower": self.box_lower.value,
            "assouad": self.assouad.value,
            "lower": self.lower.value,
        }


@dataclass(frozen=True)
class GrowthTable:
    rows: tuple[GrowthRow, ...]
    strictly_increasing: bool
    saturation_tol: float
    depth: int
    window: tuple[int, int]
    m: int

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "strictly_increasing": self.strictly_increasing,
            "saturation_tol": self.saturation_tol,
            "depth": self.depth,
            "window": list(self.window),
            "m": self.m,
        }

    def csv_rows(self) -> list[str]:
        out = ["k,box_upper,box_lower,assouad,lower"]
        for r in self.rows:
            out.append(
                f"{r.k},{r.box_upper.value:.6f},{r.box_lower.value:.6f},"
                f"{r.assouad.value:.6f},{r.lower.value:.6f}"
            )
        return out


def growth_experiment(gen_spec, k_max: int, depth: int) -> GrowthTable:
    """Estimates for the k-fold index sumset, k = 1..k_max, over the box
    window [max(1, depth // 2), depth] and the local window m =
    max(1, depth // 2).

    The strictly_increasing flag requires each upper-box step to increase
    until the estimate sits within SATURATION_TOL of 1; past that point
    further growth is not demanded.
    """
    if k_max < 2:
        raise ValueError(f"k_max={k_max} must be >= 2")
    charge(k_max, "growth rows")
    base = build_tree(gen_spec, depth)
    _check_grid(depth, k_max * base.span)
    m = max(1, depth // 2)
    window = (m, depth)
    rows = []
    for k in range(1, k_max + 1):
        tree = base if k == 1 else index_sumset(tree, base, depth)[0]  # kA = (k-1)A + A
        rows.append(
            GrowthRow(
                k,
                box_estimate(tree, window[0], window[1], "upper"),
                box_estimate(tree, window[0], window[1], "lower"),
                assouad_estimate(tree, m),
                lower_estimate(tree, m),
            )
        )
    increasing = True
    for prev, cur in zip(rows, rows[1:]):
        if prev.box_upper.value >= 1.0 - SATURATION_TOL:
            break
        if cur.box_upper.value <= prev.box_upper.value:
            increasing = False
            break
    return GrowthTable(tuple(rows), increasing, SATURATION_TOL, depth, window, m)
