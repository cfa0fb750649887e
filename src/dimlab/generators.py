"""Generators for the dyadic trees the experiments run on.

All generators produce exact discretizations: a cell is occupied iff it
meets the generated set.  For attractors this relies on tracking the convex
hull of the set inside every refinement interval, so interval endpoints are
always points of the set; once intervals are shorter than one cell, a cell
meeting an interval must contain one of its endpoints.

The attractor and Moran generators refine a whole generation at a time as
float64 arrays, and build the same trees, bit for bit, as refining one
interval at a time: each image r * a + t and each left p + i * step is the
same elementwise IEEE operation, np.lexsort((b, a)) orders pieces as Python
sorts (a, b) tuples whatever order they were formed in, and cells are placed
as cell_of places them, since x * 2^depth is exact and astype(int64)
truncates a non-negative x as int() does.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arithmetic import _sum_indices
from .dyadic import (
    DyadicTree, Vertex, _check_grid, _dedupe_sorted, _expand_runs, cell_of, descendant_range
)
from .budget import charge
from .errors import HypothesisError, SpecValidationError
from .io import _check_keys, _is_int

_SEP_TOL = 1e-9
_DUP_TOL = 1e-12


def _as_float(value) -> float:
    """Accept numbers or fraction strings like '1/3'."""
    if isinstance(value, str):
        return float(Fraction(value))
    return float(value)


def _spec_int(value, field: str, kind: str) -> int:
    """A spec's integer field; booleans and non-integers raise."""
    if not _is_int(value):
        raise SpecValidationError(f"{kind} spec field {field!r} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class IfsSpec:
    """A homogeneous family {x -> r x + t : t in translations} on [0, span]."""

    r: float
    translations: tuple[float, ...]
    span: int = 1

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise SpecValidationError(f"contraction ratio r={self.r} outside (0, 1)")
        if isinstance(self.span, bool) or not isinstance(self.span, (int, np.integer)) or self.span < 1:
            raise SpecValidationError(f"span must be a positive integer, got {self.span}")
        ts = tuple(sorted(float(t) for t in self.translations))
        if not ts:
            raise SpecValidationError("at least one translation required")
        hi = self.span * (1.0 - self.r)
        for t in ts:
            if not -_DUP_TOL <= t <= hi + _SEP_TOL:
                raise SpecValidationError(
                    f"translation {t} outside [0, span(1-r)] = [0, {hi}]"
                )
        for a, b in zip(ts, ts[1:]):
            if b - a <= _DUP_TOL * max(1.0, self.span):
                raise SpecValidationError(f"duplicate translations near {a}")
        object.__setattr__(self, "translations", ts)

    @property
    def strong_separation(self) -> bool:
        """Whether the closed images of [0, span] are pairwise disjoint."""
        gap = self.r * self.span
        return all(b - a > gap + _SEP_TOL for a, b in zip(self.translations, self.translations[1:]))

    def hull(self) -> tuple[float, float]:
        """Convex hull of the attractor: fixed points of the extreme maps."""
        return (
            self.translations[0] / (1.0 - self.r),
            self.translations[-1] / (1.0 - self.r),
        )


def iterated_ifs(spec: IfsSpec, k: int) -> IfsSpec:
    """The family whose attractor is the k-fold sumset of spec's attractor:
    same ratio, k-fold sumset of translations, span scaled to k * span."""
    if k < 1:
        raise SpecValidationError(f"fold count k={k} must be >= 1")
    sums = set(spec.translations)
    for _ in range(k - 1):
        charge(len(sums) * len(spec.translations), "translation sumset")
        sums = {a + t for a in sums for t in spec.translations}
    merged: list[float] = []
    for t in sorted(sums):
        # collapse float near-duplicates from different addition orders
        if merged and t - merged[-1] <= _DUP_TOL * max(1.0, k * spec.span):
            continue
        merged.append(t)
    return IfsSpec(spec.r, tuple(merged), spec.span * k)


def _interval_cells(lo: np.ndarray, hi: np.ndarray, depth: int, span: int) -> np.ndarray:
    """The cells meeting each closed interval [lo[i], hi[i]] of [0, span],
    in interval order, each endpoint placed as cell_of places it.  The
    cells are charged before they are expanded."""
    ends = np.column_stack((lo, hi)).ravel()
    outside = ~((ends >= 0) & (ends <= span))
    if outside.any():
        raise ValueError(f"x={float(ends[outside.argmax()])!r} outside [0, {span}]")
    cells = np.minimum((ends * float(1 << depth)).astype(np.int64), (span << depth) - 1)
    lengths = cells[1::2] - cells[::2] + 1
    charge(int(lengths.sum()), "interval cells")
    return _expand_runs(cells[::2], lengths)


def ifs_attractor(spec: IfsSpec, depth: int) -> DyadicTree:
    """Discretize the attractor to the given depth.

    Refines hull images until the unmerged piece length drops below one
    cell, then marks every cell meeting a closed piece; both ends are
    clamped into [0, span].  Each round merges the sorted pieces by a
    running maximum of right ends: a piece opens a new interval where its
    left end passes the maximum before it, which is exactly where a merge
    walking the pieces one by one closes one.
    """
    _check_grid(depth, spec.span)
    lo, hi = spec.hull()
    a, b = np.array([lo]), np.array([hi])
    ts = np.array(spec.translations)
    length = hi - lo
    target = 2.0 ** -depth
    while length >= target and length > 0.0:
        charge(a.size * ts.size, "attractor refinement")
        # translation-major, so each map's images form one sorted run
        a, b = (spec.r * a + ts[:, None]).ravel(), (spec.r * b + ts[:, None]).ravel()
        order = np.lexsort((b, a))
        a, reach = a[order], np.maximum.accumulate(b[order])
        new = np.append(True, a[1:] > reach[:-1])
        a, b = a[new], reach[np.append(new[1:], True)]
        length *= spec.r
    cells = _interval_cells(np.clip(a, 0.0, spec.span), np.clip(b, 0.0, spec.span), depth, spec.span)
    return DyadicTree.from_leaves(depth, spec.span, cells)


@dataclass(frozen=True)
class MoranSpec:
    """Leftmost-packed construction: each generation-j interval holds
    `branching` children of length lengths[j], separated by gaps equal to
    the child length (child, gap, child, gap, ...)."""

    branching: int
    lengths: str | tuple[float, ...]

    def __post_init__(self):
        if self.branching < 1:
            raise SpecValidationError(f"branching k={self.branching} must be >= 1")
        need = 2 * self.branching - 1
        if isinstance(self.lengths, str):
            m = re.fullmatch(r"(\d+(?:\.\d+)?)\^-j", self.lengths.strip())
            if not m:
                raise SpecValidationError(
                    f"lengths string {self.lengths!r} not of the form 'c^-j'"
                )
            c = float(m.group(1))
            if c <= 1.0:
                raise SpecValidationError(f"geometric base c={c} must exceed 1")
            if need > c:
                raise SpecValidationError(
                    f"infeasible: {self.branching} children with equal gaps need base >= {need}"
                )
        else:
            ls = tuple(float(x) for x in self.lengths)
            if not ls:
                raise SpecValidationError("empty length list")
            prev = 1.0
            for j, l in enumerate(ls, start=1):
                if not 0.0 < l:
                    raise SpecValidationError(f"length l_{j}={l} must be positive")
                if need * l > prev * (1.0 + 1e-12):
                    raise SpecValidationError(
                        f"infeasible at generation {j}: {need} * {l} > {prev}"
                    )
                prev = l
            object.__setattr__(self, "lengths", ls)

    def length(self, j: int) -> float:
        """l_j, 1-based."""
        if isinstance(self.lengths, str):
            c = float(self.lengths.split("^")[0])
            return c ** -j
        if j > len(self.lengths):
            raise SpecValidationError(
                f"length list has {len(self.lengths)} entries; generation {j} undefined"
            )
        return self.lengths[j - 1]

    def tail_extent(self, g: int) -> float:
        """sup(F cap I) - inf(F cap I) over a generation-g interval I.

        Geometric lengths: the closed-form tail sum.  Explicit lists define
        the set as the final-generation interval union, so the recursion
        bottoms out at the last listed generation.
        """
        gap = 2 * (self.branching - 1)
        if isinstance(self.lengths, str):
            c = float(self.lengths.split("^")[0])
            return gap * c ** -g / (c - 1.0)
        if g >= len(self.lengths):
            return self.lengths[-1] if g == len(self.lengths) else 0.0
        u = self.lengths[-1]
        for j in range(len(self.lengths) - 1, g, -1):
            u = gap * self.lengths[j - 1] + u
        return u


def moran_tree(spec: MoranSpec, depth: int) -> DyadicTree:
    """Discretize the Moran set to the given depth (span 1).  Each
    generation is one broadcast: the lefts p + i * step, i < k, of every
    parent left p, in parent order, as a loop over the parents forms them."""
    _check_grid(depth, 1)
    lefts = np.zeros(1)
    g = 0
    length = 1.0
    target = 2.0 ** -depth
    while length >= target:
        if not isinstance(spec.lengths, str) and g >= len(spec.lengths):
            break
        g += 1
        length = spec.length(g)
        step = 2.0 * length
        charge(lefts.size * spec.branching, "Moran refinement")
        lefts = (lefts[:, None] + np.arange(spec.branching) * step).ravel()
    cells = _interval_cells(lefts, np.minimum(lefts + spec.tail_extent(g), 1.0), depth, 1)
    return DyadicTree.from_leaves(depth, 1, cells)


def extract_moran_subset(tree: DyadicTree, s: float, eps: float, m: int) -> DyadicTree:
    """Thin a tree of dimension >= s into a uniform separated Moran subset.

    Requires every selected vertex to have >= 2^((s-eps) m) descendants m
    levels below.  Per m-block, adjacent descendants are dropped greedily
    left-to-right (losing at most half), then the leftmost
    floor(2^((s-eps) m - 1)) survivors are kept.  The result has uniform
    branching per block, pairwise non-adjacent cells at each block level,
    and is a subtree of the input, of depth floor(max_depth / m) * m.
    """
    if not 0.0 < s <= 1.0:
        raise ValueError(f"target dimension s={s} outside (0, 1]")
    if not 0.0 <= eps < s:
        raise ValueError(f"need 0 <= eps < s, got eps={eps}")
    if m < 1 or m > tree.max_depth:
        raise ValueError(f"block height m={m} outside 1..{tree.max_depth}")
    if tree.is_empty():
        raise ValueError("empty tree")
    need = 2.0 ** ((s - eps) * m)
    quota = int(2.0 ** ((s - eps) * m - 1.0))
    if quota < 1:
        raise ValueError(f"(s-eps) m = {(s - eps) * m} too small: keeps no descendants")
    depth_out = (tree.max_depth // m) * m
    selected = tree.array(0).tolist()
    for block in range(depth_out // m):
        level = block * m
        nxt: list[int] = []
        for idx in selected:
            lo, hi = descendant_range(tree, Vertex(level, idx), m)
            eligible = tree.array(level + m)[lo:hi].tolist()
            if len(eligible) < need:
                raise HypothesisError(
                    f"vertex (level={level}, index={idx}) has {len(eligible)} "
                    f"descendants {m} below, needs >= {need:g}",
                    level=level,
                    index=idx,
                )
            kept: list[int] = []
            last = -2
            for c in eligible:
                if c > last + 1:
                    kept.append(c)
                    last = c
            nxt.extend(kept[:quota])
        selected = nxt
    return DyadicTree.from_leaves(depth_out, tree.span, selected)


def reciprocal_tree(depth: int) -> DyadicTree:
    """Cells meeting {1/k : 1 <= k <= 2^depth} plus the cell of the
    accumulation point 0.  One integer array pass, so placement is exact."""
    _check_grid(depth, 1)
    size = 1 << depth
    charge(size, "reciprocal tree")
    leaves = np.minimum(size // np.arange(1, size + 1), size - 1)
    return DyadicTree.from_leaves(depth, 1, np.append(leaves, 0))


def _sums_below(state: np.ndarray, gcells: np.ndarray, size: int) -> list[np.ndarray]:
    """The sums s + g below size of the sorted state and generator cells,
    whose least element state[0] is also the least generator cell.  The
    generators go in bands [lo, 2 lo + state[0]], each summed with the
    states below size - lo, so every sum's extent stays within the grid."""
    parts = []
    i = 0
    while i < gcells.size:
        lo = int(gcells[i])
        j = int(np.searchsorted(gcells, 2 * lo + int(state[0]), "right"))
        sums = _sum_indices(state[: np.searchsorted(state, size - lo)], gcells[i:j])
        parts.append(sums[: np.searchsorted(sums, size)])
        i = j
    return parts


def semigroup_tree(generators: Sequence[float], bound: int, depth: int) -> DyadicTree:
    """Grid saturation of the additive semigroup of the generators.

    Starting from the generators' cells, repeatedly adds each generator cell
    index and keeps sums below bound * 2^depth, until a fixpoint (or 64
    rounds, in which case a warning is emitted).
    """
    if bound < 1 or bound & (bound - 1):
        raise SpecValidationError(f"bound {bound} must be a positive power of two")
    _check_grid(depth, bound)
    gens = sorted(set(float(g) for g in generators))
    if not gens:
        raise SpecValidationError("at least one generator required")
    for g in gens:
        if not 0.0 < g < bound:
            raise SpecValidationError(f"generator {g} outside (0, {bound})")
    size = bound << depth
    charge(size, "semigroup grid")
    state = gcells = np.array(sorted({cell_of(g, depth, bound) for g in gens}), dtype=np.int64)
    converged = False
    for _ in range(64):
        nxt = _dedupe_sorted(np.sort(np.concatenate((state, *_sums_below(state, gcells, size)))))
        if nxt.size == state.size:
            converged = True
            break
        state = nxt
    if not converged:
        warnings.warn(
            "semigroup saturation stopped after 64 rounds without a fixpoint",
            RuntimeWarning,
            stacklevel=2,
        )
    return DyadicTree.from_leaves(depth, bound, state)


# -- JSON specs ----------------------------------------------------------


@dataclass(frozen=True)
class ReciprocalSpec:
    pass


@dataclass(frozen=True)
class SemigroupSpec:
    generators: tuple[float, ...]
    bound: int


GeneratorSpec = IfsSpec | MoranSpec | ReciprocalSpec | SemigroupSpec

# the fields of each JSON spec type besides "type"
_SPEC_FIELDS = {
    "ifs": ("r", "translations", "span"),
    "moran": ("k", "lengths"),
    "reciprocal": (),
    "semigroup": ("generators", "bound"),
}


def spec_from_json(data: dict) -> GeneratorSpec:
    if not isinstance(data, dict) or "type" not in data:
        raise SpecValidationError(f"generator spec must be an object with a 'type': {data!r}")
    kind = data["type"]
    if not isinstance(kind, str) or kind not in _SPEC_FIELDS:
        raise SpecValidationError(f"unknown generator type {kind!r}")
    _check_keys(data, ("type", *_SPEC_FIELDS[kind]), f"{kind} spec")
    try:
        if kind == "ifs":
            return IfsSpec(
                _as_float(data["r"]),
                tuple(_as_float(t) for t in data["translations"]),
                _spec_int(data.get("span", 1), "span", kind),
            )
        if kind == "moran":
            lengths = data["lengths"]
            if not isinstance(lengths, str):
                lengths = tuple(_as_float(x) for x in lengths)
            return MoranSpec(_spec_int(data["k"], "k", kind), lengths)
        if kind == "reciprocal":
            return ReciprocalSpec()
        return SemigroupSpec(
            tuple(_as_float(g) for g in data["generators"]),
            _spec_int(data["bound"], "bound", kind),
        )
    except KeyError as exc:
        raise SpecValidationError(f"missing field {exc} in {kind!r} spec") from exc


def build_tree(spec, depth: int) -> DyadicTree:
    """Dispatch a generator spec (object or JSON dict) to its builder."""
    if isinstance(spec, dict):
        spec = spec_from_json(spec)
    if isinstance(spec, IfsSpec):
        return ifs_attractor(spec, depth)
    if isinstance(spec, MoranSpec):
        return moran_tree(spec, depth)
    if isinstance(spec, ReciprocalSpec):
        return reciprocal_tree(depth)
    if isinstance(spec, SemigroupSpec):
        return semigroup_tree(spec.generators, spec.bound, depth)
    raise SpecValidationError(f"not a generator spec: {spec!r}")
