"""Probability measures on dyadic trees and their entropy diagnostics.

A TreeMeasure assigns a mass to every occupied cell of a DyadicTree so that
the level-0 masses sum to 1 and each cell's children sum to the cell within
CHILD_SUM_TOL.  The constructor, and so loads_measure, checks this of masses
from outside; the builders guarantee it, with a drift of at most about
4u mu(parent), u = 2^-53 (see _sum_upward and splitting_measure).  Both the
check and _sum_upward form a parent's child sum by one kernel, _child_sums:
a gather of the first child plus the next cell times 1.0 or 0.0, which for
finite masses c >= 0 is fl(c0 + c1) or c0 + 0.0 = c0, the sum a reduceat
over the parent's children forms.

Entropy is computed in nats with 0 log 0 := 0:

    H(mu, n)      = -sum over level-n cells of mu(E) log mu(E)
    H_n(mu)       = H(mu, n) / (n log 2)          (averaged, in [0, 1] for span 1)
    H(mu, j | i)  = H(mu, j) - H(mu, i)

A vertex v is (eps, m)-uniform when the averaged entropy of the renormalized
measure below v is >= 1 - eps over an m-level window, (eps, m)-atomic when it
is <= eps; both thresholds use the averaged form, so "both" can only occur
when eps >= 1/2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .dyadic import DyadicTree, Vertex, _as_vertex, _run_heads, covering_count, subtree
from .errors import MeasureInvariantError, ZeroMassError

LN2 = math.log(2.0)
CHILD_SUM_TOL = 1e-12
TOTAL_MASS_TOL = 1e-9


# Cells per block of consecutive levels that the level kernels take in one
# pass: 2^15 float64 entries stay in cache, and one pass over a whole large
# tree measured slower than a pass per level.
_BLOCK_CELLS = 1 << 15


def _level_offsets(tree: DyadicTree) -> list[int]:
    """Where each level starts in a level-major array of all cells, then
    the total: max_depth + 2 entries."""
    return [0, *accumulate(map(tree.count, range(tree.max_depth + 1)))]


def _require_cells(tree: DyadicTree) -> None:
    if tree.is_empty():
        raise MeasureInvariantError("cannot put a probability measure on an empty tree")


def _spans(lo: int, hi: int):
    """Split the cells lo..hi-1 into runs [a, b) of at most _BLOCK_CELLS."""
    for a in range(lo, hi, _BLOCK_CELLS):
        yield a, min(a + _BLOCK_CELLS, hi)


def _blocks(offsets: list[int], first: int, stop: int):
    """Split levels first..stop-1 into runs [k0, k1) of consecutive levels
    holding at most _BLOCK_CELLS cells; a larger level is a run by itself."""
    k0 = first
    while k0 < stop:
        k1 = max(bisect_right(offsets, offsets[k0] + _BLOCK_CELLS, k0 + 1, stop + 1) - 1, k0 + 1)
        yield k0, k1
        k0 = k1


def _child_starts(tree: DyadicTree, offsets: list[int]) -> np.ndarray:
    """For each cell of levels 0..max_depth-1 in level-major order, the
    global position of its first child: tree.descendant_starts(n, 1) plus
    offsets[n + 1], end to end.  One run-head pass per block of levels
    (see _block_child_starts)."""
    kids = np.empty(offsets[-2], dtype=np.int64)
    for k0, k1 in _blocks(offsets, 0, tree.max_depth):
        kids[offsets[k0] : offsets[k1]] = _block_child_starts(tree, offsets, k0, k1)
    return kids


def _block_child_starts(tree: DyadicTree, offsets: list[int], k0: int, k1: int, m: int = 1) -> np.ndarray:
    """For each cell of levels k0..k1-1 in level-major order, the global
    position of its first level-(k + m) descendant, in one pass: m = 1 is
    _child_starts for those cells.  A level alone takes
    tree.descendant_starts(k0, m); several take the run heads of levels
    k0 + m..k1 + m - 1 end to end, each shifted right m times, with each
    level's first cell a head.  Levels k0 + m..k1 + m - 1 lie end to end
    from offsets[k0 + m] in a level-major array too, so adding that makes
    the positions global."""
    if k1 == k0 + 1:
        starts = tree.descendant_starts(k0, m)
    else:
        below = np.concatenate([tree.array(n) for n in range(k0 + m, k1 + m)])
        below >>= m
        heads = _run_heads(below)
        heads[np.subtract(offsets[k0 + m + 1 : k1 + m], offsets[k0 + m])] = True
        starts = np.flatnonzero(heads)
    starts += offsets[k0 + m]
    return starts


def _child_pairs(flat: np.ndarray, kids: np.ndarray, lo: int, hi: int):
    """For the cells lo..hi-1 (positions in flat, all above the deepest
    level), where their children sit: first = kids[lo:hi], second = first +
    1, and two = 1.0 where second is a sibling, 0.0 where it is not.  A cell
    has at most two children, at first and first + 1, and two when the next
    cell's first child (or the end of flat) lies past first + 1."""
    first = kids[lo:hi]
    second = first + 1
    two = np.empty(hi - lo)
    np.subtract(first[1:], second[:-1], out=two[:-1])
    two[-1] = (kids[hi] if hi < kids.size else flat.size) - second[-1]
    return first, second, two


def _child_sums(flat: np.ndarray, first: np.ndarray, second: np.ndarray, two: np.ndarray, out=None) -> np.ndarray:
    """The child sums of cells whose children _child_pairs located, by two
    gathers: c0 + c1 * two, where c1 is the cell after the first child, the
    sibling or else any finite mass (the last of flat when there is none).
    For finite masses c >= 0, c * 1.0 = c, c * 0.0 = 0 and c0 + 0.0 = c0
    (a -0.0 child alone gives +0.0, equal under ==), so each sum is
    fl(c0 + c1) or c0: what a reduceat over the children forms."""
    c1 = flat.take(second, mode="clip")
    c1 *= two
    return np.add(flat.take(first), c1, out=out)


class TreeMeasure:
    """Masses aligned positionally with tree.array(n).  Immutable once built.

    The masses of every level live end to end, level-major, in one
    read-only float64 array; `masses` is a tuple of per-level views of it,
    and level n starts at `_offsets[n]`.  Beside it the measure keeps one
    int64 array of global positions: for each cell above the deepest level,
    the position of its first child (tree.descendant_starts(n, 1) shifted by
    the offset of level n + 1).  The starts of an m-level window are that
    array composed with itself, one gather per level of the window.  On the
    first entropy query it builds two more read-only arrays laid out like
    the masses, log w (0 where w = 0) and w log w = log w * w, in one pass
    per _BLOCK_CELLS masses: np.log unmasked where the block's smallest mass
    is positive, masked only where a mass is 0 (np.log gives the same bits
    either way and on any slice).  Scale profiles read log w from it.

    The constructor checks the child sums of the masses it is given; the
    builders keep them by construction.  The level kernels (child starts,
    that check, scale profiles) take one pass per block of levels (see
    _blocks).  The child starts of a block are the run heads of its child
    levels end to end, shifted right once; a level alone in its block takes
    tree.descendant_starts(n, 1), which bounds its temporaries.

    Local entropies read a read-only table per window (k, m), built on the
    first query there: per occupied level-k vertex in order, the sum of
    mu(E) log mu(E) over its level-(k + m) descendants E, gathering
    count(k + m) entries once; later queries at (k, m) read one entry."""

    __slots__ = ("tree", "masses", "_offsets", "_flat", "_kids", "_logs", "_local_cache")

    def __init__(self, tree: DyadicTree, masses):
        """Check masses from outside; keep them if their root total is within
        2cu of 1 (c = count(0), u = 2^-53), as a normalized one is: c masses
        over their float sum S(1 + d), |d| <= (c - 1)u, each rounded by u,
        sum to (1 + e)/(1 + d), |e| <= u, and summing them adds (c - 1)u:
        (2c - 1)u + O(u^2).  So dumps and masses rebuild a measure bit for
        bit.  Totals further off are renormalized up to TOTAL_MASS_TOL."""
        _require_cells(tree)
        offsets = _level_offsets(tree)
        flat = np.empty(offsets[-1])
        for n in range(tree.max_depth + 1):
            w = np.asarray(masses[n], dtype=np.float64)
            if w.shape != (tree.count(n),):
                raise MeasureInvariantError(
                    f"level {n}: {w.size} masses for {tree.count(n)} occupied cells"
                )
            if w.size and not (w.min() >= 0.0 and w.max() < np.inf):
                raise MeasureInvariantError(f"level {n}: masses must be finite and >= 0")
            flat[offsets[n] : offsets[n + 1]] = w
        self._build(tree, offsets, flat, _child_starts(tree, offsets), 2 * tree.count(0) * 2.0**-53)
        _check_child_sums(offsets, flat, self._kids)

    def _build(self, tree: DyadicTree, offsets: list[int], flat: np.ndarray, kids: np.ndarray, keep=0.0) -> None:
        """Take flat (all masses, level-major, finite and >= 0) and kids
        (see _child_starts) as the measure's own arrays: renormalize unless
        the root total is within keep of 1, and freeze.  The child sums are
        the caller's to check or guarantee."""
        total = float(flat[: offsets[1]].sum())
        if abs(total - 1.0) > TOTAL_MASS_TOL:
            raise MeasureInvariantError(f"root masses sum to {total!r}, expected 1")
        if abs(total - 1.0) > keep:
            flat /= total
        flat.flags.writeable = False
        kids.flags.writeable = False
        self.tree = tree
        self.masses = tuple(flat[offsets[n] : offsets[n + 1]] for n in range(tree.max_depth + 1))
        self._offsets = offsets
        self._flat = flat
        self._kids = kids
        self._logs: tuple[np.ndarray, np.ndarray] | None = None
        self._local_cache: dict[tuple[int, int], np.ndarray] = {}

    def _position(self, level: int, index: int) -> int:
        """The position of an occupied vertex in its level."""
        pos = self.tree._position(level, index)
        if pos < 0:
            raise ValueError(f"vertex (level={level}, index={index}) not occupied")
        return pos

    def mass(self, v: Vertex) -> float:
        level, index = v if isinstance(v, Vertex) else _as_vertex(v)
        pos = self._position(level, index)
        return float(self.masses[level][pos])

    def _global_starts(self, k0: int, k1: int, m: int) -> np.ndarray:
        """The global position of the first level-(k + m) descendant of each
        cell of levels k0..k1-1, composed from the kept child starts."""
        starts = self._kids[self._offsets[k0] : self._offsets[k1]]
        for _ in range(m - 1):
            starts = self._kids[starts]
        return starts

    def _starts(self, k: int, m: int) -> np.ndarray:
        """tree.descendant_starts(k, m), composed from the kept child starts."""
        return self._global_starts(k, k + 1, m) - self._offsets[k + m]

    def _all_logs(self) -> tuple[np.ndarray, np.ndarray]:
        """log w and w log w of every mass, laid out like the masses, built
        on first use in one pass per block."""
        if self._logs is None:
            flat = self._flat
            log, wlogw = np.empty_like(flat), np.empty_like(flat)
            for a, b in _spans(0, flat.size):
                w = flat[a:b]
                if w.min() > 0.0:
                    np.log(w, out=log[a:b])
                else:
                    log[a:b] = 0.0
                    np.log(w, out=log[a:b], where=w > 0.0)
                np.multiply(log[a:b], w, out=wlogw[a:b])
            log.flags.writeable = wlogw.flags.writeable = False
            self._logs = log, wlogw
        return self._logs

    def _wlogw(self, level: int) -> np.ndarray:
        return self._all_logs()[1][self._offsets[level] : self._offsets[level + 1]]

    def _local_sums(self, k: int, m: int) -> np.ndarray:
        """Per occupied level-k vertex in order, the sum of _wlogw(k + m)
        over its descendants, kept in _local_cache.  The segments are grouped
        by length and each group summed as the rows of one gathered 2-d
        array, which adds in the same order as np.sum on each slice, so the
        sums equal it bit for bit (np.add.reduceat does not)."""
        w = self._wlogw(k + m)
        starts = self._starts(k, m)
        lengths = np.diff(starts, append=w.size)
        table = np.empty(starts.size)
        ordered = np.sort(lengths)
        for length in ordered[_run_heads(ordered)].tolist():
            rows = (lengths == length).nonzero()[0]
            table[rows] = np.add.reduce(w[starts[rows, None] + np.arange(length)], axis=1)
        table.flags.writeable = False
        self._local_cache[(k, m)] = table
        return table

    def __repr__(self) -> str:
        return f"TreeMeasure(on {self.tree!r})"


def _check_child_sums(offsets: list[int], flat: np.ndarray, kids: np.ndarray) -> None:
    """Refuse masses whose children stray from their parent by more than
    CHILD_SUM_TOL, naming the first such level: one _child_sums pass a
    block, and a level larger than a block in runs of _BLOCK_CELLS cells."""
    for k0, k1 in _blocks(offsets, 0, len(offsets) - 2):
        drift = np.zeros(k1 - k0)
        for lo, hi in _spans(offsets[k0], offsets[k1]):
            diff = _child_sums(flat, *_child_pairs(flat, kids, lo, hi))
            diff -= flat[lo:hi]
            # a run holds every level of a block, or a part of one level
            starts = np.subtract(offsets[k0:k1], lo).clip(0)
            np.maximum(drift, np.maximum.reduceat(np.abs(diff, out=diff), starts), out=drift)
        over = np.flatnonzero(drift > CHILD_SUM_TOL)
        if over.size:
            n = int(over[0])
            raise MeasureInvariantError(f"level {k0 + n}: children deviate from parents by {drift[n]:.3e}")


def _measure(tree: DyadicTree, offsets: list[int], flat: np.ndarray, kids: np.ndarray) -> TreeMeasure:
    """A TreeMeasure on arrays whose child sums its builder guarantees."""
    mu = object.__new__(TreeMeasure)
    mu._build(tree, offsets, flat, kids)
    return mu


def from_leaf_masses(tree: DyadicTree, leaf_masses) -> TreeMeasure:
    """Normalize masses on the deepest level and sum them upward."""
    w = np.asarray(leaf_masses, dtype=np.float64)
    if w.shape != (tree.count(tree.max_depth),):
        raise MeasureInvariantError("one mass per occupied leaf required")
    return _sum_upward(tree, w)


def counting_measure(tree: DyadicTree) -> TreeMeasure:
    """Uniform mass on the deepest level."""
    _require_cells(tree)
    return _sum_upward(tree, 1.0 / tree.count(tree.max_depth))


def _sum_upward(tree: DyadicTree, leaf_masses) -> TreeMeasure:
    """The measure with leaf_masses (an array, or one value for every leaf)
    normalized on the deepest level and every level above it summed from
    its children by _child_sums, in runs of at most _BLOCK_CELLS parents
    (see _blocks), each written straight into the measure's own array.

    No child-sum check is needed: a cell has at most two children, 2j and
    2j + 1, whatever the span, and each parent is fl(c0 + c1), or c0 alone,
    by the very kernel the check repeats (c1 * 1.0 = c1, c1 * 0.0 = 0 and
    c0 + 0.0 = c0 for finite c >= 0), so the drift is 0 unless _build
    divides by a root total t != 1; then fl(c0/t), fl(c1/t), their sum and
    fl(parent/t) round once each, a drift of at most about 4u mu(parent),
    u = 2^-53."""
    offsets = _level_offsets(tree)
    flat = np.empty(offsets[-1])
    w = flat[offsets[-2] :]
    w[:] = leaf_masses
    total = float(w.sum())
    if not (total > 0.0 and np.all(w >= 0.0) and np.isfinite(total)):
        raise MeasureInvariantError("leaf masses must be >= 0 with positive finite sum")
    w /= total
    kids = _child_starts(tree, offsets)
    # deepest first: a run holds every level of a block, or a part of one
    # level; its children's places are found once, its sums level by level
    for k0, k1 in reversed(list(_blocks(offsets, 0, tree.max_depth))):
        for lo, hi in _spans(offsets[k0], offsets[k1]):
            first, second, two = _child_pairs(flat, kids, lo, hi)
            parents = flat[lo:hi]
            for n in range(k1 - 1, k0 - 1, -1):
                s = slice(max(offsets[n] - lo, 0), min(offsets[n + 1], hi) - lo)
                _child_sums(flat, first[s], second[s], two[s], out=parents[s])
    return _measure(tree, offsets, flat, kids)


def splitting_measure(tree: DyadicTree) -> TreeMeasure:
    """Unit mass split equally among occupied children, root-down.

    No child-sum check is needed: masses stay above 2^-64, so halving is
    exact and commutes with _build's division by the root total, and the
    sum _child_sums forms, fl(c0 + c1) of two halves or c0 + 0.0 of a lone
    child, is the parent exactly: drift 0."""
    _require_cells(tree)
    offsets = _level_offsets(tree)
    kids = _child_starts(tree, offsets)
    # the last child of the last cell of a level ends that child level,
    # where the first child of the next level's first cell starts
    counts = np.diff(kids, append=offsets[-1])
    flat = np.empty(offsets[-1])
    flat[: offsets[1]] = 1.0 / tree.count(0)
    for n in range(tree.max_depth):
        parents = slice(offsets[n], offsets[n + 1])
        flat[offsets[n + 1] : offsets[n + 2]] = np.repeat(flat[parents] / counts[parents], counts[parents])
    return _measure(tree, offsets, flat, kids)


def restrict_renormalize(mu: TreeMeasure, v: Vertex) -> TreeMeasure:
    """The measure conditioned on v's cell, rescaled to the unit subtree.

    Built unchecked: the root is exactly 1, and each child-sum drift is at
    most mu's drift there over mu(v) plus about 4u times the new parent mass
    (u = 2^-53), so it may pass CHILD_SUM_TOL where mu(v) is small."""
    v = v if isinstance(v, Vertex) else _as_vertex(v)
    a = mu._position(*v) + mu._offsets[v.level]
    mv = float(mu._flat[a])
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={v.level}, index={v.index}) has zero mass")
    sub = subtree(mu.tree, v)
    offsets = _level_offsets(sub)
    flat = np.empty(offsets[-1])
    kids = np.empty(offsets[-2], dtype=np.int64)
    # the cells below v are a slice of each level of mu's arrays, starting at
    # a, then at its first child: masses over mu(v), child starts rebased
    for m in range(sub.max_depth + 1):
        lo, hi = offsets[m], offsets[m + 1]
        np.divide(mu._flat[a : a + hi - lo], mv, out=flat[lo:hi])
        if m < sub.max_depth:
            np.subtract(mu._kids[a : a + hi - lo], mu._kids[a] - hi, out=kids[lo:hi])
            a = int(mu._kids[a])
    return _measure(sub, offsets, flat, kids)


# -- entropy -------------------------------------------------------------


def entropy(mu: TreeMeasure, n: int) -> float:
    """H(mu, level-n partition) in nats."""
    if not 0 <= n <= mu.tree.max_depth:
        raise ValueError(f"level {n} outside 0..{mu.tree.max_depth}")
    return -float(np.sum(mu._wlogw(n)))


def cond_entropy(mu: TreeMeasure, i: int, j: int) -> float:
    """H(mu, level j | level i) = H(mu, j) - H(mu, i) for i < j."""
    if not 0 <= i < j <= mu.tree.max_depth:
        raise ValueError(f"need 0 <= i < j <= {mu.tree.max_depth}, got ({i}, {j})")
    return entropy(mu, j) - entropy(mu, i)


def local_entropy(mu: TreeMeasure, v: Vertex, m: int) -> float:
    """H of the renormalized measure below v at window depth m, in nats.

    Equal to entropy(restrict_renormalize(mu, v), m), read from the measure's
    table for the window (v.level, m): the first query at a window gathers
    count(v.level + m) entries to build it, later ones read one entry.
    """
    level, index = v if isinstance(v, Vertex) else _as_vertex(v)
    pos = mu._position(level, index)
    mv = float(mu.masses[level][pos])
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={level}, index={index}) has zero mass")
    if m < 1 or level + m > mu.tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {level}")
    table = mu._local_cache.get((level, m))
    if table is None:
        table = mu._local_sums(level, m)
    return math.log(mv) - float(table[pos]) / mv


UNIFORM = "uniform"
ATOMIC = "atomic"
NEITHER = "neither"
BOTH = "both"


def classify_local(mu: TreeMeasure, v: Vertex, eps: float, m: int) -> str:
    """Classify v as uniform/atomic/neither/both at window (eps, m)."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    h = local_entropy(mu, v, m) / (m * LN2)
    uniform = h >= 1.0 - eps
    atomic = h <= eps
    if uniform and atomic:
        return BOTH
    if uniform:
        return UNIFORM
    if atomic:
        return ATOMIC
    return NEITHER


def default_window(eps: float) -> int:
    """The window depth used when none is given: floor(log2(1/eps))."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    return max(1, int(math.floor(math.log2(1.0 / eps))))


@dataclass(frozen=True)
class LevelStats:
    k: int
    uniform_frac: float
    atomic_frac: float


@dataclass(frozen=True)
class ScaleProfile:
    """Mass fractions of uniform/atomic vertices per level, plus the level
    sets I (mostly uniform) and J (mostly atomic) where the fraction
    exceeds 1 - eps."""

    eps: float
    m: int
    levels: tuple[LevelStats, ...]
    I: tuple[int, ...] = field(default=())
    J: tuple[int, ...] = field(default=())

    @property
    def max_level(self) -> int:
        return self.levels[-1].k

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "m": self.m,
            "levels": [
                {"k": s.k, "uniform_frac": s.uniform_frac, "atomic_frac": s.atomic_frac}
                for s in self.levels
            ],
            "I": list(self.I),
            "J": list(self.J),
        }


def scale_profile(mu: TreeMeasure, eps: float, m: int | None = None, n: int | None = None) -> ScaleProfile:
    """Classify every vertex at levels 0..n and aggregate mass fractions.

    Zero-mass vertices are skipped (they carry no mass either way).  The
    levels are taken in blocks (see TreeMeasure), one vectorized pass per
    block, and the result does not depend on how they are blocked.

    Known disagreement: windows are summed in np.add.reduceat order and
    logged by np.log, classify_local uses np.sum's pairwise order and
    math.log, so a vertex within an ulp of a threshold may fall in another
    class: 7 of 486 (tree, m, eps, level) rows on the depth-16 Moran
    splitting measures (4^-j, 8^-j, 16^-j; m = 2..5; eps = 0.1, 0.25,
    0.4).  The summation order alone splits them; the logs split none.
    classify_local cannot take this order without moving recorded
    benchmark outputs.  This function can take np.sum's order, which moves
    no class of any benchmark workload, but the kernels in that order
    cost three to five times the reduceat.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    if m is None:
        m = default_window(eps)
    if m < 1:
        raise ValueError(f"window m={m} must be >= 1")
    tree = mu.tree
    if n is None:
        n = tree.max_depth - m
    if n < 0 or n + m > tree.max_depth:
        raise ValueError(f"need 0 <= n and n + m <= {tree.max_depth}, got n={n}, m={m}")
    offsets, flat = mu._offsets, mu._flat
    log, wlogw = mu._all_logs()
    stats = []
    I: list[int] = []
    J: list[int] = []
    for k0, k1 in _blocks(offsets, 0, n + 1):
        lo, hi = offsets[k0], offsets[k1]
        w = flat[lo:hi]
        a = np.add.reduceat(wlogw[: offsets[k1 + m]], mu._global_starts(k0, k1, m))
        pos = w > 0.0
        h = np.divide(a, w, out=a) if pos.all() else np.divide(a, w, out=a, where=pos)
        h = np.subtract(log[lo:hi], h, out=h)  # log w - a / w, 0 where w = 0
        h /= m * LN2
        # Each level's fraction reduces its own run of the selected masses
        # as np.sum does (pairwise), where one reduction per block would add
        # in another order; one search finds where each level's run starts.
        bounds = np.subtract(offsets[k0 : k1 + 1], lo)
        fracs = []
        for sel in (h >= 1.0 - eps, h <= eps):
            sel &= pos
            at = np.flatnonzero(sel)
            picked = w.take(at)
            cuts = np.searchsorted(at, bounds).tolist()
            fracs.append([float(np.add.reduce(picked[a:b])) if b > a else 0.0 for a, b in zip(cuts, cuts[1:])])
        for k, uniform_frac, atomic_frac in zip(range(k0, k1), *fracs):
            stats.append(LevelStats(k, uniform_frac, atomic_frac))
            if uniform_frac > 1.0 - eps:
                I.append(k)
            if atomic_frac > 1.0 - eps:
                J.append(k)
    return ScaleProfile(eps, m, tuple(stats), tuple(I), tuple(J))


# -- covering bounds from entropy profiles -------------------------------


def greedy_cover(levels, m: int) -> list[tuple[int, int]]:
    """Cover a sorted level set with disjoint windows [i, i+m], greedily
    from the left.  Returned for diagnostics."""
    blocks: list[tuple[int, int]] = []
    for k in levels:
        if not blocks or k > blocks[-1][1]:
            blocks.append((k, k + m))
    return blocks


@dataclass(frozen=True)
class CoveringBoundsReport:
    n: int
    eps: float
    m: int
    covering: int
    log2_covering: float
    atomic_fired: bool
    atomic_bound_log2: float
    atomic_holds: bool | None
    uniform_fired: bool
    uniform_bound_log2: float
    uniform_holds: bool | None
    cover_I: tuple[tuple[int, int], ...]
    cover_J: tuple[tuple[int, int], ...]
    threshold_convention: str = "averaged"

    @property
    def ok(self) -> bool:
        return self.atomic_holds is not False and self.uniform_holds is not False

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "eps": self.eps,
            "m": self.m,
            "ok": self.ok,
            "covering": self.covering,
            "log2_covering": self.log2_covering,
            "atomic": {
                "fired": self.atomic_fired,
                "bound_log2": self.atomic_bound_log2,
                "holds": self.atomic_holds,
                "cover": [list(b) for b in self.cover_J],
            },
            "uniform": {
                "fired": self.uniform_fired,
                "bound_log2": self.uniform_bound_log2,
                "holds": self.uniform_holds,
                "cover": [list(b) for b in self.cover_I],
            },
            "threshold_convention": self.threshold_convention,
        }


def covering_bounds_check(tree: DyadicTree, profile: ScaleProfile, n: int) -> CoveringBoundsReport:
    """Check the entropy-to-covering implications on a depth-n tree.

    When at least (1-eps) n levels are mostly atomic, the level-n covering
    count must be <= 2^(5 eps n); when at least (1-eps) n levels are mostly
    uniform, it must be >= 2^((1-eps)^3 n).  The profile classifies levels
    0..n-m (windows must stay inside the tree), while the hypothesis
    thresholds use the covering scale n, which only strengthens the
    hypotheses.
    """
    if n != tree.max_depth:
        raise ValueError(f"tree depth {tree.max_depth} != covering scale {n}")
    if profile.max_level + profile.m > n:
        raise ValueError(
            f"profile windows reach level {profile.max_level + profile.m} > tree depth {n}"
        )
    eps = profile.eps
    cover = covering_count(tree, n)
    log2n = math.log2(cover)
    fired_atomic = len(profile.J) >= (1.0 - eps) * n
    fired_uniform = len(profile.I) >= (1.0 - eps) * n
    atomic_bound = 5.0 * eps * n
    uniform_bound = (1.0 - eps) ** 3 * n
    return CoveringBoundsReport(
        n=n,
        eps=eps,
        m=profile.m,
        covering=cover,
        log2_covering=log2n,
        atomic_fired=fired_atomic,
        atomic_bound_log2=atomic_bound,
        atomic_holds=(log2n <= atomic_bound + 1e-9) if fired_atomic else None,
        uniform_fired=fired_uniform,
        uniform_bound_log2=uniform_bound,
        uniform_holds=(log2n >= uniform_bound - 1e-9) if fired_uniform else None,
        cover_I=tuple(greedy_cover(profile.I, profile.m)),
        cover_J=tuple(greedy_cover(profile.J, profile.m)),
    )
