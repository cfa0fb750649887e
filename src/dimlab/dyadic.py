"""Dyadic intervals and occupancy trees.

The level-n grid over a span of B unit intervals consists of the half-open
cells [k 2^-n, (k+1) 2^-n) for 0 <= k < B 2^n.  A DyadicTree records, for
every level 0..max_depth, the sorted set of occupied cell indices.  Trees are
saturated: occupancy is determined by the deepest level and propagated upward,
so every occupied cell has an occupied parent and (below max_depth) at least
one occupied child.  The vertex queries rely on it, and validate() audits it:
a cell is occupied exactly when it has a descendant at a deeper level, and
the cells below a vertex are one slice of each level.

Sets that contain the right endpoint of the span (e.g. compact attractors
containing x = B) are handled by clamping: x = B belongs to the last cell of
each level.

Level kernels cost what their data costs.  A sorted level is deduped by
comparing neighbours and selecting the run heads by index (ndarray.compress),
which on large irregular masks is several times faster than boolean
indexing.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, NamedTuple

import numpy as np


class Vertex(NamedTuple):
    """A (level, index) pair naming an occupied cell of some tree."""

    level: int
    index: int


def cell_of(x: float, level: int, span: int = 1) -> int:
    """Index of the cell containing x, clamping x = span into the last cell."""
    _require_integers((level, span), "level and span")
    if not 0 <= x <= span:
        raise ValueError(f"x={x!r} outside [0, {span}]")
    return min(int(x * (1 << level)), (span << level) - 1)


def _as_vertex(v) -> Vertex:
    """A vertex argument that is not a Vertex, as one: Vertex(*v), so a
    wrong arity is a TypeError, then the integer rule, _require_integers."""
    v = Vertex(*v)
    _require_integers(v, "vertex level and index")
    return v


def _require_integers(values: Iterable, what: str) -> None:
    """Raise ValueError unless every value is an int or a numpy integer.
    Booleans are refused although numpy would read them as ints."""
    kinds = set(map(type, values))
    if not all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in kinds):
        raise ValueError(f"{what} must be integers, got {sorted(t.__name__ for t in kinds)}")


def _check_grid(depth: int, span: int) -> None:
    """Refuse a depth or span that is not an integer (booleans and integral
    floats included), a negative depth, a span below 1, or a grid whose cell
    indices overflow int64: the rule for grids in memory and in files alike."""
    _require_integers((depth, span), "depth and span")
    if depth < 0:
        raise ValueError(f"negative depth {depth}")
    if span < 1:
        raise ValueError(f"span must be a positive integer, got {span}")
    if int(span).bit_length() + depth > 63:
        raise ValueError(f"depth={depth} span={span} is not a grid of under 2^63 cells")


def _sorted_leaves(leaves, max_depth: int, span: int) -> np.ndarray:
    """The distinct leaves as a sorted int64 copy, checked to be integer
    indices of the level-max_depth grid.  A sequence is type-checked
    element by element, since numpy reads a bool among ints as an int; an
    array only by its dtype."""
    if isinstance(leaves, np.ndarray):
        arr = leaves
        if arr.size and arr.dtype.kind not in "iu":
            raise ValueError(f"leaf indices must be integers, got {arr.dtype} input")
    else:
        seq = leaves if isinstance(leaves, (list, tuple)) else list(leaves)
        _require_integers(seq, "leaf indices")
        arr = np.asarray(seq)
    if arr.size == 0:
        return np.empty(0, dtype=np.int64)
    # Python ints come back as float or object only when no integer dtype
    # holds them all, so one of them lies outside [0, 2^63).
    if arr.dtype.kind in "iu":
        # Sums, flatnonzero outputs and most callers' leaves already
        # strictly increase: one comparison then costs less than a sort.
        # The copy keeps the caller's array apart from the tree's.
        if arr.ndim == 1 and (arr[1:] > arr[:-1]).all():
            arr = arr.copy()
        else:
            arr = _dedupe_sorted(np.sort(arr, axis=None))
        if arr[0] >= 0 and arr[-1] < span << max_depth:
            return arr.astype(np.int64, copy=False)
    raise ValueError(f"leaf index out of range at depth {max_depth} (span {span})")


_LEVEL_BLOCK = 1 << 16  # cells of a level compared with their neighbours at once

def _run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    head = np.empty(a.size, dtype=bool)
    if a.size:
        head[0] = True
        np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _dedupe_sorted(a: np.ndarray) -> np.ndarray:
    """A sorted array without its repeats, by comparing neighbours.
    ndarray.compress selects the heads by index: on random masks it timed
    387 against 79 us at 65,536 entries, about 0.1 us more below 256
    (numpy 2.4.6, 2 cores; np.compress costs about 1 us more a call)."""
    return a.compress(_run_heads(a)) if a.size > 1 else a


def _level_array(level: Iterable[int]) -> np.ndarray:
    """A hand-built level as an int64 array, or as an object array when an
    index does not fit int64, so that validate() can name it."""
    values = list(level)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class DyadicTree:
    """Occupancy tree over [0, span).  Immutable after construction.

    array(n) is the sorted occupied indices at level n as a read-only int64
    array, the one stored form of a level.  Each level's tuple of ints, the
    view the vertex searches bisect, is built on first search and cached;
    `levels` assembles those views on each read.
    The constructor trusts its input; use :func:`validate` to audit
    hand-built trees.  :meth:`from_leaves` saturates by construction: it
    sorts the leaves once and derives each parent level by an adjacent
    dedupe of the sorted child level shifted right.
    """

    __slots__ = ("max_depth", "span", "_arrays", "_views")

    def __init__(self, max_depth: int, span: int, levels: Iterable[Iterable[int]]):
        _check_grid(max_depth, span)
        self._set(max_depth, span, [_level_array(level) for level in levels])

    @classmethod
    def from_leaves(cls, max_depth: int, span: int, leaves: Iterable[int]) -> "DyadicTree":
        """Build a saturated tree from its deepest-level occupancy.

        leaves may be unsorted and repeat; they must be integers.  Floats,
        booleans and strings raise ValueError, as do indices outside the
        level-max_depth grid.  The caller's array is neither reordered nor
        frozen.
        """
        _check_grid(max_depth, span)
        arr = _sorted_leaves(leaves, max_depth, span)
        stack = [arr]
        for _ in range(max_depth):
            stack.append(_dedupe_sorted(stack[-1] >> 1))
        stack.reverse()
        tree = cls.__new__(cls)
        tree._set(max_depth, span, stack)
        return tree

    def _set(self, max_depth: int, span: int, arrays: list[np.ndarray]) -> None:
        """Take arrays[n] as level n; each array is owned by the tree and frozen."""
        if len(arrays) != max_depth + 1:
            raise ValueError(f"expected {max_depth + 1} levels, got {len(arrays)}")
        for a in arrays:
            a.flags.writeable = False
        self.max_depth = max_depth
        self.span = span
        self._arrays = tuple(arrays)
        self._views = [None] * len(arrays)

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Every level as a sorted tuple of ints, from the cached views."""
        return tuple(map(self._view, range(self.max_depth + 1)))

    def _view(self, level: int) -> tuple[int, ...]:
        """One level as a sorted tuple of ints, built on first read."""
        view = self._views[level]
        if view is None:
            view = self._views[level] = tuple(self._arrays[level].tolist())
        return view

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._arrays[self.max_depth].size

    def count(self, level: int) -> int:
        return self.array(level).size

    def capacity(self, level: int) -> int:
        return self.span << level

    def _position(self, level: int, index: int) -> int:
        """Where index sits among the occupied indices at a level, or -1
        when that cell is unoccupied.  The vertex entry points, which take
        a Vertex as it is, check the arguments first."""
        if not 0 <= level <= self.max_depth:
            raise ValueError(f"level {level} outside 0..{self.max_depth}")
        lv = self._views[level] or self._view(level)
        pos = bisect_left(lv, index)
        return pos if pos < len(lv) and lv[pos] == index else -1

    def descendant_starts(self, k: int, m: int) -> np.ndarray:
        """For each occupied level-k cell in order, the position of its first
        level-(k+m) descendant: the run starts of array(k+m) >> m, which on
        a saturated tree has one run per occupied level-k cell.  A few cells
        over a large level, count(k)·bitlen(count(k+m)) < count(k+m), take
        one binary search each; otherwise neighbours are compared in blocks
        of _LEVEL_BLOCK cells, so the temporaries are one flag per cell of
        level k+m and one block of its cells shifted, not a shifted copy."""
        if type(k) is not int or type(m) is not int:
            _require_integers((k, m), "level and window")
        if not 0 <= k <= k + m <= self.max_depth:
            raise ValueError(f"levels {k}..{k + m} outside 0..{self.max_depth}")
        above, below = self._arrays[k], self._arrays[k + m]
        if above.size * below.size.bit_length() < below.size:
            return np.searchsorted(below, above << m)
        # the run of below[0] starts at 0; each block of pairs (i, i + 1)
        # shifts into one kept buffer and flags the cells i + 1 that differ
        heads = np.empty(below.size, dtype=bool)
        heads[:1] = True
        shifted = np.empty(min(below.size, _LEVEL_BLOCK + 1), dtype=np.int64)
        for lo in range(0, below.size - 1, _LEVEL_BLOCK):
            block = below[lo : lo + _LEVEL_BLOCK + 1]
            x = np.right_shift(block, m, out=shifted[: block.size])
            np.not_equal(x[1:], x[:-1], out=heads[lo + 1 : lo + block.size])
        return np.flatnonzero(heads)

    def descendant_counts(self, k: int, m: int) -> np.ndarray:
        """Per occupied level-k cell in order, its occupied level-(k+m) cells."""
        starts = self.descendant_starts(k, m)
        return np.concatenate((starts[1:], [self.count(k + m)])) - starts

    def array(self, level: int) -> np.ndarray:
        """Occupied indices at a level as a read-only int64 array."""
        if type(level) is not int:
            _require_integers((level,), "levels")
        if not 0 <= level <= self.max_depth:
            raise ValueError(f"level {level} outside 0..{self.max_depth}")
        return self._arrays[level]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicTree):
            return NotImplemented
        return (
            self.max_depth == other.max_depth
            and self.span == other.span
            and all(map(np.array_equal, self._arrays, other._arrays))
        )

    def __repr__(self) -> str:
        return (
            f"DyadicTree(depth={self.max_depth}, span={self.span}, "
            f"leaves={self.count(self.max_depth)})"
        )


def covering_count(tree: DyadicTree, level: int) -> int:
    """Number of level-`level` cells meeting the set: N(F, 2^-level)."""
    return tree.count(level)


def _require_occupied(tree: DyadicTree, v: Vertex) -> None:
    if not 0 <= v.level <= tree.max_depth:
        raise ValueError(f"vertex level {v.level} outside 0..{tree.max_depth}")
    if tree._position(v.level, v.index) < 0:
        raise ValueError(f"vertex (level={v.level}, index={v.index}) not occupied")


def descendant_range(tree: DyadicTree, v: Vertex, m: int) -> tuple[int, int]:
    """Positions [lo, hi) of v's level-(v.level+m) descendants in that level.
    v need not be occupied, but its level and the window must lie in the tree."""
    k, index = v if isinstance(v, Vertex) else _as_vertex(v)
    if not 0 <= k <= tree.max_depth:
        raise ValueError(f"vertex level {k} outside 0..{tree.max_depth}")
    if m < 0 or k + m > tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {k}")
    level = tree._view(k + m)
    return bisect_left(level, index << m), bisect_left(level, (index + 1) << m)


def descendant_count(tree: DyadicTree, v: Vertex, m: int) -> int:
    """Count occupied cells m levels below v inside v's cell.

    Saturation (each occupied cell has an occupied parent, and an occupied
    child below max_depth) makes v occupied exactly when it has a
    descendant m levels down, by induction on m: a non-empty range, two
    searches of one level, is the count.  Anything else, a non-integer
    index too, takes the checks, which refuse as before, in the same order."""
    k, index = v if isinstance(v, Vertex) else _as_vertex(v)
    try:
        if 0 <= k <= k + m <= tree.max_depth:
            level = tree._views[k + m] or tree._view(k + m)
            lo = bisect_left(level, index << m)
            hi = bisect_left(level, (index + 1) << m, lo)
            if hi > lo:
                return hi - lo
    except TypeError:
        pass
    v = Vertex(k, index)
    _require_occupied(tree, v)
    lo, hi = descendant_range(tree, v, m)
    return hi - lo


def is_full_branching(tree: DyadicTree, v: Vertex, eps: float, m: int) -> bool:
    """Whether v has at least 2^((1-eps) m) descendants m levels below.

    The count is an integer, so comparing against the real threshold is the
    same as comparing against its ceiling.
    """
    if not 0 <= eps <= 1:
        raise ValueError(f"eps={eps} outside [0, 1]")
    return descendant_count(tree, v, m) >= 2.0 ** ((1.0 - eps) * m)


def subtree(tree: DyadicTree, v: Vertex) -> DyadicTree:
    """The tree below v, rescaled to span 1 and depth max_depth - v.level.

    Level m is the slice of level v.level + m below v, less v.index << m:
    sorted and distinct, and saturated, since the parent of a cell below v
    is below v and so is an occupied child; no saturation pass is made."""
    v = v if isinstance(v, Vertex) else _as_vertex(v)
    _require_occupied(tree, v)
    ranges = (descendant_range(tree, v, m) for m in range(tree.max_depth - v.level + 1))
    levels = [tree._arrays[v.level + m][lo:hi] - (v.index << m) for m, (lo, hi) in enumerate(ranges)]
    sub = DyadicTree.__new__(DyadicTree)
    sub._set(len(levels) - 1, 1, levels)
    return sub


def validate(tree: DyadicTree) -> list[str]:
    """Audit tree invariants; returns human-readable violations (empty = ok)."""
    problems = []
    levels = [tree.array(n).tolist() for n in range(tree.max_depth + 1)]
    for n, level in enumerate(levels):
        cap = tree.capacity(n)
        prev = -1
        for j in level:
            if not 0 <= j < cap:
                problems.append(f"level {n}: index {j} outside 0..{cap - 1}")
            if j <= prev:
                problems.append(f"level {n}: indices not strictly increasing at {j}")
            prev = j
    for n in range(1, tree.max_depth + 1):
        parents = set(levels[n - 1])
        for j in levels[n]:
            if j >> 1 not in parents:
                problems.append(f"parent-closure: level {n} index {j} has no parent")
    for n in range(tree.max_depth):
        children = levels[n + 1]
        for j in levels[n]:
            lo = bisect_left(children, j << 1)
            if lo >= len(children) or children[lo] > (j << 1) + 1:
                problems.append(f"leaf-support: level {n} index {j} has no child")
    return problems


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs start, start + 1, ..., start + length - 1, end to end."""
    # position p of the expansion, in run r, holds starts[r] plus p's
    # offset from the position where run r begins
    shifts = starts - (np.cumsum(lengths) - lengths)
    cells = np.repeat(shifts, lengths)
    cells += np.arange(cells.size, dtype=np.int64)
    return cells
