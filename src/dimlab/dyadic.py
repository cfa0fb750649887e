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

On-disk format ("dyadic-tree v1")::

    dyadic-tree v1 depth=<n> span=<B>
    0: 0
    1: 0,1
    2: RUNS 0 4

One line per level.  A level is either a comma-separated sorted index list or
``RUNS`` followed by (start, length) pairs of maximal runs; the writer picks
whichever is shorter, so round trips are byte-exact.

Level kernels cost what their data costs.  A sorted level is deduped by
comparing neighbours and selecting the run heads by index (ndarray.compress),
which on large irregular masks is several times faster than boolean
indexing.  Level lists and grid rows are written by one numpy digit writer,
_decimal_text, four digits a pass from a table of four-digit groups, and
read by one decimal kernel, _decimal_tokens, whose passes run over the
numbers, not one over the bytes per digit place: it reads each number's
last eight bytes as one word and sums its digits with three
multiply-shift-mask steps.  The grammar: lines break at newlines (a \\r
before one is dropped) and lines of blanks (spaces, tabs) are skipped; a
number is ASCII digits whose value lies inside the grid, blanks around it;
level lists separate numbers by commas, RUNS payloads and grid rows by
blanks.  What the kernel refuses, one routine per format words, and it
never returns a level or a grid.  loads_tree keeps the levels it decoded as
the tree once it has checked them in place to be the saturation of their
deepest level.  Header fields, level labels and the level and index of mass
lines follow the same number rule, by _token_ints, with plain digits read
by int() at once (_plain_int).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, NoReturn

import numpy as np

from .budget import charge
from .errors import EmptySetError, FormatError


@dataclass(frozen=True)
class DyadicInterval:
    """The cell [index 2^-level, (index+1) 2^-level) inside [0, span)."""

    level: int
    index: int
    span: int = 1

    def __post_init__(self):
        _require_integers((self.level, self.index, self.span), "level, index and span")
        if self.level < 0:
            raise ValueError(f"negative level {self.level}")
        if self.span < 1:
            raise ValueError(f"span must be a positive integer, got {self.span}")
        if not 0 <= self.index < self.span << self.level:
            raise ValueError(
                f"index {self.index} out of range at level {self.level} (span {self.span})"
            )

    def bounds(self) -> tuple[float, float]:
        w = 2.0 ** -self.level
        return self.index * w, (self.index + 1) * w


class Vertex(NamedTuple):
    """A (level, index) pair naming an occupied cell of some tree."""

    level: int
    index: int


def interval_of(level: int, index: int, span: int = 1) -> DyadicInterval:
    """Return the dyadic cell with the given coordinates."""
    return DyadicInterval(level, index, span)


def locate(x: float, level: int, span: int = 1) -> DyadicInterval:
    """Return the level-`level` cell containing x.

    Multiplying a binary64 by a power of two is exact, so this never
    misplaces a representable point.  x must lie in [0, span).
    """
    if not 0 <= x < span:
        raise ValueError(f"x={x!r} outside [0, {span})")
    return DyadicInterval(level, int(x * (1 << level)), span)


def cell_of(x: float, level: int, span: int = 1) -> int:
    """Index of the cell containing x, clamping x = span into the last cell."""
    _require_integers((level, span), "level and span")
    if not 0 <= x <= span:
        raise ValueError(f"x={x!r} outside [0, {span}]")
    return min(int(x * (1 << level)), (span << level) - 1)


def _as_vertex(v) -> Vertex:
    """A vertex argument that is not a Vertex, as one: Vertex(*v), so a
    wrong arity is a TypeError, then the integer rule of DyadicInterval."""
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

    def total_cells(self) -> int:
        return sum(a.size for a in self._arrays)

    def capacity(self, level: int) -> int:
        return self.span << level

    def density(self, level: int) -> float:
        return self.count(level) / self.capacity(level)

    def position(self, level: int, index: int) -> int:
        """Where index sits among the occupied indices at a level, or -1
        when that cell is unoccupied."""
        if type(level) is not int or type(index) is not int:
            _require_integers((level, index), "level and index")
        return self._position(level, index)

    def _position(self, level: int, index: int) -> int:
        """position() for arguments the caller has checked: the vertex
        entry points, which take a Vertex as it is."""
        if not 0 <= level <= self.max_depth:
            raise ValueError(f"level {level} outside 0..{self.max_depth}")
        lv = self._views[level] or self._view(level)
        pos = bisect_left(lv, index)
        return pos if pos < len(lv) and lv[pos] == index else -1

    def is_occupied(self, level: int, index: int) -> bool:
        return self.position(level, index) >= 0

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


def discretize(
    oracle: Callable[[float, float], bool], depth: int, span: int = 1
) -> DyadicTree:
    """Discretize a set given an intersection oracle.

    oracle(lo, hi) must answer whether the set meets [lo, hi); for the last
    cell of a level (hi == span) it should treat the interval as closed, so a
    set containing the span endpoint lands in the last cell.  The oracle must
    never answer False on a cell the set meets.  Refinement runs root-down,
    then occupancy is re-saturated from the deepest level, so coarse cells
    kept by an over-eager oracle but emptied below are dropped.
    """
    if depth < 0:
        raise ValueError(f"negative depth {depth}")
    frontier = [k for k in range(span) if oracle(float(k), float(k + 1))]
    if not frontier:
        raise EmptySetError("set meets no level-0 cell")
    for n in range(1, depth + 1):
        charge(2 * len(frontier), "discretize refinement")
        w = 2.0 ** -n
        nxt = []
        for parent in frontier:
            for child in (2 * parent, 2 * parent + 1):
                if oracle(child * w, (child + 1) * w):
                    nxt.append(child)
        if not nxt:
            raise EmptySetError(f"set vanished at level {n}")
        frontier = nxt
    return DyadicTree.from_leaves(depth, span, frontier)


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


# -- serialization -------------------------------------------------------


def _encode_level(a: np.ndarray) -> str:
    # Runs win when they take fewer numbers than the indices: never below 3.
    if a.size > 2:
        ends = a[1:] - a[:-1] != 1  # where runs of consecutive indices end
        if 2 * (np.count_nonzero(ends) + 1) < a.size:
            starts = np.flatnonzero(np.concatenate(([True], ends)))
            runs = np.column_stack((a[starts], np.diff(starts, append=a.size)))
            return "RUNS " + _decimal_text(runs.ravel(), " ")
    return _decimal_text(a, ",")


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs start, start + 1, ..., start + length - 1, end to end."""
    # position p of the expansion, in run r, holds starts[r] plus p's
    # offset from the position where run r begins
    shifts = starts - (np.cumsum(lengths) - lengths)
    cells = np.repeat(shifts, lengths)
    cells += np.arange(cells.size, dtype=np.int64)
    return cells


def _clip(text: str, limit: int = 80) -> str:
    """text, cut after `limit` characters when longer, so that an error
    message quoting its input stays short."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


_INT64_END = 1 << 63  # no grid has this many cells, so no number read reaches it
_BLOCK_BYTES = 1 << 17  # text the decimal kernel reads at once, cut at a newline
_PAD = b" " * 8  # blanks before a block: the 8 bytes that end any number lie in it
# _KEEP[k]: the top k bytes of a little-endian word, each cut to its low
# nibble, so "0"-"9" read 0-9: the last k digits of the number that ends
# the word, and none of the bytes before it
_KEEP = np.array([0x0F0F0F0F0F0F0F0F << 8 * (8 - k) & (1 << 64) - 1 for k in range(9)], dtype=np.uint64)
# Step j of _word_values: the mask that keeps the groups of 2^j digits
# before it, then the multiply and shift that join each pair of groups
_SWAR = tuple(tuple(map(np.uint64, step)) for step in (
    (0, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16), (0x0000FFFF0000FFFF, 42949672960001, 32)))


def _word_values(w: np.ndarray, places: int) -> np.ndarray:
    """In place, the uint64 words w, each of 8 digit values (0-9) with the
    most significant byte first in memory and none but its top `places`
    (at most 8) nonzero, as the numbers they spell.  Step j joins each two
    neighbouring groups of 2^j digits, 10^(2^j) times the first plus the
    second, so ceil(log2(places)) steps leave the number in the word's top
    8 * 2^steps bits, which the last shift brings down (Langdale & Lemire's
    eight-digit SWAR parse)."""
    steps = max(places - 1, 0).bit_length()
    for j in range(steps):
        mask, mul, shift = _SWAR[j]
        if j:
            w &= mask
        w *= mul
        w >>= shift + (64 - (8 << steps) if j == steps - 1 else 0)
    if not steps:
        w >>= 56
    return w


def _decimal_tokens(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The decimal numbers in a block of digits, separators and newlines,
    led by 8 blanks and ended by one, as int64 values in order, and how
    many of them each of its newline-separated lines holds; None unless
    every number is below 2^63.

    The kernel works per number, not per digit place.  The separators,
    blanks and newlines all lie below "0", so one compare finds the digits
    and one more the edges of each run of them; the blanks around the block
    make those edges pair up.  The 8 bytes that end each number are read as
    one little-endian word from a 1-byte-stride view of the block and
    masked to the number's digits, each cut to its low nibble (subtracting
    "0" would borrow across the blanks before a short number), then summed
    by _word_values; a number of 9-16 characters takes a second word, 8
    bytes further up, and a longer one a third.  A number of more than 19
    characters must hold only zeros above its last 19, which one running
    count of nonzero digits checks, so the cost stays linear in the text
    however long its numbers; then no sum passes 10^19 < 2^64, and a number
    of 19 characters or more is compared with 2^63."""
    buf = np.frombuffer(block, dtype=np.uint8)
    digit = buf >= 48
    edge = np.flatnonzero(digit[1:] != digit[:-1])  # the byte before each number, and its last digit
    before, last = edge[0::2], edge[1::2]
    size = last - before
    longest = int(size.max(initial=0))
    words = np.ndarray((buf.size - 7,), "<u8", block, 0, (1,))  # words[i]: bytes i..i+7
    value = _word_values(words.take(last - 7) & _KEEP.take(size, mode="clip"), min(longest, 8))
    for k in range(8, min(longest, 24), 8):  # the digits 8 and 16 places up
        w = words.take(last - (7 + k), mode="clip") & _KEEP.take(size - k, mode="clip")
        value += _word_values(w, min(longest - k, 8)) * 10**k
    if longest > 19:
        nonzero = np.cumsum(buf > 48)
        long = size > 19
        if (nonzero[last[long] - 19] != nonzero[before[long]]).any():
            return None
    if longest >= 19 and value.max() >= _INT64_END:
        return None
    cuts = np.concatenate(([0], last.searchsorted(np.flatnonzero(buf == 10)), [last.size]))
    return value.view(np.int64), cuts[1:] - cuts[:-1]


def _number_blocks(text: str, sep: str, start: int = 0):
    """_decimal_tokens of text[start:], block by block, each block about
    _BLOCK_BYTES of whole lines, padded with _PAD in front and a blank
    behind, or None for a block holding a byte that is not a digit, a
    blank, `sep` or a newline (a non-ASCII character reads as "?")."""
    data = text.encode("ascii", "replace")
    allowed = b"0123456789 \t\n" + sep.encode()
    while True:
        end = data.find(b"\n", start + _BLOCK_BYTES)
        block = data[start : len(data) if end < 0 else end]
        yield None if block.translate(None, allowed) else _decimal_tokens(b"".join((_PAD, block, b" ")))
        if end < 0:
            return
        start = end + 1


def _read_numbers(text: str, sep: str) -> tuple[np.ndarray, np.ndarray] | None:
    """_decimal_tokens of a whole text by _number_blocks, or None."""
    blocks = list(_number_blocks(text, sep))
    if None in blocks:
        return None
    return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))


# Numbers from which _decimal_text writes digits in numpy rather than by
# "%d".  Timed (numpy 2.4.6, 2 cores) on sorted indices below 2^20, "%d"
# against the writer: 33 against 36 us for 384 numbers, they cross near
# 450, 43 against 40 us for 512 and 5.6 against 1.6 ms for 65,536; on
# 4-digit grid rows they cross near 350 numbers.
_WRITE_MIN = 1 << 9
_ROW_BLOCK = 1 << 16  # numbers written at once


def _digit_quads() -> np.ndarray:
    """Four ASCII digits per uint32, in memory order.  Entries 0-9999 are
    the groups "0000".."9999"; 10000-19999 the same groups leading their
    number, so without leading zeros, where 10000 is the number 0 itself,
    "0"; 20000 is a group left of its number, blank.  A blank is the byte 0."""
    quads = np.zeros((20_001, 4), dtype=np.uint8)
    full = quads[:10_000].reshape(10, 10, 10, 10, 4)  # indexed by the four digits
    for place in range(4):
        full[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    quads[10_000:20_000] = quads[:10_000]
    for place, below in enumerate((1000, 100, 10)):
        quads[10_000 : 10_000 + below, place] = 0  # the zeros that lead a number below 10^(3 - place)
    return quads.view(np.uint32).ravel()


_DIGIT_QUADS = _digit_quads()
_PATTERNS: dict[str, str] = {}  # seps to "%d" patterns, sliced to a count of numbers


def _decimal_text(values: np.ndarray, seps: str) -> str:
    """The 1-d integer values in decimal, the i-th preceded by
    seps[(i - 1) % len(seps)] for i >= 1: the text "%d" writes for
    seps[0].join, or with seps " " * (d - 1) + "\n", d numbers a line
    without the last newline.

    A short list takes "%d", by a slice of one pattern per seps, built once
    and grown for longer lists, below _WRITE_MIN numbers, in _PATTERNS, as
    does a list that is not int64 or holds a negative value, such as a
    hand-built level, by a pattern of its own when it is longer.  A long
    nonnegative int64 one is written in blocks of _ROW_BLOCK numbers, each
    into a uint8 matrix of one row per number, a separator byte then the
    digits right-aligned, four digits per pass by a lookup in _DIGIT_QUADS:
    pass j writes the group r = x mod 10^4 of x = v // 10^(4j), as it leads
    its number when x < 10^4 and blank when x = 0.  Compressing out the
    blank bytes leaves the text."""
    n = values.size
    if n < _WRITE_MIN or not n or values.dtype != np.int64 or values.min() < 0:
        pattern = _PATTERNS.get(seps, "")
        if len(pattern) < 3 * n:  # a separator, then "%d" and one for each further number
            pattern = seps[-1] + ("%d" + "%d".join(seps)) * 2 * n
            if n < _WRITE_MIN:  # keep only short lists' patterns, 6 * len(seps) * n characters
                _PATTERNS[seps] = pattern
        return pattern[1 : 3 * n] % tuple(values.tolist())
    sep_bytes = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    parts = []
    for lo in range(0, n, _ROW_BLOCK):
        x = values[lo : lo + _ROW_BLOCK]
        digits = len(str(int(x.max())))
        groups = -(-digits // 4)
        # the separator takes the leading group's first byte, always blank
        # when digits is no multiple of 4, else a byte of its own
        width = max(4 * groups, digits + 1)
        out = np.empty((x.size, width), dtype=np.uint8)
        quads = np.ndarray((x.size, groups), np.uint32, out, width - 4 * groups, (width, 4))
        ended = None  # where x is 0, so every digit of its number is written
        for j in range(groups - 1, 0, -1):
            q = x // 10_000  # division by a constant, which np.divmod does not speed up
            r = q * 10_000
            np.subtract(x, r, out=r)
            leads = q == 0
            np.add(r, 10_000, out=r, where=leads)
            if ended is not None:
                np.add(r, 10_000, out=r, where=ended)
            quads[:, j] = _DIGIT_QUADS.take(r)
            x, ended = q, leads
        r = x + 10_000  # the leading group of every number
        if ended is not None:
            np.add(r, 10_000, out=r, where=ended)
        quads[:, 0] = _DIGIT_QUADS.take(r)
        out[:, 0] = np.tile(np.roll(sep_bytes, 1 - lo), -(-len(out) // len(seps)))[: len(out)]
        if lo == 0:
            out[0, 0] = 0
        flat = out.ravel()
        parts.append(flat.compress(flat != 0).tobytes().decode("ascii"))
    return "".join(parts)


def dumps_tree(tree: DyadicTree) -> str:
    lines = [f"dyadic-tree v1 depth={tree.max_depth} span={tree.span}"]
    for n in range(tree.max_depth + 1):
        lines.append(f"{n}: {_encode_level(tree.array(n))}".rstrip())
    return "\n".join(lines) + "\n"


_NAMED_INT = re.compile(r"-?(?=0*[1-9])[0-9]{1,4300}|0{1,4300}")
_FIELD = re.compile(r"[^ \t]+")  # a token between blanks


def _token_ints(tokens: list[str]) -> list[int]:
    """The tokens as integers by the number rule, also to name what the kernel
    refuses: ASCII digits, or a minus and a nonzero number (outside every
    grid), of at most 4,300 digits.  FormatError quotes the first other token."""
    if not all(map(_NAMED_INT.fullmatch, tokens)):
        bad = next(pos for pos, tok in enumerate(tokens) if not _NAMED_INT.fullmatch(tok))
        raise FormatError(f"non-integer token {_clip(repr(tokens[bad]))} at index {bad}")
    return list(map(int, tokens))


def _plain_int(token: str) -> int:
    """A token by the number rule: plain ASCII digits, as writers write
    labels and mass fields, by int() at once, others by _token_ints, which
    refuses them or reads a minus (blanks around them dropped)."""
    return int(token) if token.isascii() and token.isdigit() else _token_ints([token.strip(" \t")])[0]


_HEADER = re.compile(r"(?:[ \t]*\n)*([^\n]*)\n?")  # blank lines, then the header line


def _fold_crlf(text: str) -> str:
    """text with each \\r\\n read as \\n.  str.replace scans for its pattern
    about 80 times slower than `in` finds a \\r (0.7 ms against 9 us on
    640 KB), so a text without one is returned as it is."""
    return text.replace("\r\n", "\n") if "\r" in text else text


def _read_header(text: str, magic: str, keys: tuple[str, ...]) -> tuple[list[int], int]:
    """The integer `keys`, by _token_ints, of the '<magic> v1 key=value ...'
    line that opens text after blank lines, and where the lines after it
    start.  Its last two keys, depth and span, must give an int64 grid."""
    head = _HEADER.match(text)
    line = head[1]
    tokens = _FIELD.findall(line)
    if not tokens:
        raise FormatError("empty input")
    if tokens[:2] != [magic, "v1"]:
        raise FormatError(f"bad header: {_clip(repr(line))}")
    bad = next((tok for tok in tokens[2:] if "=" not in tok), None)
    if bad is not None:
        raise FormatError(f"header token {_clip(repr(bad))} is not key=value")
    fields = dict(tok.split("=", 1) for tok in tokens[2:])
    try:
        values = _token_ints([fields[key] for key in keys])
    except (KeyError, FormatError) as exc:
        raise FormatError(f"bad header fields: {_clip(repr(line))}") from exc
    try:
        _check_grid(*values[-2:])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return values, head.end()


_RUNS = re.compile(r"[ \t]*RUNS(?![^ \t])")  # a RUNS payload's head
_SPLIT = re.compile(r"[0-9][ \t]+[0-9]")  # two numbers of a list with no comma between


def _decode_levels(bodies: dict[int, str], span: int) -> dict[int, np.ndarray]:
    """A tree file's level bodies, level n to the text after "n:" in file
    order, as int64 arrays.  The decimal kernel reads all comma lists
    joined by newlines in one pass and all RUNS payloads in another.  Each
    list must hold one number per comma field, and each payload an even
    count; every run is checked against its level at once.  Then level by
    level, in file order, the runs are charged to the budget and expanded.
    What fails, only _refuse_levels words."""
    lists, runs = {}, {}
    for n, rest in bodies.items():
        head = "RUNS" in rest and _RUNS.match(rest)
        (runs if head else lists)[n] = rest[head.end() :] if head else rest.strip(" \t")
    levels = {}
    if lists:
        text = "\n".join(lists.values())
        got = _read_numbers(text, ",")
        want = [body.count(",") + 1 if body else 0 for body in lists.values()]
        if got is None or got[1].tolist() != want or (" " in text or "\t" in text) and _SPLIT.search(text):
            _refuse_levels(bodies, span)
        ends = list(accumulate(want, initial=0))
        levels.update((n, got[0][a:b]) for n, a, b in zip(lists, ends, ends[1:]))
    if runs:
        got = _read_numbers("\n".join(runs.values()), " ")
        if got is None or (got[1] % 2).any():
            _refuse_levels(bodies, span)
        starts, lengths, per_level = got[0][::2], got[0][1::2], got[1] // 2
        caps = np.repeat(np.array([span << n for n in runs], dtype=np.int64), per_level)
        if not ((lengths >= 1) & (lengths <= caps - starts)).all():
            _refuse_levels(bodies, span)
        ends = list(accumulate(per_level.tolist(), initial=0))
        for n, a, b in zip(runs, ends, ends[1:]):
            small = (b - a) * (span << n) < _INT64_END  # each length is at most span << n: sum in int64
            charge(int(lengths[a:b].sum()) if small else sum(lengths[a:b].tolist()), "RUNS payload")
            levels[n] = _expand_runs(starts[a:b], lengths[a:b])
    return levels


def _refuse_levels(bodies: dict[int, str], span: int) -> NoReturn:
    """Raise the FormatError for level bodies _decode_levels refused, at the
    first bad body in file order: its first token that is not a number, then
    for RUNS an odd payload or a run outside the level, for a list an index
    outside int64.  Other indices outside the level are validate()'s.  Good
    RUNS payloads before it are charged as _decode_levels charges them, so
    one over the budget is refused first."""
    for n, rest in bodies.items():
        cap, head, body = span << n, _RUNS.match(rest), rest.strip(" \t")
        if head:
            parts = _token_ints(_FIELD.findall(rest[head.end() :]))
            if len(parts) % 2:
                raise FormatError(f"odd RUNS payload of {len(parts)} numbers")
            for start, length in zip(parts[::2], parts[1::2]):
                if length < 1 or start < 0 or start + length > cap:
                    raise FormatError(f"run ({start}, {length}) outside a level of {cap} cells")
            charge(sum(parts[1::2]), "RUNS payload")
            continue
        parts = _token_ints([tok.strip(" \t") for tok in body.split(",")] if body else [])
        bad = next((j for j in parts if not 0 <= j < _INT64_END), None)
        if bad is not None:
            raise FormatError(f"index {_clip(str(bad))} outside a level of {cap} cells")
    raise AssertionError("the decimal kernel refused level bodies that hold no fault")


def _is_saturation(levels: list[np.ndarray], cap: int) -> bool:
    """Whether the levels are the saturation of the last, as from_leaves
    builds it: the last strictly increases below cap, and each level is the
    one below it shifted right and deduped.  These are validate()'s
    invariants, so it finds a problem exactly when this is False."""
    leaves = levels[-1]
    if leaves.size and (leaves[-1] >= cap or not (leaves[1:] > leaves[:-1]).all()):
        return False
    for n in range(len(levels) - 1, 0, -1):
        parents = _dedupe_sorted(levels[n] >> 1)
        if parents.size != levels[n - 1].size or not (parents == levels[n - 1]).all():
            return False
    return True


def loads_tree(text: str) -> DyadicTree:
    """Parse dyadic-tree v1 text, refused at its first bad line: the bodies
    above a bad level label are read before it is named.  The decoded
    levels become the tree, checked in place: a dump is valid exactly when
    its deepest level is strictly increasing inside the grid and each level
    above is the dedupe of the one below shifted right (validate() runs only
    to word a refusal)."""
    text = _fold_crlf(text)
    (depth, span), start = _read_header(text, "dyadic-tree", ("depth", "span"))
    bodies: dict[int, str] = {}
    for ln in text[start:].split("\n"):
        if not ln.strip(" \t") or ln.startswith("mass "):
            continue  # a blank line, or a measure payload, handled by the measures module
        head, _, rest = ln.partition(":")
        try:
            n = _plain_int(head)
        except ValueError as exc:
            _decode_levels(bodies, span)
            raise FormatError(f"bad level line: {_clip(repr(ln))}") from exc
        if not 0 <= n <= depth or n in bodies:
            _decode_levels(bodies, span)
            raise FormatError(f"unexpected level {n}")
        bodies[n] = rest
    decoded = _decode_levels(bodies, span)
    if len(decoded) <= depth:
        missing = [n for n in range(depth + 1) if n not in decoded]
        raise FormatError(f"missing levels {missing}")
    levels = [decoded[n] for n in range(depth + 1)]
    if not _is_saturation(levels, span << depth):
        problems = validate(DyadicTree(depth, span, levels))
        raise FormatError("invalid tree: " + "; ".join(problems[:5]))
    tree = DyadicTree.__new__(DyadicTree)
    tree._set(depth, span, levels)
    return tree


def save_tree(tree: DyadicTree, path) -> None:
    from .io import atomic_write_text

    atomic_write_text(path, dumps_tree(tree))


def load_tree(path) -> DyadicTree:
    with open(path, "r", encoding="ascii") as fh:
        return loads_tree(fh.read())
