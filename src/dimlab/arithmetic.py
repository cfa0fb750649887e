"""Arithmetic on discretized sets: sumsets, differences, distances.

Index sumsets realize F1(n) + F2(n) = {i + j} at a fixed level n.  One
kernel computes them and the difference, iterated and semigroup sums by the
cheapest of three exact numpy routes, chosen by one cost rule: the index
pairs formed in bounded blocks and marked in one boolean grid over the
extent of the sums, then read back in order; the same blocks sorted and
deduped, for extents too wide to mark; or an FFT convolution of length L of
the 0/1 indicators, written into one float64 buffer, whose spectra are
multiplied in place.  A difference set takes one forward transform, its
circular autocorrelation.  The kernel charges what it holds, not the grid
the sums live on: at most min(extent, |A|·|B|) distinct sums, the pairs of
each block, the marked grid, or the transform.  The exact pair count sits
inside the covering bracket [N/2, 2N] for the true sumset, as SumsetReport
records.

Distance sets use the same kernel.  Two cell centers differ by an exact
index difference times 2^-n, so the distances depend only on the distinct
nonnegative difference vectors (|dx_1|, ..., |dx_d|), which are far fewer
than the cell pairs.  A product grid A_1 x ... x A_d has the product of the
axes' 1-d differences as its vectors; any other grid packs each cell into
one mixed-radix code, whose 1-d differences decode uniquely into vectors.
No kernel forms all cell pairs, and runs of vectors map to distance intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import DyadicTree, _check_grid, _dedupe_sorted, _require_integers
from .budget import charge, current_cap

_BLOCK_PAIRS = 1 << 18  # outer-sum pairs or distance boxes formed at once
# Route costs in units of one step of a transform of length L <= 2^16, of
# which such a transform takes L·log2 L.  Timed on random operands on
# 2^4..2^21 grids (numpy 2.4.6, 2 cores, one thread): a unit is ~3 ns; a
# least-squares fit gives 4.0 units a sorted pair, and a marked pair 1.23 and
# a marked cell 0.15 up to 2^16 cells, 0.5-0.9 past that.  Past 2^16 a step
# costs more as the transform leaves the cache: relative to its cost up to
# 2^16, 2.0x at 2^21 and 2.5x at 2^22 in one set of runs (3.1, 6.3 and
# 7.9 ns), 1.8x and 2.5x in another.  A least-squares line through the
# ratio against log2 L - 16, at L = 2^17..2^22, has slope 0.17 and 0.24 in
# the two sets: _STEP_GROWTH.  Timed against the marked route, 2^18..2^20
# transforms break even with 1.6-2.0 units a step.
_SORT_COST = 5  # one outer-sum pair formed, sorted and deduped
_MARK_COST = 1.2  # one outer-sum pair formed and marked
_CELL_COST = 0.5  # one cell of the marked grid zeroed and scanned
_FFT_CALL = 40_000  # per FFT call; tiny sums never load numpy.fft (0.4 MB)
_STEP_GROWTH = 0.25  # units a transform step gains per doubling of L past 2^16
_ROUNDING = 64 * 2.0**-53  # c·u of the FFT rounding bound, u = 2^-53


def _route(na: int, nb: int, extent: int) -> tuple[str, int]:
    """The cheapest exact route for na·nb pairs whose sums span `extent`
    cells, "fft", "marks" or "sort", and the transform length L, the least
    2^j or 3·2^j covering the extent.  A transform needs L to fit the budget
    and its rounding bound below 1/2; marks need the extent to fit it."""
    length = 1 << (extent - 1).bit_length()
    if 4 * extent <= 3 * length:
        length = 3 * length // 4
    log = max(1, length.bit_length() - 1)
    pairs = na * nb
    cost = {"sort": _SORT_COST * pairs}
    if extent <= current_cap():
        cost["marks"] = _MARK_COST * pairs + _CELL_COST * extent
    if length <= current_cap() and _ROUNDING * log * math.sqrt(pairs) < 0.5:
        step = 1 + _STEP_GROWTH * max(0, log - 16)
        cost["fft"] = step * length * log + _FFT_CALL
    return min(cost, key=cost.get), length


def _outer_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{i + j} by blocks of rows b[i:j, None] + a of up to 2^18 pairs, or
    the budget if smaller, each charged before it is formed, then sorted
    and deduped.  The parts are merged whenever the later ones hold more
    cells than the first, so they never hold more than twice the distinct
    sums plus one block."""
    if a.size < b.size:
        a, b = b, a
    rows = max(1, min(_BLOCK_PAIRS, current_cap()) // a.size)
    parts, held = [], 0
    for start in range(0, b.size, rows):
        charge(min(rows, b.size - start) * a.size, "sumset pairs")
        block = (b[start : start + rows, None] + a).ravel()
        block.sort()  # in place: a sorted copy would hold the block twice
        parts.append(_dedupe_sorted(block))
        held += parts[-1].size
        if held > 2 * parts[0].size or len(parts) > 1 and start + rows >= b.size:
            block = np.concatenate(parts)
            block.sort()
            parts = [_dedupe_sorted(block)]
            held = parts[0].size
    return parts[0]


def _marked_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """{i + j} by one boolean grid over the extent of the sums, charged
    before it is allocated: each block of rows b[i:j, None] + a, of up to
    2^18 pairs or the budget if smaller and charged as _outer_sums charges
    it, marks its sums, which are then read back in order.  Nothing is
    sorted."""
    if a.size < b.size:
        a, b = b, a
    base = a[0] + b[0]
    extent = int(a[-1] + b[-1] - base) + 1
    charge(extent, "sumset marks")
    hit = np.zeros(extent, dtype=bool)
    rows = max(1, min(_BLOCK_PAIRS, current_cap()) // a.size)
    b = b - base
    for start in range(0, b.size, rows):
        charge(min(rows, b.size - start) * a.size, "sumset pairs")
        hit[np.add.outer(b[start : start + rows], a)] = True
    sums = np.flatnonzero(hit)
    sums += base
    return sums


def _fft_counts(a: np.ndarray, b: np.ndarray, length: int, reflected: bool = False) -> np.ndarray:
    """The count of pairs summing to a[0] + b[0] + s, s = 0 .. length - 1,
    in float64: the convolution of the 0/1 indicators of a - a[0] and
    b - b[0] by real transforms of `length`, at least the extent of the
    sums.  The indicators are written into one float64 buffer, which also
    takes the inverse transform, and the spectra are multiplied in place; a
    sum a + a takes one forward transform.  So does a reflected b, which is
    r - a[::-1] for some r: its spectrum is the conjugate of a's up to a
    phase, so the counts are the circular autocorrelation |F|² of a, read
    from L - off (the most negative difference, off = a[-1] - a[0]) round
    to off, and only their first 2·off + 1 entries are returned.  For 0/1
    inputs the rounding error is at most about c·u·log2(L)·sqrt(|A|·|B|),
    u = 2^-53, which _route keeps below 1/2; with c = 64 it is under 1e-4
    for every grid the default budget admits."""
    charge(length, "sumset transform")
    buf = np.zeros(length)
    buf[a - a[0]] = 1.0
    fa = np.fft.rfft(buf)
    if reflected:
        np.multiply(fa, fa.conj(), out=fa)
    elif b is a:
        np.square(fa, out=fa)
    else:
        buf.fill(0.0)
        buf[b - b[0]] = 1.0
        fa *= np.fft.rfft(buf)
    counts = np.fft.irfft(fa, length, out=buf)
    if not reflected:
        return counts
    off = int(a[-1] - a[0])
    return np.concatenate((counts[length - off :], counts[: off + 1]))


def _sum_indices(a: np.ndarray, b: np.ndarray, reflected: bool = False) -> np.ndarray:
    """{i + j} of two sorted distinct nonnegative index arrays, by the
    cheapest route.  It charges the most sums there can be, the least of
    their extent and |A|·|B|; the outer route holds at most twice that plus
    one block, the marked route one flag per cell of the extent, and the
    transform route one float64 buffer of its length and two spectra.
    reflected tells that b is r - a[::-1], so the sums are the differences
    of a shifted by r: a transform then runs once forward."""
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    if int(a[-1]) + int(b[-1]) >= 1 << 63:
        raise ValueError(f"sums up to {int(a[-1]) + int(b[-1])} do not fit int64")
    extent = int(a[-1] - a[0] + b[-1] - b[0]) + 1
    charge(min(extent, a.size * b.size), "sumset grid")
    route, length = _route(a.size, b.size, extent)
    if route == "fft":
        if b is not a and a.size == b.size and np.array_equal(a, b):
            b = a  # equal operands held apart take the one-transform square
        return np.flatnonzero(_fft_counts(a, b, length, reflected) > 0.5) + (a[0] + b[0])
    return _marked_sums(a, b) if route == "marks" else _outer_sums(a, b)


@dataclass(frozen=True)
class SumsetReport:
    """level, exact pair-sum count, and the implied covering bracket."""

    level: int
    count_exact: int
    bracket: tuple[float, float]

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "count_exact": self.count_exact,
            "bracket": list(self.bracket),
        }


def index_sumset(a: DyadicTree, b: DyadicTree, level: int) -> tuple[DyadicTree, SumsetReport]:
    """Sum the level-`level` occupancies; result spans a.span + b.span.
    Here and below, a.array(level) refuses a level outside 0..depth."""
    sums = _sum_indices(a.array(level), b.array(level))
    tree = DyadicTree.from_leaves(level, a.span + b.span, sums)
    report = SumsetReport(level, sums.size, (sums.size / 2.0, 2.0 * sums.size))
    return tree, report


def iterated_sumset(a: DyadicTree, k: int, level: int) -> DyadicTree:
    """k-fold index sumset at the given level.  Exact integer sums, so the
    result is independent of folding order; it doubles by the bits of k,
    jA to 2jA and then to 2jA + A on a 1 bit."""
    if k < 1:
        raise ValueError(f"fold count k={k} must be >= 1")
    idx = part = a.array(level)
    for bit in bin(k)[3:]:
        part = _sum_indices(part, part)
        if bit == "1":
            part = _sum_indices(part, idx)
    return DyadicTree.from_leaves(level, a.span * k, part)


def _differences(idx: np.ndarray) -> tuple[np.ndarray, int]:
    """Every difference i - j of the sorted indices, shifted by offset =
    max - min so the most negative lands at 0, and the offset."""
    offset = int(idx[-1] - idx[0])
    shifted = idx - idx[0]
    return _sum_indices(shifted, offset - shifted[::-1], reflected=True), offset


def difference_set(a: DyadicTree, level: int) -> tuple[DyadicTree, int]:
    """{i - j} shifted by offset = max - min of the occupied indices, so the
    most negative difference lands at 0.  Returns the tree (span doubled)
    and the offset; the occupancy is symmetric about the offset cell.
    """
    idx = a.array(level)
    if idx.size == 0:
        return DyadicTree.from_leaves(level, 2 * a.span, []), 0
    sums, offset = _differences(idx)
    return DyadicTree.from_leaves(level, 2 * a.span, sums), offset


def delta_dense_check(a: DyadicTree, delta_level: int, upper: float) -> bool:
    """Whether every level-`delta_level` cell meeting [0, upper] is within
    one cell of an occupied cell (a 2 * 2^-delta_level density surrogate)."""
    idx = a.array(delta_level)
    if not 0.0 <= upper <= a.span:
        raise ValueError(f"upper={upper} outside [0, {a.span}]")
    hi = min(int(upper * (1 << delta_level)), a.capacity(delta_level) - 1)
    charge(hi + 3, "density grid")
    occ = np.zeros(hi + 3, dtype=bool)  # cells -1 .. hi + 1
    occ[idx[: np.searchsorted(idx, hi + 2)] + 1] = True
    return bool((occ[:-2] | occ[1:-1] | occ[2:]).all())


# -- d-dimensional grids -------------------------------------------------


def _distinct_rows(a: np.ndarray) -> np.ndarray:
    """The distinct rows of an (N, d) integer array in lexicographic order,
    by one lexsort and an adjacent-row dedupe, never sharing memory with a."""
    s = a.take(np.lexsort(a.T[::-1]), axis=0)
    first = np.zeros(len(s), dtype=bool)
    first[:1] = True
    for col in s.T:
        first[1:] |= col[1:] != col[:-1]
    return s.compress(first, axis=0)


def _split_levels(cells: np.ndarray, depth: int) -> np.ndarray:
    """For distinct cells sorted once in Morton order, which keeps each cell's
    descendants contiguous at every level, part[i] = depth + 1 - max over the
    axes of bitlen(p xor q), the level at which the i-th adjacent pair p, q
    parts.  Sort key j spreads bits [j·w, (j + 1)·w) of each axis, w = 63 // d,
    to stride d by masks; bitlen is exact, by searchsorted on powers of two."""
    d = cells.shape[1]
    width = 63 // d
    steps = [(s * (d - 1), sum(1 << (b // s * s * d + b % s) for b in range(width))) for s in (16, 8, 4, 2, 1)]
    keys = []
    for low in range(0, int(cells.max(initial=0)).bit_length(), width):
        x = cells >> low
        x &= (1 << width) - 1
        for shift, mask in steps:
            x |= x << shift
            x &= mask
        x <<= np.arange(d - 1, -1, -1)
        keys.append(np.bitwise_or.reduce(x, axis=1))
        del x
    s = cells.take(np.lexsort(keys), axis=0) if keys else cells
    del keys
    apart = np.bitwise_or.reduce(s[1:] ^ s[:-1], axis=1)
    del s
    part = np.searchsorted(np.left_shift(1, np.arange(63)), apart, side="right")
    return np.subtract(depth + 1, part, out=part)


def _index_words(n: int, d: int, top: int) -> int:
    """The most int64 words _split_levels holds at once beside its input,
    for n cells of d axes whose largest coordinate is top, with
    k = ceil(bitlen(top) / (63 // d)) sort keys of n words each: while key j
    is spread, the j earlier keys, x and one shifted copy of it, (k - 1 + 2d)·n;
    while sorting, the keys, the order and the sorted cells, (k + 1 + d)·n;
    while adjacent cells are compared, the sorted cells, their xor and its
    reduction, (2d + 1)·n.  The levels and their bit lengths take 2n last."""
    k = -(-top.bit_length() // (63 // d))
    return n * max(k - 1 + 2 * d, k + 1 + d, 2 * d + 1)


def _increasing_rows(a: np.ndarray) -> bool:
    """Whether the rows of an (N, d) array strictly increase in
    lexicographic order, by one comparison of adjacent rows per column."""
    later, earlier = a[1:], a[:-1]
    ahead = np.zeros(len(later), dtype=bool)
    tied = np.ones(len(later), dtype=bool)
    for i in range(a.shape[1]):
        ahead |= tied & (later[:, i] > earlier[:, i])
        tied &= later[:, i] == earlier[:, i]
    return bool(ahead.all())


class GridSetD:
    """A finite set of occupied level-`depth` grid cells in d dimensions,
    d in {1, 2, 3}, over [0, span)^d.  Immutable after construction.

    The cells are held as one read-only (N, d) int64 array of distinct rows
    in lexicographic order, returned by array(); `cells` converts it to a
    sorted tuple of tuples on each read.  The index that counts coarser
    levels (_split_levels) is built on first use.  The constructor takes
    the cells in any order, with repeats, as integer tuples or an integer
    array; floats, booleans, strings and cells outside the grid raise
    ValueError, as do a depth and span that dyadic._check_grid refuses, so
    every grid built is one that loads_grid reads back.
    """

    __slots__ = ("dimension", "depth", "span", "_array", "_part")

    def __init__(self, dimension: int, depth: int, span: int, cells):
        if dimension not in (1, 2, 3):
            raise ValueError(f"dimension {dimension} not in {{1, 2, 3}}")
        _check_grid(depth, span)
        arr = _cell_array(cells, dimension, span << depth)
        self._set(dimension, depth, span, _distinct_rows(arr))

    @classmethod
    def _trusted(cls, dimension: int, depth: int, span: int, arr: np.ndarray) -> "GridSetD":
        """Trusted constructor: arr is an (N, dimension) int64 array of
        distinct in-grid rows in lexicographic order, owned by the grid."""
        grid = cls.__new__(cls)
        grid._set(dimension, depth, span, arr)
        return grid

    def _set(self, dimension: int, depth: int, span: int, arr: np.ndarray) -> None:
        arr.flags.writeable = False
        for name, value in zip(self.__slots__, (dimension, depth, span, arr, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"GridSetD is immutable: cannot set {name}")

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._array.tolist()))

    def array(self) -> np.ndarray:
        """The cells as a read-only (N, d) int64 array in lexicographic order."""
        return self._array

    def _index(self) -> np.ndarray:
        """The split levels of the cells in Morton order, built on first use."""
        if self._part is None:
            a = self._array
            charge(_index_words(len(a), self.dimension, int(a.max(initial=0))), "grid index")
            object.__setattr__(self, "_part", _split_levels(a, self.depth))
        return self._part

    def count(self, n: int) -> int:
        """Occupied level-n cells: 1 + #(part <= n) below the finest level."""
        if not 0 <= n <= self.depth:
            raise ValueError(f"level {n} outside 0..{self.depth}")
        if n == self.depth or len(self._array) == 0:
            return len(self._array)
        return 1 + int(np.count_nonzero(self._index() <= n))

    def descendant_counts(self, k: int, m: int) -> np.ndarray:
        """Per occupied level-k cell in Morton order (not lexicographic), its
        level-(k+m) cells: the cells that open one, summed per level-k cell."""
        if not 0 <= k <= k + m <= self.depth:
            raise ValueError(f"levels {k}..{k + m} outside 0..{self.depth}")
        part = self._index()
        heads = np.flatnonzero(np.append(len(self._array) > 0, part <= k))
        return np.add.reduceat(np.append(True, part <= k + m), heads, dtype=np.int64)

    def centers(self) -> np.ndarray:
        return (self._array + 0.5) * 2.0 ** -self.depth

    def _key(self) -> tuple:
        return (self.dimension, self.depth, self.span)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSetD):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self._key(), self._array.tobytes()))

    def __repr__(self) -> str:
        return (
            f"GridSetD(dimension={self.dimension}, depth={self.depth}, "
            f"span={self.span}, cells={len(self._array)})"
        )


def _cell_array(cells, d: int, cap: int) -> np.ndarray:
    """The cells as an (N, d) int64 array, checked to be integer indices of
    the cap^d grid."""
    if isinstance(cells, np.ndarray):
        arr = cells
        if arr.dtype.kind not in "iu":
            raise ValueError(f"grid cells must be integers, got {arr.dtype} input")
    else:
        seq = cells if isinstance(cells, (list, tuple)) else list(cells)
        _require_integers((c for cell in seq for c in cell), "grid cells")
        bad = next((cell for cell in seq if len(cell) != d), None)
        if bad is not None:
            raise ValueError(f"cell {tuple(bad)} is not {d}-dimensional")
        arr = np.asarray(seq).reshape(len(seq), d)
        if arr.dtype.kind not in "iu":  # a float array, for a coordinate outside int64: name it exactly
            arr = np.array([list(map(int, cell)) for cell in seq], dtype=object).reshape(len(seq), d)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise ValueError(f"cells of shape {arr.shape} are not {d}-dimensional")
    if arr.size and (arr.min() < 0 or arr.max() >= cap):
        outside = arr[(arr < 0).any(axis=1) | (arr >= cap).any(axis=1)]
        raise ValueError(f"cell {min(map(tuple, outside.tolist()))} outside the {cap}^d grid")
    return arr.astype(np.int64, copy=False)


def grid_product(trees: Sequence[DyadicTree]) -> GridSetD:
    """Cartesian product of 1-d leaf occupancies, charged d coordinates a cell."""
    d = len(trees)
    if d not in (1, 2, 3):
        raise ValueError(f"need 1..3 factors, got {d}")
    depth = trees[0].max_depth
    span = trees[0].span
    if any(t.max_depth != depth or t.span != span for t in trees):
        raise ValueError("factors must share depth and span")
    sizes = [t.count(depth) for t in trees]
    charge(d * math.prod(sizes), "grid product")
    # sorted, distinct factor levels give distinct rows in lexicographic order
    cells = np.empty((*sizes, d), dtype=np.int64)
    for i, t in enumerate(trees):
        cells[..., i] = t.array(depth).reshape([-1 if j == i else 1 for j in range(d)])
    return GridSetD._trusted(d, depth, span, cells.reshape(-1, d))


def _nonneg_differences(idx: np.ndarray) -> np.ndarray:
    """The differences |i - j| >= 0 of sorted distinct indices."""
    sums, offset = _differences(idx)
    return sums[sums >= offset] - offset


def _difference_vectors(f: GridSetD) -> tuple[list[np.ndarray], np.ndarray, bool]:
    """The distinct vectors (|x_1 - y_1|, ..., |x_d - y_d|) over all cell
    pairs of f, as sorted values per axis and a boolean grid over them:
    the vector (values[0][i], values[1][j], ...) occurs iff seen[i, j, ...].
    The flag tells whether f is a product grid."""
    cells = f.array()
    axes = [_dedupe_sorted(np.sort(cells[:, i])) for i in range(f.dimension)]
    if math.prod(a.size for a in axes) == len(cells):
        diffs = [_nonneg_differences(a) for a in axes]
        # every combination occurs; a broadcast view holds no memory
        return diffs, np.broadcast_to(np.True_, tuple(d.size for d in diffs)), True
    # code = sum_i x_i * radix_i in radix 2 * extent_i - 1: a code difference
    # has one balanced digit per axis, in [-(extent_i - 1), extent_i - 1]
    cells = cells - cells.min(axis=0)
    extents = [int(e) for e in cells.max(axis=0) + 1]
    radices = [math.prod(2 * e - 1 for e in extents[:i]) for i in range(f.dimension)]
    if sum((e - 1) * r for e, r in zip(extents, radices)) >= 1 << 63:
        raise ValueError(f"codes of a grid of extents {extents} do not fit int64")
    charge(math.prod(extents), "distance vectors")
    codes = np.sort(cells @ np.asarray(radices, dtype=np.int64))
    rest = _nonneg_differences(codes)
    seen = np.zeros(extents, dtype=bool)
    digits = []
    for e in extents:
        digit = (rest + (e - 1)) % (2 * e - 1) - (e - 1)
        digits.append(np.abs(digit))
        rest = (rest - digit) // (2 * e - 1)
    seen[tuple(digits)] = True
    return [np.arange(e) for e in extents], seen, False


def _isqrt(s: np.ndarray) -> np.ndarray:
    """floor(sqrt(s)) of int64 s < 2^63: the floor of the float root, exact
    below 2^52 (s is exact and sqrt correctly rounded, and (k+1)² - 1 keeps
    its root more than half an ulp below k + 1).  Past 2^52 it is off by at
    most one, so an exact integer fix follows; r < 2^31.5, so r·r never
    overflows."""
    r = np.sqrt(s).astype(np.int64)
    if s.size and s.max() >= 1 << 52:
        r -= r * r > s
        r += s - r * r > 2 * r
    return r


def distance_set(f: GridSetD) -> DyadicTree:
    """Cells of pairwise center-to-center distances, widened one cell each
    side; always contains the cell of 0.  Output depth matches f.

    A difference vector v >= 0 lands in distance cell isqrt(|v|²).  A step
    of 1 in one coordinate moves |v| by at most 1 (triangle inequality), so
    isqrt never skips a cell and, v being nonnegative, never falls: a box of
    runs of consecutive differences, the product of the axes' runs or a run
    along the last axis of seen, hits exactly isqrt(Σ lo²) .. isqrt(Σ hi²),
    along a monotone lattice path between its corners.  The widened
    intervals, in blocks of up to 2^18 boxes or the budget, each charged,
    join by one difference array and one cumulative sum, in exact int64.
    """
    if len(f.array()) == 0:
        raise ValueError("empty grid set")
    n = f.depth
    values, seen, product = _difference_vectors(f)
    top = sum(int(v[-1]) ** 2 for v in values)
    if top >= 1 << 63:
        raise ValueError(f"squared distances up to {top} do not fit int64")
    if product:  # (lo², hi²) of the runs [lo, hi] of consecutive values on each axis
        cuts = [np.flatnonzero(np.diff(v) != 1) + 1 for v in values]
        squares = [(v[np.append(0, c)] ** 2, v[np.append(c - 1, -1)] ** 2) for v, c in zip(values, cuts)]
    else:  # of the runs of True along the last axis of seen, whose indices are the vectors
        row, col = np.nonzero(np.diff(seen.reshape(-1, seen.shape[-1]), axis=1, prepend=False, append=False))
        base = sum(x * x for x in np.unravel_index(row[::2], seen.shape[:-1]))
        squares = [(base + col[::2] ** 2, base + (col[1::2] - 1) ** 2)]
    span = max(1, math.ceil(math.sqrt(top if product else int(squares[0][1].max())) * 2.0**-n - 1e-9))
    cap = span << n
    charge(cap + 1, "distance bitmap")
    ends = np.zeros(cap + 1, dtype=np.int64)
    lo2, hi2 = (np.ix_(*side) for side in zip(*squares))
    row = math.prod(lo.size for lo, _ in squares[1:])
    rows = max(1, min(_BLOCK_PAIRS, current_cap()) // row)
    for start in range(0, lo2[0].size, rows):
        charge(min(rows, lo2[0].size - start) * row, "distance boxes")
        lo = _isqrt(sum(lo2[1:], lo2[0][start : start + rows]).ravel())
        hi = _isqrt(sum(hi2[1:], hi2[0][start : start + rows]).ravel())
        np.add.at(ends, np.clip(lo - 1, 0, cap), 1)
        np.add.at(ends, np.minimum(hi + 2, cap), -1)
    return DyadicTree.from_leaves(n, span, np.flatnonzero(np.cumsum(ends[:-1]) > 0))
