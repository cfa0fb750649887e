"""Shared fixtures and exact-arithmetic oracles for the test suite."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dimlab import DyadicTree, FormatError, GridSetD
from dimlab.arithmetic import _difference_vectors, _distinct_rows
from dimlab.budget import charge
from dimlab.dyadic import _clip, _expand_runs, _ints, _level_array, _read_header, cell_of

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def cantor_cells_exact(depth: int) -> tuple[int, ...]:
    """Level-`depth` cells meeting the middle-thirds Cantor set, by exact
    Fraction refinement of the ternary construction.  Pieces are [a, b]
    closed; a cell is marked iff a piece endpoint lies in it, which is
    exact once pieces are shorter than cells."""
    third = Fraction(1, 3)
    pieces = [(Fraction(0), Fraction(1))]
    while pieces[0][1] - pieces[0][0] >= Fraction(1, 2**depth):
        nxt = []
        for lo, hi in pieces:
            span = (hi - lo) * third
            nxt.append((lo, lo + span))
            nxt.append((hi - span, hi))
        pieces = nxt
    cells = set()
    scale = 2**depth
    for lo, hi in pieces:
        first = min(int(lo * scale), scale - 1)
        last = min(int(hi * scale), scale - 1)
        cells.update(range(first, last + 1))
    return tuple(sorted(cells))


def from_leaves_oracle(max_depth: int, span: int, leaves) -> DyadicTree:
    """A saturated tree by a hash-based np.unique on every level and the
    copying constructor: the independent check of `DyadicTree.from_leaves`."""
    arr = np.unique(np.asarray(list(leaves), dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= span << max_depth):
        raise ValueError(f"leaf index out of range at depth {max_depth} (span {span})")
    stack = [arr]
    for _ in range(max_depth):
        arr = np.unique(arr >> 1)
        stack.append(arr)
    return DyadicTree(max_depth, span, tuple(tuple(a.tolist()) for a in reversed(stack)))


def sum_indices_oracle(a, b) -> np.ndarray:
    """{i + j} as a sorted int64 array, by a set merge over every index
    pair: the slow, independent check of the sumset kernel's two routes."""
    a, b = np.asarray(a).tolist(), np.asarray(b).tolist()
    sums = {i + j for i in a for j in b}
    return np.fromiter(sorted(sums), dtype=np.int64, count=len(sums))


def bitmask_of(indices: np.ndarray, size: int) -> int:
    """Pack sorted cell indices into an integer bit grid of `size` bits."""
    if indices.size == 0:
        return 0
    bits = np.zeros(size, dtype=np.uint8)
    bits[indices] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def indices_of_bitmask(mask: int, size: int) -> np.ndarray:
    """Unpack a bit grid back into a sorted int64 index array."""
    if mask == 0:
        return np.empty(0, dtype=np.int64)
    raw = mask.to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]
    return np.nonzero(bits)[0].astype(np.int64)


def shift_or(mask: int, shifts) -> int:
    """OR of the bit grid shifted by each shift: the sumset of cell indices."""
    out = 0
    for s in shifts:
        out |= mask << int(s)
    return out


def iterated_sumset_oracle(idx: np.ndarray, k: int, cap: int) -> np.ndarray:
    """kA of sorted indices below cap, by k - 1 shift-ors of a Python-int
    bit grid: the parity check of `iterated_sumset`."""
    part = bitmask_of(idx, k * cap)
    for _ in range(k - 1):
        part = shift_or(part, idx)
    return indices_of_bitmask(part, k * cap)


def semigroup_oracle(gcells, size: int) -> tuple[np.ndarray, bool]:
    """The grid saturation of the generator cells below size, by bit-grid
    shift-or rounds, and whether it converged within 64 rounds: the parity
    check of `semigroup_tree`."""
    full = (1 << size) - 1
    state = bitmask_of(np.asarray(gcells, dtype=np.int64), size)
    for _ in range(64):
        nxt = state | (shift_or(state, gcells) & full)
        if nxt == state:
            return indices_of_bitmask(state, size), True
        state = nxt
    return indices_of_bitmask(state, size), False


def delta_dense_oracle(tree, level: int, upper: float) -> bool:
    """`delta_dense_check` by a bit grid widened one cell each way."""
    cap = tree.capacity(level)
    hi = min(int(upper * (1 << level)), cap - 1)
    occ = bitmask_of(tree.array(level), cap)
    wide = occ | (occ << 1) | (occ >> 1)
    need = (1 << (hi + 1)) - 1
    return wide & need == need


def distance_set_oracle(f) -> DyadicTree:
    """The distance set by a float pair loop over every cell pair, in blocks
    of up to 4e6 pairs: the slow, independent check of `distance_set`."""
    n = f.depth
    centers = f.centers()
    bound = int(math.ceil(math.sqrt(f.dimension) * f.span)) + 1
    bitmap = np.zeros(bound << n, dtype=bool)
    scale = float(1 << n)
    dmax = 0.0
    rows = max(1, min(len(centers), int(4_000_000 // max(1, len(centers)))))
    for start in range(0, len(centers), rows):
        block = centers[start : start + rows]
        diff = block[:, None, :] - centers[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)).ravel()
        dmax = max(dmax, float(dist.max()))
        k = np.minimum((dist * scale).astype(np.int64), bitmap.size - 1)
        bitmap[k] = True
    span = max(1, int(math.ceil(dmax - 1e-9)))
    idx = np.nonzero(bitmap)[0]
    cap = span << n
    widened = np.unique(np.clip(np.concatenate([idx - 1, idx, idx + 1]), 0, cap - 1))
    return DyadicTree.from_leaves(n, span, widened)


def distance_set_sqrt_oracle(f) -> DyadicTree:
    """The distance set by one float square root per distinct difference
    vector of `_difference_vectors`, in blocks of up to 4e6 vectors, marked
    in a bitmap: the vector route that the run intervals of `distance_set`
    replace, fast enough for the deep dusts the pair oracle cannot reach."""
    n = f.depth
    values, seen, _ = _difference_vectors(f)
    squares = np.ix_(*[(v * 2.0 ** -n) ** 2 for v in values])
    bound = int(math.ceil(math.sqrt(f.dimension) * f.span)) + 1
    bitmap = np.zeros(bound << n, dtype=bool)
    scale = float(1 << n)
    dmax = 0.0
    rows = max(1, 4_000_000 // seen[0].size)
    for start in range(0, len(values[0]), rows):
        block = sum(squares[1:], squares[0][start : start + rows])
        dist = np.sqrt(block[seen[start : start + rows]])
        dmax = max(dmax, float(dist.max(initial=0.0)))
        k = np.minimum((dist * scale).astype(np.int64), bitmap.size - 1)
        bitmap[k] = True
    span = max(1, int(math.ceil(dmax - 1e-9)))
    idx = np.nonzero(bitmap)[0]
    cap = span << n
    widened = np.clip(np.concatenate([idx - 1, idx, idx + 1]), 0, cap - 1)
    return DyadicTree.from_leaves(n, span, widened)


def grid_level_lexsort_oracle(f, n: int) -> np.ndarray:
    """The distinct level-n cells of a grid set in lexicographic order, by
    one lexsort of every cell per level: the per-level route that the
    split-level index replaces."""
    return f.array() if n == f.depth else _distinct_rows(f.array() >> (f.depth - n))


def grid_descendants_lexsort_oracle(f, k: int, m: int) -> np.ndarray:
    """Per occupied level-k cell in lexicographic order, its level-(k + m)
    cells, by a second lexsort of the level-(k + m) cells and the lengths of
    the runs of equal adjacent rows."""
    a = grid_level_lexsort_oracle(f, k + m) >> m
    s = a.take(np.lexsort(a.T[::-1]), axis=0)
    first = np.zeros(len(s), dtype=bool)
    first[:1] = True
    for col in s.T:
        first[1:] |= col[1:] != col[:-1]
    return np.diff(np.append(np.flatnonzero(first), len(s)))


def grid_rows_oracle(f) -> np.ndarray:
    """The cells of a grid set as an (N, d) int64 array, rebuilt from the
    `cells` tuples rather than read from the stored array."""
    return np.asarray(f.cells, dtype=np.int64).reshape(len(f.cells), f.dimension)


def grid_count_oracle(f, n: int) -> int:
    """Occupied level-n cells of a grid set by np.unique(axis=0): the
    independent check of the grid box counts."""
    return len(np.unique(grid_rows_oracle(f) >> (f.depth - n), axis=0))


def grid_descendants_oracle(f, m: int) -> list[np.ndarray]:
    """Per parent level k = 0..depth - m, the level-(k + m) descendant count
    of every occupied level-k vertex, by np.unique(axis=0): the independent
    check of the grid Assouad and lower estimates."""
    cells = grid_rows_oracle(f)
    out = []
    for k in range(0, f.depth - m + 1):
        at_km = np.unique(cells >> (f.depth - k - m), axis=0)
        _, counts = np.unique(at_km >> m, axis=0, return_counts=True)
        out.append(counts)
    return out


def dumps_grid_oracle(f) -> str:
    """The grid-set v1 text by a per-row formatter over the cell tuples."""
    lines = [f"grid-set v1 d={f.dimension} depth={f.depth} span={f.span}"]
    for cell in f.cells:
        lines.append(" ".join(str(c) for c in cell))
    return "\n".join(lines) + "\n"


def encode_level_oracle(level) -> str:
    """One dyadic-tree v1 level body by a Python walk over the sorted index
    tuple: the independent check of the array encoder in `dumps_tree`."""
    if not level:
        return ""
    runs = []
    start = prev = level[0]
    for j in level[1:]:
        if j == prev + 1:
            prev = j
            continue
        runs.append((start, prev - start + 1))
        start = prev = j
    runs.append((start, prev - start + 1))
    if 2 * len(runs) < len(level):
        return "RUNS " + " ".join(f"{s} {l}" for s, l in runs)
    return ",".join(str(j) for j in level)


def decode_level_oracle(body: str, cap: int) -> np.ndarray:
    """One level body of a grid of `cap` cells by the token parser that
    `_decode_level` falls back to, kept verbatim: Python tokens, a run-by-run
    range check, and the budget charge before the expansion.  The parity
    check of the decimal kernel, FormatError texts included."""
    body = body.strip()
    if not body:
        return np.empty(0, dtype=np.int64)
    if body.startswith("RUNS"):
        parts = _ints(body.split()[1:])
        if len(parts) % 2:
            raise FormatError(f"odd RUNS payload of {len(parts)} numbers")
        starts, lengths = parts[::2], parts[1::2]
        for start, length in zip(starts, lengths):
            if length < 1 or start < 0 or start + length > cap:
                raise FormatError(f"run ({start}, {length}) outside a level of {cap} cells")
        charge(sum(lengths), "RUNS payload")
        return _expand_runs(np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))
    return _level_array(_ints(body.split(",")))


def loads_grid_oracle(text: str) -> GridSetD:
    """A grid-set v1 text by the token parser that `loads_grid` falls back
    to, kept verbatim: every line split into Python tokens at once.  The
    parity check of the decimal kernel, FormatError texts included."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    d, depth, span = _read_header(lines, "grid-set", ("d", "depth", "span"))
    if d not in (1, 2, 3):
        raise FormatError(f"dimension {d} not in {{1, 2, 3}}")
    rows = [ln.split() for ln in lines[1:]]
    for ln, parts in zip(lines[1:], rows):
        if len(parts) != d:
            raise FormatError(f"expected {d} coordinates: {_clip(repr(ln))}")
    try:
        flat = np.array([tok for parts in rows for tok in parts], dtype=np.int64)
    except (ValueError, OverflowError):
        # name the culprit: a non-integer token, or an integer beyond int64
        for parts in rows:
            cell = tuple(_ints(parts))
            if any(not 0 <= c < span << depth for c in cell):
                raise FormatError(f"cell {_clip(str(cell))} outside the {span << depth}^d grid") from None
        raise
    try:
        return GridSetD(d, depth, span, flat.reshape(len(rows), d))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


@contextmanager
def kernel_for_every_size():
    """Let the decimal kernel read texts of any length: below
    _KERNEL_MIN_CHARS the parsers otherwise take the token path."""
    with mock.patch("dimlab.dyadic._KERNEL_MIN_CHARS", 0), mock.patch("dimlab.arithmetic._KERNEL_MIN_CHARS", 0):
        yield


def parse_outcome(parse, *args):
    """("ok", result) or (exception type, message): what a parser did."""
    try:
        return "ok", parse(*args)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, not handled
        return type(exc), str(exc)


def ifs_attractor_oracle(spec, depth: int) -> DyadicTree:
    """The attractor by the scalar refinement: a list of (a, b) pieces
    imaged by every map, tuple-sorted and merged while touching, one piece
    at a time, then placed by cell_of endpoint by endpoint.  The parity
    check of the array refinement in `ifs_attractor`."""
    lo, hi = spec.hull()
    pieces = [(lo, hi)]
    length = hi - lo
    target = 2.0 ** -depth
    while length >= target and length > 0.0:
        refined = sorted(
            (spec.r * a + t, spec.r * b + t) for a, b in pieces for t in spec.translations
        )
        pieces = [refined[0]]
        for a, b in refined[1:]:
            la, lb = pieces[-1]
            if a <= lb:
                if b > lb:
                    pieces[-1] = (la, b)
            else:
                pieces.append((a, b))
        length *= spec.r
    leaves = []
    for a, b in pieces:
        first = cell_of(min(max(a, 0.0), spec.span), depth, spec.span)
        last = cell_of(min(b, float(spec.span)), depth, spec.span)
        leaves.extend(range(first, last + 1))
    return DyadicTree.from_leaves(depth, spec.span, leaves)


def moran_tree_oracle(spec, depth: int) -> DyadicTree:
    """The Moran set by the scalar refinement: a list of lefts extended left
    by left, each placed by cell_of.  The parity check of `moran_tree`."""
    lefts = [0.0]
    g = 0
    length = 1.0
    target = 2.0 ** -depth
    while length >= target:
        if not isinstance(spec.lengths, str) and g >= len(spec.lengths):
            break
        g += 1
        length = spec.length(g)
        step = 2.0 * length
        lefts = [p + i * step for p in lefts for i in range(spec.branching)]
    extent = spec.tail_extent(g)
    leaves = []
    for p in lefts:
        leaves.extend(range(cell_of(p, depth, 1), cell_of(min(p + extent, 1.0), depth, 1) + 1))
    return DyadicTree.from_leaves(depth, 1, leaves)


def reciprocal_tree_oracle(depth: int) -> DyadicTree:
    """Cells of {1/k : k <= 2^depth} and of 0 by a set over every k: the
    parity check of `reciprocal_tree`."""
    size = 1 << depth
    leaves = {0} | {min(size // k, size - 1) for k in range(1, size + 1)}
    return DyadicTree.from_leaves(depth, 1, sorted(leaves))


def assert_same_tree(got: DyadicTree, want: DyadicTree) -> None:
    """Equal depth and span, and identical int64 arrays at every level."""
    assert (got.max_depth, got.span) == (want.max_depth, want.span)
    for n in range(want.max_depth + 1):
        assert got.array(n).dtype == np.int64
        assert np.array_equal(got.array(n), want.array(n)), f"level {n}"


def random_tree(rng: np.random.Generator, depth: int, p: float) -> DyadicTree:
    idx = np.zeros(1, dtype=np.int64)
    for _ in range(depth):
        keep = rng.random(idx.size) < p
        idx = np.sort(np.concatenate([idx << 1, (idx[keep] << 1) | 1]))
    return DyadicTree.from_leaves(depth, 1, idx)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987123)


@pytest.fixture(scope="session")
def cantor12():
    from dimlab import IfsSpec, ifs_attractor

    return ifs_attractor(IfsSpec(r=1 / 3, translations=(0.0, 2 / 3)), 12)
