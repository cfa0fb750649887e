"""Shared fixtures and exact-arithmetic oracles for the test suite."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dimlab import DyadicTree, FormatError, GridSetD, Vertex, ZeroMassError
from dimlab.arithmetic import _difference_vectors, _distinct_rows
from dimlab.budget import charge
from dimlab.dyadic import _check_grid, _expand_runs, _level_array, cell_of
from dimlab.io import _clip
from dimlab.measures import LN2, _child_starts, _level_offsets, _measure

settings.register_profile(
    "suite", max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# the tests the CI fuzz step names, fuzzed harder: pytest --hypothesis-profile parsers
settings.register_profile(
    "parsers", max_examples=1000, deadline=None,
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
    pair: the slow, independent check of the sumset kernel's three routes."""
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
    centers = (f.array() + 0.5) * 2.0**-n
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


def _ints(tokens: list[str]) -> list[int]:
    """The tokens as integers; FormatError quotes the first bad token and
    its index otherwise.  Kept verbatim from the token parser that the
    decimal kernel replaced."""
    try:
        return list(map(int, tokens))
    except ValueError:
        for pos, tok in enumerate(tokens):
            try:
                int(tok)
            except ValueError:
                raise FormatError(f"non-integer token {_clip(repr(tok))} at index {pos}") from None
        raise


# The grammar of both file formats, stated as the gates in front of the
# token parsers below.  Lines break at newlines, a \r before one is
# dropped, and lines of blanks (spaces and tabs) are skipped.  A number is
# ASCII digits, with blanks around it, below 2^63 and inside the grid.  A
# level body is a comma list, or RUNS and numbers separated by blanks; a
# grid row is numbers separated by blanks.
LEVEL_BODY = re.compile(r"[ \t]*(?:RUNS(?:[ \t]+[0-9]+)*|[0-9]+(?:[ \t]*,[ \t]*[0-9]+)*)?[ \t]*")
GRID_ROW = re.compile(r"[ \t]*[0-9]+(?:[ \t]+[0-9]+)*[ \t]*")
# Behind a closed gate a refusal reads only what NAMED_INT matches: the
# numbers and, to name them outside the grid, the negative ones.
NAMED_INT = re.compile("[0-9]+|-0*[1-9][0-9]*")


def grammar_lines(text: str) -> list[str]:
    """The lines of a file that are not blank."""
    return [ln for ln in text.replace("\r\n", "\n").split("\n") if ln.strip(" \t")]


def _named_ints(tokens: list[str]) -> list[int]:
    """_ints behind a closed gate: the first token NAMED_INT does not match
    is named as non-integer, unless _ints names an earlier one."""
    for pos, tok in enumerate(tokens):
        if not NAMED_INT.fullmatch(tok):
            _ints(tokens[:pos])
            raise FormatError(f"non-integer token {_clip(repr(tok))} at index {pos}")
    return _ints(tokens)


def decode_level_oracle(body: str, cap: int) -> np.ndarray:
    """One level body of a grid of `cap` cells by the token parser the
    decimal kernel replaced, kept verbatim behind the LEVEL_BODY gate:
    Python tokens, a run-by-run range check, and the budget charge before
    the expansion.  A body the gate refuses is read by _named_ints, and a
    list index that int64 cannot hold is named.  The parity check of the
    kernel, FormatError texts included."""
    ints = _ints if LEVEL_BODY.fullmatch(body) else _named_ints
    body = body.strip(" \t")
    if not body:
        return np.empty(0, dtype=np.int64)
    if re.match(r"RUNS(?![^ \t])", body):
        parts = ints(re.findall(r"[^ \t]+", body)[1:])
        if len(parts) % 2:
            raise FormatError(f"odd RUNS payload of {len(parts)} numbers")
        starts, lengths = parts[::2], parts[1::2]
        for start, length in zip(starts, lengths):
            if length < 1 or start < 0 or start + length > cap:
                raise FormatError(f"run ({start}, {length}) outside a level of {cap} cells")
        charge(sum(lengths), "RUNS payload")
        return _expand_runs(np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))
    parts = ints([tok.strip(" \t") for tok in body.split(",")])
    bad = next((j for j in parts if not 0 <= j < 1 << 63), None)
    if bad is not None:
        raise FormatError(f"index {_clip(str(bad))} outside a level of {cap} cells")
    return _level_array(parts)


def read_header_oracle(line: str, magic: str, keys: tuple[str, ...]) -> list[int]:
    """A header line's integer `keys` by the reader the one number rule
    replaced, which read each field by int(), behind a gate: a field that
    NAMED_INT does not match is refused as a bad field, though int() may
    read it.  The parity check of the header reader, FormatError texts
    included."""
    tokens = re.findall(r"[^ \t]+", line)
    if not tokens:
        raise FormatError("empty input")
    if tokens[:2] != [magic, "v1"]:
        raise FormatError(f"bad header: {_clip(repr(line))}")
    fields = {}
    for tok in tokens[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise FormatError(f"header token {_clip(repr(tok))} is not key=value")
        fields[key] = value
    try:
        if not all(NAMED_INT.fullmatch(fields[key]) for key in keys):
            raise ValueError("a field outside the number rule")
        values = {key: int(fields[key]) for key in keys}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header fields: {_clip(repr(line))}") from exc
    try:
        _check_grid(values["depth"], values["span"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return [values[key] for key in keys]


def loads_grid_oracle(text: str) -> GridSetD:
    """A grid-set v1 text by the token parser that `loads_grid` replaced,
    behind the GRID_ROW gate, its header by read_header_oracle: every line
    split into Python tokens at blanks at once, the coordinate counts
    checked, the rows read by _ints, or by _named_ints when a row fails the
    gate, the least cell outside the grid named, and the grid built by its
    constructor.  The parity check of the decimal kernel, FormatError texts
    included."""
    lines = grammar_lines(text)
    d, depth, span = read_header_oracle(lines[0] if lines else "", "grid-set", ("d", "depth", "span"))
    if d not in (1, 2, 3):
        raise FormatError(f"dimension {d} not in {{1, 2, 3}}")
    rows = [re.findall(r"[^ \t]+", ln) for ln in lines[1:]]
    for ln, parts in zip(lines[1:], rows):
        if len(parts) != d:
            raise FormatError(f"expected {d} coordinates: {_clip(repr(ln))}")
    ints = _ints if all(map(GRID_ROW.fullmatch, lines[1:])) else _named_ints
    cells = [tuple(ints(parts)) for parts in rows]
    outside = [cell for cell in cells if any(not 0 <= c < span << depth for c in cell)]
    if outside:
        raise FormatError(f"cell {_clip(str(min(outside)))} outside the {span << depth}^d grid")
    return GridSetD(d, depth, span, cells)


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
        last = cell_of(min(max(b, 0.0), spec.span), depth, spec.span)
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


def xlogx_oracle(w: np.ndarray) -> np.ndarray:
    """w log w with 0 log 0 := 0, by masked gathers and a scatter."""
    out = np.zeros_like(w)
    nz = w > 0.0
    out[nz] = w[nz] * np.log(w[nz])
    return out


def sum_upward_oracle(tree, leaf_masses) -> list[np.ndarray]:
    """The levels `from_leaf_masses` builds (and `counting_measure`, given
    one mass for every leaf): the leaf masses over their sum, each level
    above by `np.add.reduceat` of its child level over
    `tree.descendant_starts(n, 1)`, then every level over the root total
    unless that is exactly 1."""
    leaf = np.empty(tree.count(tree.max_depth))
    leaf[:] = leaf_masses
    levels = [leaf / float(leaf.sum())]
    for n in range(tree.max_depth - 1, -1, -1):
        levels.insert(0, np.add.reduceat(levels[0], tree.descendant_starts(n, 1)))
    total = float(levels[0].sum())
    return levels if total == 1.0 else [level / total for level in levels]


def position_oracle(tree, level: int, index: int) -> int:
    """Where index sits in a level, or -1 when that cell is unoccupied
    (`DyadicTree._position`), by np.searchsorted on the level's array."""
    if not 0 <= level <= tree.max_depth:
        raise ValueError(f"level {level} outside 0..{tree.max_depth}")
    a = tree.array(level)
    pos = int(np.searchsorted(a, index))
    return pos if pos < a.size and a[pos] == index else -1


def integers_oracle(values, what: str) -> None:
    """The integer rule: a ValueError naming the types unless every value is
    an int or a numpy integer, not a boolean."""
    if any(isinstance(x, bool) or not isinstance(x, (int, np.integer)) for x in values):
        raise ValueError(f"{what} must be integers, got {sorted({type(x).__name__ for x in values})}")


def vertex_oracle(v) -> Vertex:
    """The rule of every vertex entry point: a Vertex as it is; anything else
    by Vertex(*v), so a wrong arity is a TypeError, then the integer rule."""
    if isinstance(v, Vertex):
        return v
    v = Vertex(*v)
    integers_oracle(v, "vertex level and index")
    return v


def level_query_oracle(tree, name: str, *args):
    """tree.<name>(*args) for the level entry points array, count,
    descendant_starts and descendant_counts: the integer rule on every
    argument, the level check, then the answer by np.searchsorted or a
    run-head pass, arrays as lists."""
    if name in ("array", "count"):
        integers_oracle(args, "levels")
        a = tree.array(*args)
        return a.tolist() if name == "array" else a.size
    integers_oracle(args, "level and window")
    k, m = args
    if not 0 <= k <= k + m <= tree.max_depth:
        raise ValueError(f"levels {k}..{k + m} outside 0..{tree.max_depth}")
    shifted = tree.array(k + m) >> m
    starts = np.flatnonzero(np.diff(shifted, prepend=-1))
    return (starts if name == "descendant_starts" else np.diff(starts, append=shifted.size)).tolist()


def mass_oracle(mu, v) -> float:
    """`TreeMeasure.mass` by `position_oracle`, refusals in the same order."""
    level, index = vertex_oracle(v)
    pos = position_oracle(mu.tree, level, index)
    if pos < 0:
        raise ValueError(f"vertex (level={level}, index={index}) not occupied")
    return float(mu.masses[level][pos])


def descendant_slice_oracle(tree, v, m: int) -> slice:
    """v's level-(v.level + m) descendants in that level, by np.searchsorted."""
    below = tree.array(v[0] + m)
    return slice(*np.searchsorted(below, [v[1] << m, (v[1] + 1) << m]).tolist())


def descendant_count_oracle(tree, v, m: int) -> int:
    """`descendant_count` by an occupancy search and two np.searchsorted
    calls, refusals in the order of the checks: level, occupancy, window."""
    k, index = vertex_oracle(v)
    if not 0 <= k <= tree.max_depth:
        raise ValueError(f"vertex level {k} outside 0..{tree.max_depth}")
    if position_oracle(tree, k, index) < 0:
        raise ValueError(f"vertex (level={k}, index={index}) not occupied")
    if m < 0 or k + m > tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {k}")
    below = descendant_slice_oracle(tree, (k, index), m)
    return below.stop - below.start


def descendant_counts_oracle(tree, k: int, m: int) -> np.ndarray:
    """Per occupied level-k cell, its level-(k + m) cells, by two
    np.searchsorted calls on level k + m: the check of the
    `descendant_counts` path behind `assouad_estimate` and `lower_estimate`."""
    above, below = tree.array(k), tree.array(k + m)
    return np.searchsorted(below, (above + 1) << m) - np.searchsorted(below, above << m)


def local_per_scale_oracle(tree, m: int, reduce) -> tuple[tuple[int, float], ...]:
    """The per_scale of a tree's Assouad (reduce=max) or lower (min)
    estimate: per level k, log2 of the extreme oracle descendant count."""
    return tuple(
        (k, math.log2(reduce(descendant_counts_oracle(tree, k, m).tolist())))
        for k in range(tree.max_depth - m + 1)
    )


def least_squares_slope_oracle(xs, ys) -> Fraction:
    """The least-squares slope of the float ys on the integer xs, in exact
    rational arithmetic: the check of `box_estimate(...).slope` and
    `assouad_slope`."""
    xs, ys = list(map(Fraction, xs)), list(map(Fraction, ys))
    xbar, ybar = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum((x - xbar) ** 2 for x in xs)


def is_full_branching_oracle(tree, v, eps: float, m: int) -> bool:
    if not 0 <= eps <= 1:
        raise ValueError(f"eps={eps} outside [0, 1]")
    return descendant_count_oracle(tree, v, m) >= 2.0 ** ((1.0 - eps) * m)


def subtree_oracle(tree, v) -> DyadicTree:
    """`subtree` by a fresh saturation of the leaves below v."""
    v = vertex_oracle(v)
    descendant_count_oracle(tree, v, 0)  # refuses a level outside the tree or an unoccupied v
    depth = tree.max_depth - v.level
    leaves = tree.array(tree.max_depth)[descendant_slice_oracle(tree, v, depth)]
    return DyadicTree.from_leaves(depth, 1, leaves - (v.index << depth))


def restrict_renormalize_oracle(mu, v):
    """`restrict_renormalize` on `subtree_oracle`, the masses of each
    descendant slice over mu(v) and a fresh child-start pass."""
    v = vertex_oracle(v)
    mv = mass_oracle(mu, v)
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={v.level}, index={v.index}) has zero mass")
    sub = subtree_oracle(mu.tree, v)
    parts = [mu.masses[v.level + m][descendant_slice_oracle(mu.tree, v, m)] for m in range(sub.max_depth + 1)]
    offsets = _level_offsets(sub)
    return _measure(sub, offsets, np.concatenate(parts) / mv, _child_starts(sub, offsets))


def local_entropy_oracle(mu, v, m: int) -> float:
    """`local_entropy` by the per-call formula the window tables replace:
    the descendant slice by np.searchsorted, `float(np.sum(...))` of its
    w log w and `math.log`, refusals in the same order."""
    v = vertex_oracle(v)
    mv = mass_oracle(mu, v)
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={v.level}, index={v.index}) has zero mass")
    if m < 1 or v.level + m > mu.tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {v.level}")
    a = float(np.sum(xlogx_oracle(mu.masses[v.level + m][descendant_slice_oracle(mu.tree, v, m)])))
    return math.log(mv) - a / mv


def classify_local_oracle(mu, v, eps: float, m: int) -> str:
    """`classify_local` on the entropy of `local_entropy_oracle`."""
    h = local_entropy_oracle(mu, v, m) / (m * LN2)
    uniform, atomic = h >= 1.0 - eps, h <= eps
    return "both" if uniform and atomic else "uniform" if uniform else "atomic" if atomic else "neither"


def scale_profile_oracle(mu, eps: float, m: int, n: int):
    """`scale_profile` by a fresh `tree.descendant_starts(k, m)` run-head pass
    per window and masked gathers: the check of the composed child starts
    and the mask-free level kernels."""
    from dimlab.measures import LN2, LevelStats, ScaleProfile

    stats, I, J = [], [], []
    for k in range(n + 1):
        w = mu.masses[k]
        a = np.add.reduceat(xlogx_oracle(mu.masses[k + m]), mu.tree.descendant_starts(k, m))
        pos = w > 0.0
        h = np.zeros_like(w)
        h[pos] = (np.log(w[pos]) - a[pos] / w[pos]) / (m * LN2)
        uniform_frac = float(np.sum(w[pos & (h >= 1.0 - eps)]))
        atomic_frac = float(np.sum(w[pos & (h <= eps)]))
        stats.append(LevelStats(k, uniform_frac, atomic_frac))
        if uniform_frac > 1.0 - eps:
            I.append(k)
        if atomic_frac > 1.0 - eps:
            J.append(k)
    return ScaleProfile(eps, m, tuple(stats), tuple(I), tuple(J))


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
