"""Dyadic intervals and occupancy trees.

The level-n grid over a span of B unit intervals consists of the half-open
cells [k 2^-n, (k+1) 2^-n) for 0 <= k < B 2^n.  A DyadicTree records, for
every level 0..max_depth, the sorted set of occupied cell indices.  Trees are
saturated: occupancy is determined by the deepest level and propagated upward,
so every occupied cell has an occupied parent and (below max_depth) at least
one occupied child.

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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

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
    if not 0 <= x <= span:
        raise ValueError(f"x={x!r} outside [0, {span}]")
    return min(int(x * (1 << level)), (span << level) - 1)


class DyadicTree:
    """Occupancy tree over [0, span).  Immutable after construction.

    levels[n] is the sorted tuple of occupied indices at level n.  The
    constructor trusts its input; use :func:`validate` to audit hand-built
    trees, or :meth:`from_leaves` which saturates by construction.
    """

    __slots__ = ("max_depth", "span", "levels", "_arrays")

    def __init__(self, max_depth: int, span: int, levels: Iterable[Iterable[int]]):
        if max_depth < 0:
            raise ValueError(f"negative max_depth {max_depth}")
        if span < 1:
            raise ValueError(f"span must be a positive integer, got {span}")
        lv = tuple(tuple(int(i) for i in level) for level in levels)
        if len(lv) != max_depth + 1:
            raise ValueError(f"expected {max_depth + 1} levels, got {len(lv)}")
        self.max_depth = max_depth
        self.span = span
        self.levels = lv
        self._arrays: dict[int, np.ndarray] = {}

    @classmethod
    def from_leaves(cls, max_depth: int, span: int, leaves: Iterable[int]) -> "DyadicTree":
        """Build a saturated tree from its deepest-level occupancy."""
        arr = np.unique(np.asarray(list(leaves) if not isinstance(leaves, np.ndarray) else leaves, dtype=np.int64))
        if arr.size and (arr[0] < 0 or arr[-1] >= span << max_depth):
            raise ValueError(
                f"leaf index out of range at depth {max_depth} (span {span})"
            )
        stack = [arr]
        for _ in range(max_depth):
            arr = np.unique(arr >> 1)
            stack.append(arr)
        return cls(max_depth, span, tuple(tuple(a.tolist()) for a in reversed(stack)))

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.levels[self.max_depth]

    def count(self, level: int) -> int:
        return len(self.levels[level])

    def total_cells(self) -> int:
        return sum(len(level) for level in self.levels)

    def capacity(self, level: int) -> int:
        return self.span << level

    def density(self, level: int) -> float:
        return len(self.levels[level]) / self.capacity(level)

    def is_occupied(self, level: int, index: int) -> bool:
        lv = self.levels[level]
        pos = bisect_left(lv, index)
        return pos < len(lv) and lv[pos] == index

    def array(self, level: int) -> np.ndarray:
        """Occupied indices at a level as a cached int64 array."""
        a = self._arrays.get(level)
        if a is None:
            a = np.asarray(self.levels[level], dtype=np.int64)
            a.flags.writeable = False
            self._arrays[level] = a
        return a

    def __eq__(self, other) -> bool:
        if not isinstance(other, DyadicTree):
            return NotImplemented
        return (
            self.max_depth == other.max_depth
            and self.span == other.span
            and self.levels == other.levels
        )

    def __repr__(self) -> str:
        return (
            f"DyadicTree(depth={self.max_depth}, span={self.span}, "
            f"leaves={len(self.levels[self.max_depth])})"
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
    if not 0 <= level <= tree.max_depth:
        raise ValueError(f"level {level} outside 0..{tree.max_depth}")
    return len(tree.levels[level])


def _require_occupied(tree: DyadicTree, v: Vertex) -> None:
    if not 0 <= v.level <= tree.max_depth:
        raise ValueError(f"vertex level {v.level} outside 0..{tree.max_depth}")
    if not tree.is_occupied(v.level, v.index):
        raise ValueError(f"vertex (level={v.level}, index={v.index}) not occupied")


def descendant_range(tree: DyadicTree, v: Vertex, m: int) -> tuple[int, int]:
    """Positions [lo, hi) of v's level-(v.level+m) descendants in that level."""
    level = tree.levels[v.level + m]
    lo = bisect_left(level, v.index << m)
    hi = bisect_left(level, (v.index + 1) << m)
    return lo, hi


def descendant_count(tree: DyadicTree, v: Vertex, m: int) -> int:
    """Count occupied cells m levels below v inside v's cell."""
    v = Vertex(*v)
    _require_occupied(tree, v)
    if m < 0 or v.level + m > tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {v.level}")
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
    """The tree below v, rescaled to span 1 and depth max_depth - v.level."""
    v = Vertex(*v)
    _require_occupied(tree, v)
    depth = tree.max_depth - v.level
    levels = []
    for m in range(depth + 1):
        lo, hi = descendant_range(tree, v, m)
        base = v.index << m
        levels.append(tuple(j - base for j in tree.levels[v.level + m][lo:hi]))
    return DyadicTree(depth, 1, levels)


def validate(tree: DyadicTree) -> list[str]:
    """Audit tree invariants; returns human-readable violations (empty = ok)."""
    problems = []
    for n, level in enumerate(tree.levels):
        cap = tree.capacity(n)
        prev = -1
        for j in level:
            if not 0 <= j < cap:
                problems.append(f"level {n}: index {j} outside 0..{cap - 1}")
            if j <= prev:
                problems.append(f"level {n}: indices not strictly increasing at {j}")
            prev = j
    for n in range(1, tree.max_depth + 1):
        parents = set(tree.levels[n - 1])
        for j in tree.levels[n]:
            if j >> 1 not in parents:
                problems.append(f"parent-closure: level {n} index {j} has no parent")
    for n in range(tree.max_depth):
        children = tree.levels[n + 1]
        for j in tree.levels[n]:
            lo = bisect_left(children, j << 1)
            if lo >= len(children) or children[lo] > (j << 1) + 1:
                problems.append(f"leaf-support: level {n} index {j} has no child")
    return problems


# -- bit-grid helpers ----------------------------------------------------


def _bitmask_of(indices: np.ndarray, size: int) -> int:
    """Pack sorted cell indices into an integer bit grid of `size` bits."""
    if indices.size == 0:
        return 0
    bits = np.zeros(size, dtype=np.uint8)
    bits[indices] = 1
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _indices_of_bitmask(mask: int, size: int) -> np.ndarray:
    """Unpack a bit grid back into a sorted int64 index array."""
    if mask == 0:
        return np.empty(0, dtype=np.int64)
    raw = mask.to_bytes((size + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]
    return np.nonzero(bits)[0].astype(np.int64)


def _shift_or(mask: int, shifts: Iterable[int]) -> int:
    """OR of the bit grid shifted by each shift: the sumset of cell indices."""
    out = 0
    for s in shifts:
        out |= mask << int(s)
    return out


# -- serialization -------------------------------------------------------


def _encode_level(level: tuple[int, ...]) -> str:
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
    # Runs win when they describe the level in fewer numbers.
    if 2 * len(runs) < len(level):
        return "RUNS " + " ".join(f"{s} {l}" for s, l in runs)
    return ",".join(str(j) for j in level)


def _decode_level(body: str, cap: int) -> tuple[int, ...]:
    """Parse one level of a grid of `cap` cells.  RUNS payloads are checked
    against `cap` and charged to the budget before they are expanded."""
    body = body.strip()
    if not body:
        return ()
    if body.startswith("RUNS"):
        parts = _ints(body.split()[1:], body)
        if len(parts) % 2:
            raise FormatError(f"odd RUNS payload: {body!r}")
        runs = list(zip(parts[::2], parts[1::2]))
        for start, length in runs:
            if length < 1 or start < 0 or start + length > cap:
                raise FormatError(f"run ({start}, {length}) outside a level of {cap} cells")
        charge(sum(length for _, length in runs), "RUNS payload")
        out: list[int] = []
        for start, length in runs:
            out.extend(range(start, start + length))
        return tuple(out)
    return tuple(_ints(body.split(","), body))


def _ints(tokens: list[str], line: str) -> list[int]:
    """The tokens as integers; FormatError names the line otherwise."""
    try:
        return [int(tok) for tok in tokens]
    except ValueError as exc:
        raise FormatError(f"non-integer token in {line!r}") from exc


def dumps_tree(tree: DyadicTree) -> str:
    lines = [f"dyadic-tree v1 depth={tree.max_depth} span={tree.span}"]
    for n, level in enumerate(tree.levels):
        lines.append(f"{n}: {_encode_level(level)}".rstrip())
    return "\n".join(lines) + "\n"


def _read_header(lines: list[str], magic: str, keys: tuple[str, ...]) -> list[int]:
    """The integer `keys` of a '<magic> v1 key=value ...' first line.  Its
    depth and span must give a grid whose cell indices fit int64."""
    if not lines:
        raise FormatError("empty input")
    tokens = lines[0].split()
    if tokens[:2] != [magic, "v1"]:
        raise FormatError(f"bad header: {lines[0]!r}")
    fields = {}
    for tok in tokens[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise FormatError(f"header token {tok!r} is not key=value")
        fields[key] = value
    try:
        values = {key: int(fields[key]) for key in keys}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header fields: {lines[0]!r}") from exc
    depth, span = values["depth"], values["span"]
    if depth < 0 or span < 1 or span.bit_length() + depth > 63:
        raise FormatError(f"depth={depth} span={span} is not a grid of under 2^63 cells")
    return [values[key] for key in keys]


def loads_tree(text: str) -> DyadicTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    depth, span = _read_header(lines, "dyadic-tree", ("depth", "span"))
    levels: list[tuple[int, ...] | None] = [None] * (depth + 1)
    body = lines[1:]
    for ln in body:
        if ln.startswith("mass "):
            continue  # measure payload, handled by the measures module
        head, _, rest = ln.partition(":")
        try:
            n = int(head)
        except ValueError as exc:
            raise FormatError(f"bad level line: {ln!r}") from exc
        if not 0 <= n <= depth or levels[n] is not None:
            raise FormatError(f"unexpected level {n}")
        levels[n] = _decode_level(rest, span << n)
    if any(lv is None for lv in levels):
        missing = [n for n, lv in enumerate(levels) if lv is None]
        raise FormatError(f"missing levels {missing}")
    tree = DyadicTree(depth, span, levels)  # type: ignore[arg-type]
    problems = validate(tree)
    if problems:
        raise FormatError("invalid tree: " + "; ".join(problems[:5]))
    return tree


def save_tree(tree: DyadicTree, path) -> None:
    from .io import atomic_write_text

    atomic_write_text(path, dumps_tree(tree))


def load_tree(path) -> DyadicTree:
    with open(path, "r", encoding="ascii") as fh:
        return loads_tree(fh.read())
