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
    """The leaves as a sorted int64 copy, checked to be integer indices of
    the level-max_depth grid.  A sequence is type-checked element by
    element, since numpy reads a bool among ints as an int; an array only
    by its dtype."""
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
        arr = np.sort(arr, axis=None)
        if arr[0] >= 0 and arr[-1] < span << max_depth:
            return arr.astype(np.int64, copy=False)
    raise ValueError(f"leaf index out of range at depth {max_depth} (span {span})")


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    head = np.empty(a.size, dtype=bool)
    if a.size:
        head[0] = True
        np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def _dedupe_sorted(a: np.ndarray) -> np.ndarray:
    """A sorted array without its repeats, by comparing neighbours."""
    return a[_run_heads(a)] if a.size > 1 else a


def _level_array(level: Iterable[int]) -> np.ndarray:
    """A hand-built or decoded level as an int64 array, or as an object
    array when an index does not fit int64, so that validate() can name it."""
    values = list(level)
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class DyadicTree:
    """Occupancy tree over [0, span).  Immutable after construction.

    array(n) is the sorted occupied indices at level n as a read-only int64
    array, the one stored form of a level.  levels[n] is the same level as
    a tuple of ints, a view built from that array on first read and cached.
    The constructor trusts its input; use :func:`validate` to audit
    hand-built trees.  :meth:`from_leaves` saturates by construction: it
    sorts the leaves once and derives each parent level by an adjacent
    dedupe of the sorted child level shifted right.
    """

    __slots__ = ("max_depth", "span", "_arrays", "_views", "_levels")

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
        stack = [_dedupe_sorted(arr)]
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
        self._levels = None

    @property
    def levels(self) -> tuple[tuple[int, ...], ...]:
        """Every level as a sorted tuple of ints, built on first read."""
        if self._levels is None:
            self._levels = tuple(map(self._view, range(self.max_depth + 1)))
        return self._levels

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
        if not 0 <= level <= self.max_depth:
            raise ValueError(f"level {level} outside 0..{self.max_depth}")
        lv = self._view(level)
        pos = bisect_left(lv, index)
        return pos if pos < len(lv) and lv[pos] == index else -1

    def is_occupied(self, level: int, index: int) -> bool:
        return self.position(level, index) >= 0

    def descendant_starts(self, k: int, m: int) -> np.ndarray:
        """For each occupied level-k cell in order, the position of its first
        level-(k+m) descendant: the run starts of array(k+m) >> m, which on
        a saturated tree has one run per occupied level-k cell."""
        if not 0 <= k <= k + m <= self.max_depth:
            raise ValueError(f"levels {k}..{k + m} outside 0..{self.max_depth}")
        return _run_heads(self.array(k + m) >> m).nonzero()[0]

    def descendant_counts(self, k: int, m: int) -> np.ndarray:
        """Per occupied level-k cell in order, its occupied level-(k+m) cells."""
        starts = self.descendant_starts(k, m)
        return np.concatenate((starts[1:], [self.count(k + m)])) - starts

    def array(self, level: int) -> np.ndarray:
        """Occupied indices at a level as a read-only int64 array."""
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
    if not tree.is_occupied(v.level, v.index):
        raise ValueError(f"vertex (level={v.level}, index={v.index}) not occupied")


def descendant_range(tree: DyadicTree, v: Vertex, m: int) -> tuple[int, int]:
    """Positions [lo, hi) of v's level-(v.level+m) descendants in that level.
    v need not be occupied, but its level and the window must lie in the tree."""
    k, index = v
    if not 0 <= k <= tree.max_depth:
        raise ValueError(f"vertex level {k} outside 0..{tree.max_depth}")
    if m < 0 or k + m > tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {k}")
    level = tree._view(k + m)
    return bisect_left(level, index << m), bisect_left(level, (index + 1) << m)


def descendant_count(tree: DyadicTree, v: Vertex, m: int) -> int:
    """Count occupied cells m levels below v inside v's cell."""
    v = Vertex(*v)
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
    """The tree below v, rescaled to span 1 and depth max_depth - v.level."""
    v = Vertex(*v)
    _require_occupied(tree, v)
    depth = tree.max_depth - v.level
    lo, hi = descendant_range(tree, v, depth)
    return DyadicTree.from_leaves(depth, 1, tree.array(tree.max_depth)[lo:hi] - (v.index << depth))


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


# -- serialization -------------------------------------------------------


def _encode_level(a: np.ndarray) -> str:
    # Runs win when they take fewer numbers than the indices: never below 3.
    if a.size > 2:
        ends = a[1:] - a[:-1] != 1  # where runs of consecutive indices end
        if 2 * (np.count_nonzero(ends) + 1) < a.size:
            starts = np.flatnonzero(np.concatenate(([True], ends)))
            runs = np.column_stack((a[starts], np.diff(starts, append=a.size)))
            return "RUNS " + " ".join(["%d"] * runs.size) % tuple(runs.ravel().tolist())
    return ",".join(["%d"] * a.size) % tuple(a.tolist())


def _decode_level(body: str, cap: int) -> np.ndarray:
    """Parse one level of a grid of `cap` cells.  RUNS payloads are checked
    against `cap` and charged to the budget before they are expanded.

    The decimal kernel reads a comma list, or a RUNS payload of numbers
    separated by spaces, whose bytes are all ASCII digits and separators
    and whose numbers have at most 18 digits; one vectorized test checks its
    runs.  Every other body, and every bad one, goes to the token parser,
    which alone names what is wrong, so a bad body gets the same FormatError
    on either path."""
    body = body.strip()
    if not body:
        return np.empty(0, dtype=np.int64)
    if body.startswith("RUNS"):
        got = None if body[4:5].isdigit() else _decimals(body[4:], " ")
        # the lengths, each at most cap, then sum inside int64
        if got is not None and got[0].size % 2 == 0 and got[0].size * cap < 1 << 64:
            starts, lengths = got[0][::2], got[0][1::2]
            if ((lengths >= 1) & (starts + lengths <= cap)).all():
                charge(int(lengths.sum()), "RUNS payload")
                return _expand_runs(starts, lengths)
        parts = _ints(body.split()[1:])
        if len(parts) % 2:
            raise FormatError(f"odd RUNS payload of {len(parts)} numbers")
        starts, lengths = parts[::2], parts[1::2]
        for start, length in zip(starts, lengths):
            if length < 1 or start < 0 or start + length > cap:
                raise FormatError(f"run ({start}, {length}) outside a level of {cap} cells")
        charge(sum(lengths), "RUNS payload")
        return _expand_runs(np.array(starts, dtype=np.int64), np.array(lengths, dtype=np.int64))
    got = _decimals(body, ",")
    # one line, and one number between each pair of commas
    if got is not None and got[1].size == 1 and got[0].size == body.count(",") + 1:
        return got[0]
    return _level_array(_ints(body.split(",")))


def _expand_runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs start, start + 1, ..., start + length - 1, end to end."""
    # position p of the expansion, in run r, holds starts[r] plus p's
    # offset from the position where run r begins
    shifts = starts - (np.cumsum(lengths) - lengths)
    return np.repeat(shifts, lengths) + np.arange(lengths.sum(), dtype=np.int64)


def _clip(text: str, limit: int = 80) -> str:
    """text, cut after `limit` characters when longer, so that an error
    message quoting its input stays short."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


_POW10 = 10 ** np.arange(19, dtype=np.int64)  # up to 10^18 < 2^63
_MAX_DIGITS = 18  # so every number the kernel reads fits int64
_KERNEL_MIN_CHARS = 2048  # below this, the kernel's fixed cost exceeds the token parser's


def _decimal_tokens(buf: np.ndarray, sep: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The unsigned decimal numbers in a block of ASCII bytes (a uint8
    array) as int64 values in order, and how many of them each of its
    newline-separated lines holds.

    It returns None unless every byte is a digit, `sep` or a newline and
    every number has at most 18 digits.  Each digit is weighted by the power
    of ten of its place: pass k adds 10^k times each digit to the byte k
    places on, where both lie in one number, so the last digit of each
    number ends up holding its value.  It takes as many passes as the
    longest number has digits, each a few elementwise operations on the
    block; on grid files that costs about half of np.add.reduceat over the
    digits.  A caller hands text that the kernel refuses to a token parser,
    which names what is wrong."""
    digit = buf - np.uint8(48)  # wraps below "0", so digits are exactly those < 10
    is_digit = digit < 10
    newline = buf == 10
    if not (is_digit | newline | (buf == ord(sep))).all():
        return None
    value = digit.astype(np.int64)
    run = is_digit.copy()  # at pass k: bytes whose k bytes before are digits too
    for k in range(1, _MAX_DIGITS + 1):
        run[k - 1 : k] = False
        run[k:] &= is_digit[:-k]
        if not run.any():
            break
        if k == _MAX_DIGITS:
            return None
        value[k:] += digit[:-k] * run[k:] * _POW10[k]
    last = is_digit.copy()
    last[:-1] &= ~is_digit[1:]
    events = (last | newline).nonzero()[0]  # the last digit of each number, and the newlines
    at_break = newline[events]
    bounds = np.concatenate(([-1], at_break.nonzero()[0], [events.size]))
    return value[events[~at_break]], bounds[1:] - bounds[:-1] - 1


def _decimals(text: str, sep: str) -> tuple[np.ndarray, np.ndarray] | None:
    """_decimal_tokens of a string, or None when it is short or not ASCII."""
    if len(text) < _KERNEL_MIN_CHARS or not text.isascii():
        return None
    return _decimal_tokens(np.frombuffer(text.encode("ascii"), dtype=np.uint8), sep)


def _decimal_lines(rows: np.ndarray) -> str:
    """The rows of a 2-d array of nonnegative int64 values as text, one line
    per row, its numbers separated by single spaces: the text "%d" writes,
    placed digit by digit in numpy, so no Python int is made."""
    values = rows.ravel()
    widths = np.maximum(np.searchsorted(_POW10, values, side="right"), 1)
    ends = np.cumsum(widths + 1) - 2  # where each number's last digit goes; a separator follows
    out = np.full(ends[-1] + 2 if ends.size else 0, ord(" "), dtype=np.uint8)
    out[ends[rows.shape[1] - 1 :: rows.shape[1]] + 1] = ord("\n")
    for k in range(widths.max(initial=0)):
        live = widths > k
        out[ends[live] - k] = values[live] // _POW10[k] % 10 + ord("0")
    return out.tobytes().decode("ascii")


def _ints(tokens: list[str]) -> list[int]:
    """The tokens as integers; FormatError quotes the first bad token and
    its index otherwise."""
    try:
        return list(map(int, tokens))
    except ValueError:
        for pos, tok in enumerate(tokens):
            try:
                int(tok)
            except ValueError:
                raise FormatError(f"non-integer token {_clip(repr(tok))} at index {pos}") from None
        raise


def dumps_tree(tree: DyadicTree) -> str:
    lines = [f"dyadic-tree v1 depth={tree.max_depth} span={tree.span}"]
    for n in range(tree.max_depth + 1):
        lines.append(f"{n}: {_encode_level(tree.array(n))}".rstrip())
    return "\n".join(lines) + "\n"


def _read_header(lines: list[str], magic: str, keys: tuple[str, ...]) -> list[int]:
    """The integer `keys` of a '<magic> v1 key=value ...' first line.  Its
    depth and span must give a grid whose cell indices fit int64."""
    if not lines:
        raise FormatError("empty input")
    tokens = lines[0].split()
    if tokens[:2] != [magic, "v1"]:
        raise FormatError(f"bad header: {_clip(repr(lines[0]))}")
    fields = {}
    for tok in tokens[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise FormatError(f"header token {_clip(repr(tok))} is not key=value")
        fields[key] = value
    try:
        values = {key: int(fields[key]) for key in keys}
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header fields: {_clip(repr(lines[0]))}") from exc
    try:
        _check_grid(values["depth"], values["span"])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return [values[key] for key in keys]


def loads_tree(text: str) -> DyadicTree:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    depth, span = _read_header(lines, "dyadic-tree", ("depth", "span"))
    levels: list[np.ndarray | None] = [None] * (depth + 1)
    for ln in lines[1:]:
        if ln.startswith("mass "):
            continue  # measure payload, handled by the measures module
        head, _, rest = ln.partition(":")
        try:
            n = int(head)
        except ValueError as exc:
            raise FormatError(f"bad level line: {_clip(repr(ln))}") from exc
        if not 0 <= n <= depth or levels[n] is not None:
            raise FormatError(f"unexpected level {n}")
        levels[n] = _decode_level(rest, span << n)
    if any(lv is None for lv in levels):
        missing = [n for n, lv in enumerate(levels) if lv is None]
        raise FormatError(f"missing levels {missing}")
    # A dump is valid exactly when its levels are the saturation of its
    # deepest level; validate() runs only to describe a bad one.
    try:
        tree = DyadicTree.from_leaves(depth, span, levels[depth])
    except ValueError:
        tree = None
    # one comparison end to end: one per level would dominate small trees
    if (tree is None or list(map(len, levels)) != list(map(len, tree._arrays))
            or not np.array_equal(np.concatenate(levels), np.concatenate(tree._arrays))):
        problems = validate(DyadicTree(depth, span, levels))  # type: ignore[arg-type]
        raise FormatError("invalid tree: " + "; ".join(problems[:5]))
    return tree


def save_tree(tree: DyadicTree, path) -> None:
    from .io import atomic_write_text

    atomic_write_text(path, dumps_tree(tree))


def load_tree(path) -> DyadicTree:
    with open(path, "r", encoding="ascii") as fh:
        return loads_tree(fh.read())
