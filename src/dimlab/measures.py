"""Probability measures on dyadic trees and their entropy diagnostics.

A TreeMeasure assigns a mass to every occupied cell of a DyadicTree so that
the level-0 masses sum to 1 and each cell's children sum to the cell (within
1e-12; equal splitting yields exact dyadic rationals, renormalized
restrictions may drift by rounding).

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
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicTree, Vertex, _clip, _run_heads, covering_count, descendant_range, subtree
from .errors import FormatError, MeasureInvariantError, ZeroMassError

LN2 = math.log(2.0)
CHILD_SUM_TOL = 1e-12
TOTAL_MASS_TOL = 1e-9


def _xlogx(w: np.ndarray) -> np.ndarray:
    out = np.log(w, out=np.zeros_like(w), where=w > 0.0)
    out *= w
    return out


class TreeMeasure:
    """Masses aligned positionally with tree.array(n).  Immutable once built.

    The measure keeps, per level n < max_depth, the position of each cell's
    first child in level n + 1 (tree.descendant_starts(n, 1), which the
    child-sum check computes anyway).  The starts of an m-level window are
    these arrays composed, one gather per level.

    Local entropies read a read-only table per window (k, m), built on the
    first query at that window: per occupied level-k vertex in order, the
    sum of mu(E) log mu(E) over its level-(k + m) descendants E.  Building
    it gathers count(k + m) entries once; later queries at (k, m) read one
    entry."""

    __slots__ = ("tree", "masses", "_child", "_wlogw_cache", "_local_cache")

    def __init__(self, tree: DyadicTree, masses):
        self._build(tree, masses, None)

    def _build(self, tree: DyadicTree, masses, child_starts) -> None:
        """Check and store the masses.  child_starts, when given, is
        tree.descendant_starts(n, 1) for each level n < max_depth, already
        computed by the caller."""
        if tree.is_empty():
            raise MeasureInvariantError("cannot put a probability measure on an empty tree")
        arrays = []
        for n in range(tree.max_depth + 1):
            w = np.asarray(masses[n], dtype=np.float64).copy()
            if w.shape != (tree.count(n),):
                raise MeasureInvariantError(
                    f"level {n}: {w.size} masses for {tree.count(n)} occupied cells"
                )
            if w.size and not (w.min() >= 0.0 and w.max() < np.inf):
                raise MeasureInvariantError(f"level {n}: masses must be finite and >= 0")
            arrays.append(w)
        total = float(arrays[0].sum())
        if abs(total - 1.0) > TOTAL_MASS_TOL:
            raise MeasureInvariantError(f"root masses sum to {total!r}, expected 1")
        if total != 1.0:
            arrays = [w / total for w in arrays]
        child = []
        for n in range(tree.max_depth):
            bounds = tree.descendant_starts(n, 1) if child_starts is None else child_starts[n]
            drift = 0.0
            if bounds.size:
                diff = np.add.reduceat(arrays[n + 1], bounds) - arrays[n]
                drift = float(np.abs(diff, out=diff).max())
            if drift > CHILD_SUM_TOL:
                raise MeasureInvariantError(
                    f"level {n}: children deviate from parents by {drift:.3e}"
                )
            bounds.flags.writeable = False
            child.append(bounds)
        for w in arrays:
            w.flags.writeable = False
        self.tree = tree
        self.masses = tuple(arrays)
        self._child = tuple(child)
        self._wlogw_cache: dict[int, np.ndarray] = {}
        self._local_cache: dict[tuple[int, int], np.ndarray] = {}

    def _position(self, level: int, index: int) -> int:
        """The position of an occupied vertex in its level."""
        pos = self.tree.position(level, index)
        if pos < 0:
            raise ValueError(f"vertex (level={level}, index={index}) not occupied")
        return pos

    def mass(self, v: Vertex) -> float:
        level, index = v
        pos = self._position(level, index)
        return float(self.masses[level][pos])

    def _starts(self, k: int, m: int) -> np.ndarray:
        """tree.descendant_starts(k, m), composed from the kept child starts."""
        starts = self._child[k]
        for j in range(k + 1, k + m):
            starts = self._child[j][starts]
        return starts

    def _wlogw(self, level: int) -> np.ndarray:
        arr = self._wlogw_cache.get(level)
        if arr is None:
            arr = _xlogx(self.masses[level])
            arr.flags.writeable = False
            self._wlogw_cache[level] = arr
        return arr

    def _local_sums(self, k: int, m: int) -> np.ndarray:
        """Per occupied level-k vertex in order, the sum of _wlogw(k + m)
        over its descendants, built on first use.  The segments are grouped
        by length and each group summed as the rows of one gathered 2-d
        array, which adds in the same order as np.sum on each slice, so the
        sums equal it bit for bit (np.add.reduceat does not)."""
        table = self._local_cache.get((k, m))
        if table is None:
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


def _measure(tree: DyadicTree, masses, child_starts) -> TreeMeasure:
    """A TreeMeasure whose builder already holds the one-level starts."""
    mu = object.__new__(TreeMeasure)
    mu._build(tree, masses, child_starts)
    return mu


def from_leaf_masses(tree: DyadicTree, leaf_masses) -> TreeMeasure:
    """Normalize masses on the deepest level and sum them upward."""
    w = np.asarray(leaf_masses, dtype=np.float64)
    if w.size != tree.count(tree.max_depth):
        raise MeasureInvariantError("one mass per occupied leaf required")
    total = float(w.sum())
    if not (total > 0.0 and np.all(w >= 0.0) and np.isfinite(total)):
        raise MeasureInvariantError("leaf masses must be >= 0 with positive finite sum")
    w = w / total
    starts = [tree.descendant_starts(n, 1) for n in range(tree.max_depth)]
    levels = [w]
    for n in range(tree.max_depth, 0, -1):
        w = np.add.reduceat(w, starts[n - 1])
        levels.append(w)
    return _measure(tree, tuple(reversed(levels)), starts)


def counting_measure(tree: DyadicTree) -> TreeMeasure:
    """Uniform mass on the deepest level."""
    n = tree.count(tree.max_depth)
    return from_leaf_masses(tree, np.full(n, 1.0 / n))


def splitting_measure(tree: DyadicTree) -> TreeMeasure:
    """Unit mass split equally among occupied children, root-down."""
    roots = tree.count(0)
    levels = [np.full(roots, 1.0 / roots)]
    starts = []
    for n in range(tree.max_depth):
        starts.append(tree.descendant_starts(n, 1))
        counts = np.diff(starts[n], append=tree.count(n + 1))
        levels.append(np.repeat(levels[n] / counts, counts))
    return _measure(tree, tuple(levels), starts)


def restrict_renormalize(mu: TreeMeasure, v: Vertex) -> TreeMeasure:
    """The measure conditioned on v's cell, rescaled to the unit subtree."""
    v = Vertex(*v)
    mv = mu.mass(v)
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={v.level}, index={v.index}) has zero mass")
    sub = subtree(mu.tree, v)
    masses = []
    for m in range(sub.max_depth + 1):
        lo, hi = descendant_range(mu.tree, v, m)
        masses.append(mu.masses[v.level + m][lo:hi] / mv)
    return TreeMeasure(sub, tuple(masses))


# -- entropy -------------------------------------------------------------


def entropy(mu: TreeMeasure, n: int) -> float:
    """H(mu, level-n partition) in nats."""
    if not 0 <= n <= mu.tree.max_depth:
        raise ValueError(f"level {n} outside 0..{mu.tree.max_depth}")
    return -float(np.sum(mu._wlogw(n)))


def avg_entropy(mu: TreeMeasure, n: int) -> float:
    """Entropy normalized to bits per level: H(mu, n) / (n log 2)."""
    if n < 1:
        raise ValueError("averaged entropy needs n >= 1")
    return entropy(mu, n) / (n * LN2)


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
    level, index = Vertex(*v)
    pos = mu._position(level, index)
    mv = float(mu.masses[level][pos])
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={level}, index={index}) has zero mass")
    if m < 1 or level + m > mu.tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {level}")
    a = float(mu._local_sums(level, m)[pos])
    return math.log(mv) - a / mv


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
    whole computation is vectorized per level but deterministic.
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
    stats = []
    I: list[int] = []
    J: list[int] = []
    for k in range(n + 1):
        w = mu.masses[k]
        a = np.add.reduceat(mu._wlogw(k + m), mu._starts(k, m))
        pos = w > 0.0
        h = np.log(w, out=np.zeros_like(w), where=pos)
        h -= np.divide(a, w, out=a, where=pos)
        h /= m * LN2
        uniform_frac = float(np.sum(w[pos & (h >= 1.0 - eps)]))
        atomic_frac = float(np.sum(w[pos & (h <= eps)]))
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


# -- serialization -------------------------------------------------------


def dumps_measure(mu: TreeMeasure) -> str:
    """Tree format plus one "mass <level> <index> <mass>" line per cell.

    Masses are written with 17 significant digits, enough to round-trip
    binary64 exactly.
    """
    from .dyadic import dumps_tree

    parts = [dumps_tree(mu.tree)]
    for n, w in enumerate(mu.masses):
        for pos, j in enumerate(mu.tree.array(n).tolist()):
            parts.append(f"mass {n} {j} {w[pos]:.17g}\n")
    return "".join(parts)


def loads_measure(text: str) -> TreeMeasure:
    from .dyadic import loads_tree

    tree = loads_tree(text)
    given: dict[tuple[int, int], float] = {}
    for ln in text.splitlines():
        if not ln.startswith("mass "):
            continue
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"bad mass line: {_clip(repr(ln))}")
        try:
            key, mass = (int(parts[1]), int(parts[2])), float(parts[3])
        except ValueError as exc:
            raise FormatError(f"bad mass line: {_clip(repr(ln))}") from exc
        if key in given:
            raise FormatError(f"duplicate mass for cell {key}")
        given[key] = mass
    masses = []
    for n in range(tree.max_depth + 1):
        try:
            masses.append([given.pop((n, j)) for j in tree.array(n).tolist()])
        except KeyError as exc:
            raise FormatError(f"missing mass for a level-{n} cell") from exc
    if given:
        raise FormatError(f"mass lines for unoccupied cells: {sorted(given)[:3]}")
    return TreeMeasure(tree, masses)


def save_measure(mu: TreeMeasure, path) -> None:
    from .io import atomic_write_text

    atomic_write_text(path, dumps_measure(mu))


def load_measure(path) -> TreeMeasure:
    with open(path, "r", encoding="ascii") as fh:
        return loads_measure(fh.read())
