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
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicTree, Vertex, covering_count, descendant_range, subtree
from .errors import FormatError, MeasureInvariantError, ZeroMassError

LN2 = math.log(2.0)
CHILD_SUM_TOL = 1e-12
TOTAL_MASS_TOL = 1e-9


def _xlogx(w: np.ndarray) -> np.ndarray:
    out = np.zeros_like(w)
    nz = w > 0.0
    out[nz] = w[nz] * np.log(w[nz])
    return out


class TreeMeasure:
    """Masses aligned positionally with tree.levels.  Immutable once built."""

    __slots__ = ("tree", "masses", "_wlogw_cache")

    def __init__(self, tree: DyadicTree, masses):
        if tree.is_empty():
            raise MeasureInvariantError("cannot put a probability measure on an empty tree")
        arrays = []
        for n, level in enumerate(tree.levels):
            w = np.asarray(masses[n], dtype=np.float64).copy()
            if w.shape != (len(level),):
                raise MeasureInvariantError(
                    f"level {n}: {w.size} masses for {len(level)} occupied cells"
                )
            if np.any(w < 0.0) or not np.all(np.isfinite(w)):
                raise MeasureInvariantError(f"level {n}: masses must be finite and >= 0")
            arrays.append(w)
        total = float(arrays[0].sum())
        if abs(total - 1.0) > TOTAL_MASS_TOL:
            raise MeasureInvariantError(f"root masses sum to {total!r}, expected 1")
        if total != 1.0:
            arrays = [w / total for w in arrays]
        for n in range(tree.max_depth):
            parents = tree.array(n)
            child_w = arrays[n + 1]
            bounds = np.searchsorted(tree.array(n + 1), parents << 1)
            sums = np.add.reduceat(child_w, bounds) if child_w.size else child_w
            drift = float(np.max(np.abs(sums - arrays[n]))) if parents.size else 0.0
            if drift > CHILD_SUM_TOL:
                raise MeasureInvariantError(
                    f"level {n}: children deviate from parents by {drift:.3e}"
                )
        for w in arrays:
            w.flags.writeable = False
        self.tree = tree
        self.masses = tuple(arrays)
        self._wlogw_cache: dict[int, np.ndarray] = {}

    def mass(self, v: Vertex) -> float:
        level, index = v
        lv = self.tree.levels[level]
        pos = bisect_left(lv, index)
        if pos >= len(lv) or lv[pos] != index:
            raise ValueError(f"vertex (level={level}, index={index}) not occupied")
        return float(self.masses[level][pos])

    def _wlogw(self, level: int) -> np.ndarray:
        arr = self._wlogw_cache.get(level)
        if arr is None:
            arr = _xlogx(self.masses[level])
            arr.flags.writeable = False
            self._wlogw_cache[level] = arr
        return arr

    def __repr__(self) -> str:
        return f"TreeMeasure(on {self.tree!r})"


def from_leaf_masses(tree: DyadicTree, leaf_masses) -> TreeMeasure:
    """Normalize masses on the deepest level and sum them upward."""
    w = np.asarray(leaf_masses, dtype=np.float64)
    if w.size != len(tree.levels[tree.max_depth]):
        raise MeasureInvariantError("one mass per occupied leaf required")
    total = float(w.sum())
    if not (total > 0.0 and np.all(w >= 0.0) and np.isfinite(total)):
        raise MeasureInvariantError("leaf masses must be >= 0 with positive finite sum")
    w = w / total
    levels = [w]
    for n in range(tree.max_depth, 0, -1):
        bounds = np.searchsorted(tree.array(n), tree.array(n - 1) << 1)
        w = np.add.reduceat(w, bounds)
        levels.append(w)
    return TreeMeasure(tree, tuple(reversed(levels)))


def counting_measure(tree: DyadicTree) -> TreeMeasure:
    """Uniform mass on the deepest level."""
    n = len(tree.levels[tree.max_depth])
    return from_leaf_masses(tree, np.full(n, 1.0 / n))


def splitting_measure(tree: DyadicTree) -> TreeMeasure:
    """Unit mass split equally among occupied children, root-down."""
    roots = len(tree.levels[0])
    levels = [np.full(roots, 1.0 / roots)]
    for n in range(tree.max_depth):
        children = tree.array(n + 1)
        bounds = np.searchsorted(children, tree.array(n) << 1)
        counts = np.diff(np.append(bounds, children.size))
        levels.append(np.repeat(levels[n] / counts, counts))
    return TreeMeasure(tree, tuple(levels))


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

    Equal to entropy(restrict_renormalize(mu, v), m) but computed in place
    from the descendant slice.
    """
    v = Vertex(*v)
    mv = mu.mass(v)
    if mv <= 0.0:
        raise ZeroMassError(f"vertex (level={v.level}, index={v.index}) has zero mass")
    if m < 1 or v.level + m > mu.tree.max_depth:
        raise ValueError(f"window m={m} leaves the tree at level {v.level}")
    lo, hi = descendant_range(mu.tree, v, m)
    a = float(np.sum(mu._wlogw(v.level + m)[lo:hi]))
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
        bounds = np.searchsorted(tree.array(k + m), tree.array(k) << m)
        a = np.add.reduceat(mu._wlogw(k + m), bounds)
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
    for n, level in enumerate(mu.tree.levels):
        w = mu.masses[n]
        for pos, j in enumerate(level):
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
            raise FormatError(f"bad mass line: {ln!r}")
        try:
            key, mass = (int(parts[1]), int(parts[2])), float(parts[3])
        except ValueError as exc:
            raise FormatError(f"bad mass line: {ln!r}") from exc
        if key in given:
            raise FormatError(f"duplicate mass for cell {key}")
        given[key] = mass
    masses = []
    for n, level in enumerate(tree.levels):
        try:
            masses.append([given.pop((n, j)) for j in level])
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
