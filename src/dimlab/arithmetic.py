"""Arithmetic on discretized sets: sumsets, differences, distances.

Index sumsets realize F1(n) + F2(n) = {i + j} at a fixed level n.  Two
kernels produce identical results: a sorted-merge over index pairs for
sparse operands, and a bit-grid shift-or once either operand occupies more
than 1/64 of its level.  The exact pair count sits inside the covering
bracket [N/2, 2N] for the true sumset, which is what SumsetReport records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dyadic import (
    DENSE_THRESHOLD,
    DyadicTree,
    _bitmask_of,
    _indices_of_bitmask,
    _read_header,
)
from .budget import charge
from .errors import FormatError, ResourceLimitError

_MAX_GRID_CELLS = 1_000_000


def _sum_indices(
    a_idx: np.ndarray, a_cap: int, b_idx: np.ndarray, b_cap: int
) -> np.ndarray:
    """{i + j}: dense shift-or when either operand is dense, else set merge."""
    if a_idx.size == 0 or b_idx.size == 0:
        return np.empty(0, dtype=np.int64)
    out_cap = a_cap + b_cap
    charge(out_cap, "sumset grid")
    dense = a_idx.size / a_cap > DENSE_THRESHOLD or b_idx.size / b_cap > DENSE_THRESHOLD
    if dense:
        return _sum_indices_dense(a_idx, b_idx, out_cap)
    return _sum_indices_sparse(a_idx, b_idx)


def _sum_indices_sparse(a_idx: np.ndarray, b_idx: np.ndarray) -> np.ndarray:
    sums = {int(i) + int(j) for i in a_idx for j in b_idx}
    return np.fromiter(sorted(sums), dtype=np.int64, count=len(sums))


def _sum_indices_dense(a_idx: np.ndarray, b_idx: np.ndarray, out_cap: int) -> np.ndarray:
    if a_idx.size < b_idx.size:
        a_idx, b_idx = b_idx, a_idx
    mask = _bitmask_of(a_idx, out_cap)
    out = 0
    for j in b_idx:
        out |= mask << int(j)
    return _indices_of_bitmask(out, out_cap)


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
    """Sum the level-`level` occupancies; result spans a.span + b.span."""
    if not 0 <= level <= min(a.max_depth, b.max_depth):
        raise ValueError(f"level {level} exceeds a tree depth")
    sums = _sum_indices(a.array(level), a.capacity(level), b.array(level), b.capacity(level))
    tree = DyadicTree.from_leaves(level, a.span + b.span, sums)
    report = SumsetReport(level, sums.size, (sums.size / 2.0, 2.0 * sums.size))
    return tree, report


def iterated_sumset(a: DyadicTree, k: int, level: int) -> DyadicTree:
    """k-fold index sumset at the given level.  Exact integer sums, so the
    result is independent of folding order."""
    if k < 1:
        raise ValueError(f"fold count k={k} must be >= 1")
    if not 0 <= level <= a.max_depth:
        raise ValueError(f"level {level} exceeds tree depth {a.max_depth}")
    charge(k * a.capacity(level), "iterated sumset grid")
    part = a.array(level)
    cap = a.capacity(level)
    base_cap = cap
    for _ in range(k - 1):
        part = _sum_indices(part, cap, a.array(level), base_cap)
        cap += base_cap
    return DyadicTree.from_leaves(level, a.span * k, part)


def difference_set(a: DyadicTree, level: int) -> tuple[DyadicTree, int]:
    """{i - j} shifted by offset = max - min of the occupied indices, so the
    most negative difference lands at 0.  Returns the tree (span doubled)
    and the offset; the occupancy is symmetric about the offset cell.
    """
    if not 0 <= level <= a.max_depth:
        raise ValueError(f"level {level} exceeds tree depth {a.max_depth}")
    idx = a.array(level)
    if idx.size == 0:
        return DyadicTree.from_leaves(level, 2 * a.span, []), 0
    offset = int(idx[-1] - idx[0])
    shifted = idx - idx[0]
    reflected = shifted[::-1].copy()
    reflected = offset - reflected
    sums = _sum_indices(shifted, a.capacity(level), reflected, a.capacity(level))
    return DyadicTree.from_leaves(level, 2 * a.span, sums), offset


def delta_dense_check(a: DyadicTree, delta_level: int, upper: float) -> bool:
    """Whether every level-`delta_level` cell meeting [0, upper] is within
    one cell of an occupied cell (a 2 * 2^-delta_level density surrogate)."""
    if not 0 <= delta_level <= a.max_depth:
        raise ValueError(f"level {delta_level} exceeds tree depth {a.max_depth}")
    if not 0.0 <= upper <= a.span:
        raise ValueError(f"upper={upper} outside [0, {a.span}]")
    hi = min(int(upper * (1 << delta_level)), a.capacity(delta_level) - 1)
    occ = _bitmask_of(a.array(delta_level), a.capacity(delta_level))
    wide = occ | (occ << 1) | (occ >> 1)
    need = (1 << (hi + 1)) - 1
    return wide & need == need


# -- d-dimensional grids -------------------------------------------------


@dataclass(frozen=True)
class GridSetD:
    """A finite set of occupied level-`depth` grid cells in d dimensions,
    d in {1, 2, 3}, over [0, span)^d."""

    dimension: int
    depth: int
    span: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension {self.dimension} not in {{1, 2, 3}}")
        if self.depth < 0 or self.span < 1:
            raise ValueError("depth must be >= 0 and span >= 1")
        cap = self.span << self.depth
        norm = sorted({tuple(int(c) for c in cell) for cell in self.cells})
        for cell in norm:
            if len(cell) != self.dimension:
                raise ValueError(f"cell {cell} is not {self.dimension}-dimensional")
            if any(not 0 <= c < cap for c in cell):
                raise ValueError(f"cell {cell} outside the {cap}^d grid")
        object.__setattr__(self, "cells", tuple(norm))

    def array(self) -> np.ndarray:
        return np.asarray(self.cells, dtype=np.int64).reshape(len(self.cells), self.dimension)

    def centers(self) -> np.ndarray:
        return (self.array() + 0.5) * 2.0 ** -self.depth


def grid_product(trees: Sequence[DyadicTree]) -> GridSetD:
    """Cartesian product of 1-d leaf occupancies into a d-dimensional grid."""
    d = len(trees)
    if d not in (1, 2, 3):
        raise ValueError(f"need 1..3 factors, got {d}")
    depth = trees[0].max_depth
    span = trees[0].span
    if any(t.max_depth != depth or t.span != span for t in trees):
        raise ValueError("factors must share depth and span")
    sizes = [len(t.levels[depth]) for t in trees]
    total = math.prod(sizes)
    charge(total, "grid product")
    if total > _MAX_GRID_CELLS:
        raise ResourceLimitError(f"{total} product cells exceed the {_MAX_GRID_CELLS} budget")
    grids = np.meshgrid(*[t.array(depth) for t in trees], indexing="ij")
    cells = np.stack([g.ravel() for g in grids], axis=1)
    return GridSetD(d, depth, span, tuple(map(tuple, cells.tolist())))


def distance_set(f: GridSetD) -> DyadicTree:
    """Cells of pairwise center-to-center distances, widened one cell each
    side; always contains the cell of 0.  Output depth matches f."""
    if not f.cells:
        raise ValueError("empty grid set")
    charge(len(f.cells), "distance pair loop")
    if len(f.cells) > _MAX_GRID_CELLS:
        raise ResourceLimitError(
            f"{len(f.cells)} cells exceed the {_MAX_GRID_CELLS} pair-loop budget"
        )
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


def annulus_cells(
    f: GridSetD, center: Sequence[float], inner: float, width: float
) -> list[tuple[int, ...]]:
    """Cells of f whose centers lie in the closed annulus of radii
    [inner, inner + width] around `center`."""
    if len(center) != f.dimension:
        raise ValueError(f"center must have {f.dimension} coordinates")
    if inner < 0.0 or width < 0.0:
        raise ValueError("inner and width must be >= 0")
    diff = f.centers() - np.asarray(center, dtype=np.float64)
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    keep = (dist >= inner) & (dist <= inner + width)
    return [f.cells[i] for i in np.nonzero(keep)[0]]


# -- serialization -------------------------------------------------------


def dumps_grid(f: GridSetD) -> str:
    lines = [f"grid-set v1 d={f.dimension} depth={f.depth} span={f.span}"]
    for cell in f.cells:
        lines.append(" ".join(str(c) for c in cell))
    return "\n".join(lines) + "\n"


def loads_grid(text: str) -> GridSetD:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    d, depth, span = _read_header(lines, "grid-set", ("d", "depth", "span"))
    cells = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d:
            raise FormatError(f"expected {d} coordinates: {ln!r}")
        cells.append(tuple(int(p) for p in parts))
    try:
        return GridSetD(d, depth, span, tuple(cells))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def save_grid(f: GridSetD, path) -> None:
    from .io import atomic_write_text

    atomic_write_text(path, dumps_grid(f))


def load_grid(path) -> GridSetD:
    with open(path, "r", encoding="ascii") as fh:
        return loads_grid(fh.read())
