"""Shared fixtures and exact-arithmetic oracles for the test suite."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dimlab import DyadicTree

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


def sum_indices_oracle(a, b) -> np.ndarray:
    """{i + j} as a sorted int64 array, by a set merge over every index
    pair: the slow, independent check of the bit-grid sumset kernel."""
    sums = {int(i) + int(j) for i in a for j in b}
    return np.fromiter(sorted(sums), dtype=np.int64, count=len(sums))


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
