import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimlab import (
    DyadicInterval,
    DyadicTree,
    EmptySetError,
    FormatError,
    Vertex,
    cell_of,
    covering_count,
    descendant_count,
    descendant_range,
    discretize,
    dumps_tree,
    interval_of,
    loads_tree,
    locate,
    subtree,
    validate,
)
from dimlab.dyadic import _bitmask_of
from conftest import random_tree

leaf_sets = st.builds(
    lambda depth, idx: (depth, sorted(set(idx))),
    st.integers(2, 10),
    st.lists(st.integers(0, 1023), min_size=0, max_size=60),
).map(lambda t: (t[0], [i % (1 << t[0]) for i in t[1]]))


def tree_from(depth, leaves, span=1):
    return DyadicTree.from_leaves(depth, span, sorted(set(leaves)))


class TestIntervals:
    def test_interval_bounds(self):
        iv = interval_of(3, 5, span=1)
        assert iv.bounds() == (5 / 8, 6 / 8)

    def test_locate_exact_halves(self):
        assert locate(0.5, 1, 1).index == 1
        assert locate(0.5, 3, 1).index == 4

    def test_cell_of_clamps_span_endpoint(self):
        assert cell_of(1.0, 4, 1) == 15
        assert cell_of(2.0, 4, 2) == 31
        assert cell_of(0.0, 4, 1) == 0

    def test_cell_of_rejects_outside(self):
        with pytest.raises(ValueError):
            cell_of(1.5, 4, 1)
        with pytest.raises(ValueError):
            cell_of(-0.1, 4, 1)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            DyadicInterval(2, 4, 1)
        with pytest.raises(ValueError):
            DyadicInterval(-1, 0, 1)


class TestTreeConstruction:
    def test_from_leaves_saturates_upward(self):
        t = tree_from(3, [0, 1, 2, 5, 6, 7])
        assert t.levels[2] == (0, 1, 2, 3)
        assert t.levels[1] == (0, 1)
        assert t.levels[0] == (0,)

    def test_counts_and_density(self):
        t = tree_from(3, range(8))
        assert covering_count(t, 3) == 8
        assert t.density(3) == 1.0
        assert t.total_cells() == 1 + 2 + 4 + 8

    def test_validate_clean(self):
        assert validate(tree_from(4, [0, 7, 9])) == []

    def test_validate_catches_orphan(self):
        broken = DyadicTree(2, 1, [(0,), (0,), (0, 3)])
        assert any("parent" in p for p in validate(broken))

    def test_validate_catches_childless(self):
        broken = DyadicTree(2, 1, [(0,), (0, 1), (0,)])
        assert any("child" in p for p in validate(broken))

    def test_span_capacity(self):
        t = DyadicTree.from_leaves(2, 3, [0, 11])
        assert t.capacity(2) == 12
        with pytest.raises(ValueError):
            DyadicTree.from_leaves(2, 1, [4])


class TestDescendants:
    def test_descendant_range_and_count(self):
        t = tree_from(3, [0, 1, 2, 5, 6, 7])
        lo, hi = descendant_range(t, Vertex(1, 1), 2)
        assert t.levels[3][lo:hi] == (5, 6, 7)
        assert descendant_count(t, Vertex(1, 0), 2) == 3

    def test_subtree_rescales(self):
        t = tree_from(3, [0, 1, 2, 5, 6, 7])
        sub = subtree(t, Vertex(2, 0))
        assert sub.max_depth == 1
        assert sub.levels[1] == (0, 1)

    def test_subtree_missing_vertex(self):
        t = tree_from(3, [0])
        with pytest.raises(ValueError):
            subtree(t, Vertex(1, 1))


class TestDiscretize:
    def test_interval_oracle(self):
        def oracle(lo, hi):
            return lo < 0.5 and hi > 0.0

        t = discretize(oracle, 4, 1)
        assert t.levels[4] == tuple(range(8))

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            discretize(lambda lo, hi: False, 4, 1)


class TestSerialization:
    def test_runs_encoding_for_full_levels(self):
        text = dumps_tree(tree_from(3, range(8)))
        assert "RUNS 0 8" in text

    def test_sparse_encoding_plain(self):
        text = dumps_tree(tree_from(3, [0, 7]))
        assert "3: 0,7" in text

    def test_bad_header(self):
        with pytest.raises(FormatError):
            loads_tree("nonsense v9\n0: 0\n")

    def test_orphan_rejected_on_load(self):
        with pytest.raises(FormatError):
            loads_tree("dyadic-tree v1 depth=1 span=1\n0:\n1: 0\n")

    def test_mass_lines_skipped(self):
        t = loads_tree("dyadic-tree v1 depth=1 span=1\n0: 0\n1: 0\nmass 1 0 1.0\n")
        assert t.levels[1] == (0,)

    @given(leaf_sets)
    def test_round_trip(self, spec):
        depth, leaves = spec
        t = tree_from(depth, leaves)
        assert loads_tree(dumps_tree(t)) == t


class TestInvariants:
    @given(leaf_sets)
    def test_doubling(self, spec):
        depth, leaves = spec
        t = tree_from(depth, leaves)
        if t.is_empty():
            return
        for n in range(depth):
            assert len(t.levels[n]) <= len(t.levels[n + 1]) <= 2 * len(t.levels[n])

    @given(leaf_sets)
    def test_parent_closure(self, spec):
        depth, leaves = spec
        assert validate(tree_from(depth, leaves)) == []

    def test_mask_matches_indices(self, rng):
        t = random_tree(rng, 8, 0.6)
        for n in (4, 8):
            mask = _bitmask_of(t.array(n), t.capacity(n))
            got = tuple(i for i in range(t.capacity(n)) if mask >> i & 1)
            assert got == t.levels[n]
