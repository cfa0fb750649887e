"""Sumsets, differences, distance sets: kernels, frozen examples, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dimlab.arithmetic as arith
from dimlab import (
    DyadicTree,
    FormatError,
    GridSetD,
    IfsSpec,
    ResourceLimitError,
    annulus_cells,
    delta_dense_check,
    difference_set,
    distance_set,
    dumps_grid,
    grid_product,
    ifs_attractor,
    index_sumset,
    iterated_sumset,
    load_grid,
    loads_grid,
    reciprocal_tree,
    save_grid,
)
from dimlab.arithmetic import _sum_indices
from dimlab.budget import limit
from dimlab.dyadic import cell_of

from conftest import sum_indices_oracle


def tree_of(depth, leaves, span=1):
    return DyadicTree.from_leaves(depth, span, leaves)


leaf_sets = st.sets(st.integers(0, 63), min_size=1, max_size=20)


class TestIndexSumset:
    def test_small_example(self):
        a = tree_of(2, [0, 2])
        out, report = index_sumset(a, a, 2)
        assert out.levels[2] == (0, 2, 4)
        assert out.span == 2
        assert report.count_exact == 3
        assert report.bracket == (1.5, 6.0)
        assert report.to_json() == {"level": 2, "count_exact": 3, "bracket": [1.5, 6.0]}

    def test_zero_cell_is_identity_on_indices(self):
        a = tree_of(4, [1, 7, 11])
        out, _ = index_sumset(a, tree_of(4, [0]), 4)
        assert out.levels[4] == a.levels[4]

    def test_empty_operand(self):
        a = tree_of(3, [1, 2])
        out, report = index_sumset(a, tree_of(3, []), 3)
        assert out.is_empty()
        assert report.count_exact == 0

    def test_coarser_level(self):
        # summing at a level above the leaves uses that level's occupancy
        a = tree_of(4, [0, 15])
        out, _ = index_sumset(a, a, 2)
        assert out.max_depth == 2
        assert out.levels[2] == (0, 3, 6)

    def test_level_out_of_range(self):
        a = tree_of(3, [0])
        with pytest.raises(ValueError):
            index_sumset(a, a, 4)

    @given(x=leaf_sets, y=leaf_sets)
    def test_commutative(self, x, y):
        a, b = tree_of(6, x), tree_of(6, y)
        left, _ = index_sumset(a, b, 6)
        right, _ = index_sumset(b, a, 6)
        assert left == right

    @given(x=leaf_sets, y=leaf_sets, z=leaf_sets)
    def test_associative(self, x, y, z):
        a, b, c = tree_of(6, x), tree_of(6, y), tree_of(6, z)
        ab, _ = index_sumset(a, b, 6)
        left, _ = index_sumset(ab, c, 6)
        bc, _ = index_sumset(b, c, 6)
        right, _ = index_sumset(a, bc, 6)
        assert left == right

    @given(x=leaf_sets, y=leaf_sets)
    def test_kernels_agree(self, x, y):
        # the bit-grid shift-or must equal the pairwise set merge
        a = np.fromiter(sorted(x), dtype=np.int64)
        b = np.fromiter(sorted(y), dtype=np.int64)
        assert np.array_equal(_sum_indices(a, 64, b, 64), sum_indices_oracle(a, b))

    @pytest.mark.parametrize(
        "r, translations, depth",
        [
            (1 / 4, (0.0, 1 / 2), 18),  # density 0.002, below the old 1/64 cut
            (1 / 5, (0.0, 2 / 5, 4 / 5), 16),  # density 0.058, above it
        ],
    )
    def test_ifs_sums_match_oracle(self, r, translations, depth):
        a = ifs_attractor(IfsSpec(r=r, translations=translations), depth)
        out, report = index_sumset(a, a, depth)
        want = sum_indices_oracle(a.array(depth), a.array(depth))
        assert out.levels[depth] == tuple(want.tolist())
        assert report.count_exact == want.size

    def test_deep_sparse_operands(self):
        a = tree_of(24, [0, 5, 1 << 20, (1 << 24) - 1])
        b = tree_of(24, [3, 77_777, 12_345_678])
        out, _ = index_sumset(a, b, 24)
        want = sum_indices_oracle(a.array(24), b.array(24))
        assert out.levels[24] == tuple(want.tolist())

    def test_bit_budget(self):
        a = tree_of(4, [0, 3])
        with limit(16), pytest.raises(ResourceLimitError):
            index_sumset(a, a, 4)


class TestIteratedSumset:
    def test_single_fold_keeps_indices(self):
        a = tree_of(5, [3, 17])
        out = iterated_sumset(a, 1, 5)
        assert out.levels[5] == a.levels[5]
        assert out.span == 1

    def test_matches_pairwise_folds(self):
        a = tree_of(6, [0, 9, 27, 40])
        folded = a
        for _ in range(2):
            folded, _ = index_sumset(folded, a, 6)
        assert iterated_sumset(a, 3, 6) == folded

    def test_full_interval_saturates(self):
        # k copies of a full level reach every index up to k(2^n - 1)
        full = tree_of(4, range(16))
        out = iterated_sumset(full, 2, 4)
        assert out.levels[4] == tuple(range(31))
        assert out.span == 2

    def test_monotone_in_the_operand(self):
        big = tree_of(6, [0, 5, 11, 40, 41, 63])
        small = tree_of(6, [0, 11, 41])
        kb = iterated_sumset(big, 3, 6)
        ks = iterated_sumset(small, 3, 6)
        assert set(ks.levels[6]) <= set(kb.levels[6])

    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_folded_oracle(self, k):
        a = ifs_attractor(IfsSpec(r=1 / 4, translations=(0.0, 1 / 2)), 10)
        folded = a.array(10)
        for _ in range(k - 1):
            folded = sum_indices_oracle(folded, a.array(10))
        out = iterated_sumset(a, k, 10)
        assert out.levels[10] == tuple(folded.tolist())
        assert out.span == k

    def test_bad_fold_count(self):
        with pytest.raises(ValueError):
            iterated_sumset(tree_of(2, [0]), 0, 2)


class TestDifferenceSet:
    def test_small_example(self):
        out, offset = difference_set(tree_of(3, [0, 2]), 3)
        assert offset == 2
        assert out.levels[3] == (0, 2, 4)
        assert out.span == 2

    def test_singleton_collapses_to_origin(self):
        out, offset = difference_set(tree_of(6, [37]), 6)
        assert offset == 0
        assert out.levels[6] == (0,)

    def test_empty(self):
        out, offset = difference_set(tree_of(4, []), 4)
        assert out.is_empty()
        assert offset == 0

    def test_middle_thirds_differences_fill_the_line(self):
        # C - C = [-1, 1], so every representable difference index appears
        c8 = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 8)
        out, offset = difference_set(c8, 8)
        assert offset == 255
        assert out.levels[8] == tuple(range(511))

    @given(x=leaf_sets)
    def test_symmetric_about_offset(self, x):
        out, offset = difference_set(tree_of(6, x), 6)
        occ = set(out.levels[6])
        assert occ == {2 * offset - c for c in occ}
        assert 0 in occ and offset in occ


class TestDeltaDense:
    def test_full_tree_dense_everywhere(self):
        assert delta_dense_check(tree_of(5, range(32)), 5, 1.0)

    def test_sparse_tree_fails(self):
        assert not delta_dense_check(tree_of(4, [0]), 4, 0.5)

    def test_reciprocal_double_sum_low_end(self):
        # {1/j + 1/k} fills [0, 1/4] to within one cell at scale 2^-8 but
        # leaves gaps beyond
        F = reciprocal_tree(8)
        twoF = iterated_sumset(F, 2, 8)
        assert delta_dense_check(twoF, 8, 0.25)
        assert not delta_dense_check(twoF, 8, 0.5)
        assert not delta_dense_check(F, 8, 0.25)

    def test_argument_ranges(self):
        t = tree_of(4, [0])
        with pytest.raises(ValueError):
            delta_dense_check(t, 5, 0.5)
        with pytest.raises(ValueError):
            delta_dense_check(t, 4, 1.5)


class TestGridSetD:
    def test_normalizes_cells(self):
        g = GridSetD(2, 3, 1, ((5, 1), (0, 0), (5, 1)))
        assert g.cells == ((0, 0), (5, 1))

    def test_centers(self):
        g = GridSetD(1, 2, 1, ((1,),))
        assert g.centers()[0, 0] == pytest.approx(1.5 / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSetD(4, 2, 1, ())
        with pytest.raises(ValueError):
            GridSetD(2, 2, 1, ((0,),))
        with pytest.raises(ValueError):
            GridSetD(1, 2, 1, ((4,),))
        with pytest.raises(ValueError):
            GridSetD(1, 2, 1, ((-1,),))

    def test_product_pair(self):
        g = grid_product([tree_of(2, [0, 2]), tree_of(2, [1])])
        assert g.dimension == 2
        assert g.cells == ((0, 1), (2, 1))

    def test_product_single_factor(self):
        g = grid_product([tree_of(3, [4, 6])])
        assert g.cells == ((4,), (6,))

    def test_product_mismatches(self):
        with pytest.raises(ValueError):
            grid_product([])
        with pytest.raises(ValueError):
            grid_product([tree_of(2, [0])] * 4)
        with pytest.raises(ValueError):
            grid_product([tree_of(2, [0]), tree_of(3, [0])])
        with pytest.raises(ValueError):
            grid_product([tree_of(2, [0]), tree_of(2, [0], span=2)])

    def test_product_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "_MAX_GRID_CELLS", 8)
        t = tree_of(4, [0, 3, 7])
        with pytest.raises(ResourceLimitError):
            grid_product([t, t])


class TestDistanceSet:
    def test_three_points_on_a_line(self):
        f = GridSetD(1, 4, 1, ((0,), (5,), (15,)))
        out = distance_set(f)
        assert out.span == 1
        assert out.levels[4] == (0, 1, 4, 5, 6, 9, 10, 11, 14, 15)
        for d in (0.0, 5 / 16, 10 / 16, 15 / 16):
            assert cell_of(d, 4, out.span) in set(out.levels[4])

    def test_singleton(self):
        out = distance_set(GridSetD(2, 3, 1, (((2, 2)),)))
        assert out.levels[3] == (0, 1)

    def test_unit_square_corners(self):
        f = GridSetD(2, 6, 1, ((0, 0), (0, 63), (63, 0), (63, 63)))
        out = distance_set(f)
        assert out.span == 2
        assert out.levels[6] == (0, 1, 62, 63, 64, 88, 89, 90)
        side = 63 / 64
        occ = set(out.levels[6])
        for d in (0.0, side, side * math.sqrt(2)):
            assert cell_of(d, 6, out.span) in occ

    def test_same_geometry_coarser_encoding(self):
        # doubling the span and dropping one level doubles every distance,
        # which lands on the same integer cells
        lo = distance_set(GridSetD(1, 4, 1, ((0,), (5,), (9,))))
        hi = distance_set(GridSetD(1, 3, 2, ((0,), (5,), (9,))))
        assert lo.levels[4] == hi.levels[3]

    def test_plane_product_beats_line_differences(self):
        # axis-aligned pairs alone realize every 1-d difference
        c8 = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 8)
        out = distance_set(grid_product([c8, c8]))
        diff, offset = difference_set(c8, 8)
        assert out.count(8) >= (diff.count(8) + 1) // 2
        assert out.count(8) == 362

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distance_set(GridSetD(2, 3, 1, ()))

    def test_pair_budget(self, monkeypatch):
        monkeypatch.setattr(arith, "_MAX_GRID_CELLS", 3)
        f = GridSetD(1, 3, 1, ((0,), (2,), (4,), (6,)))
        with pytest.raises(ResourceLimitError):
            distance_set(f)


class TestAnnulus:
    CORNERS = GridSetD(2, 6, 1, ((0, 0), (0, 63), (63, 0), (63, 63)))

    def test_unit_ring_catches_adjacent_corners(self):
        near = 0.5 / 64
        cells = annulus_cells(self.CORNERS, (near, near), 0.9, 0.2)
        assert cells == [(0, 63), (63, 0)]

    def test_beyond_diameter_is_empty(self):
        assert annulus_cells(self.CORNERS, (0.0, 0.0), 5.0, 1.0) == []

    def test_everything_ring(self):
        assert len(annulus_cells(self.CORNERS, (0.5, 0.5), 0.0, 5.0)) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            annulus_cells(self.CORNERS, (0.5,), 0.0, 1.0)
        with pytest.raises(ValueError):
            annulus_cells(self.CORNERS, (0.5, 0.5), -0.1, 1.0)


class TestGridSerialization:
    def test_round_trip(self, tmp_path):
        g = GridSetD(2, 5, 1, ((0, 3), (17, 30), (31, 31)))
        path = tmp_path / "g.grid"
        save_grid(g, path)
        assert load_grid(path) == g

    def test_header_line(self):
        text = dumps_grid(GridSetD(1, 2, 1, ((0,),)))
        assert text.splitlines()[0] == "grid-set v1 d=1 depth=2 span=1"

    def test_bad_input(self):
        with pytest.raises(FormatError):
            loads_grid("")
        with pytest.raises(FormatError):
            loads_grid("tree v1 d=1 depth=2 span=1\n")
        with pytest.raises(FormatError):
            loads_grid("grid-set v1 d=2 depth=2 span=1\n0\n")
        with pytest.raises(FormatError):
            # cell outside the grid
            loads_grid("grid-set v1 d=1 depth=2 span=1\n9\n")
        with pytest.raises(FormatError):
            loads_grid("grid-set v1 d=2 depth=2 span=1\n0 x\n")

    @pytest.mark.parametrize(
        "header", ["grid-set v1 d=1 depth=1000000000000000000 span=1", "grid-set v1 d=1 depth=2 span"]
    )
    def test_hostile_header(self, header):
        with pytest.raises(FormatError):
            loads_grid(header + "\n0\n")
