"""Box / local branching estimators and the sumset growth experiment."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    cantor_cells_exact,
    least_squares_slope_oracle,
    local_per_scale_oracle,
    random_tree,
)

from dimlab import (
    DyadicTree,
    GridSetD,
    IfsSpec,
    MoranSpec,
    ResourceLimitError,
    assouad_estimate,
    assouad_slope,
    box_estimate,
    grid_product,
    growth_experiment,
    ifs_attractor,
    iterated_sumset,
    lower_estimate,
    moran_tree,
    reciprocal_tree,
)
import dimlab.dimension as dimension
from dimlab import dyadic
from dimlab import measures
from dimlab.io import dumps_json
from dimlab.budget import limit
from dimlab.verify import LOG2_3


def tree_of(depth, leaves, span=1):
    return DyadicTree.from_leaves(depth, span, leaves)


leaf_sets = st.sets(st.integers(0, 255), min_size=1, max_size=40)


class TestBoxEstimate:
    def test_full_interval_is_one(self):
        full = tree_of(8, range(256))
        for variant in ("upper", "lower"):
            est = box_estimate(full, 1, 8, variant)
            assert est.value == 1.0
            assert est.slope == pytest.approx(1.0)

    def test_chain_is_zero(self):
        chain = tree_of(8, [0])
        assert box_estimate(chain, 1, 8, "upper").value == 0.0

    def test_moran_window(self):
        t = moran_tree(MoranSpec(2, "4^-j"), 20)
        assert box_estimate(t, 10, 20, "lower").value == 0.5
        # the odd scale n=11 still carries the generation-5 count 2^6
        assert box_estimate(t, 10, 20, "upper").value == pytest.approx(6 / 11)
        assert box_estimate(t, 10, 20, "upper").slope == pytest.approx(0.5, abs=1e-9)

    def test_value_recomputable_from_per_scale(self):
        t = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 10)
        est = box_estimate(t, 3, 10, "upper")
        assert est.value == max(v / n for n, v in est.per_scale)
        low = box_estimate(t, 3, 10, "lower")
        assert low.value == min(v / n for n, v in low.per_scale)
        assert low.per_scale == est.per_scale

    def test_span_normalization(self):
        # a full span-2 tree still has exponent 1
        full2 = tree_of(4, range(32), span=2)
        assert box_estimate(full2, 1, 4, "upper").value == 1.0

    def test_upper_at_least_lower(self):
        t = reciprocal_tree(12)
        up = box_estimate(t, 4, 12, "upper").value
        lo = box_estimate(t, 4, 12, "lower").value
        assert up >= lo

    def test_single_scale_has_no_slope(self):
        est = box_estimate(tree_of(4, range(16)), 3, 3)
        assert est.slope is None
        assert est.value == 1.0

    def test_window_validation(self):
        t = tree_of(4, [0])
        with pytest.raises(ValueError):
            box_estimate(t, 0, 4)
        with pytest.raises(ValueError):
            box_estimate(t, 3, 5)
        with pytest.raises(ValueError):
            box_estimate(t, 2, 4, "median")

    def test_json_shape(self):
        est = box_estimate(tree_of(4, range(16)), 2, 4)
        row = est.to_json(name="interval")
        assert row["kind"] == "box_upper"
        assert row["set"] == "interval"
        assert row["window"] == [2, 4]
        assert len(row["per_scale"]) == 3
        assert "slope" in row


class TestLocalEstimates:
    def test_full_interval(self):
        full = tree_of(8, range(256))
        assert assouad_estimate(full, 4).value == 1.0
        assert lower_estimate(full, 4).value == 1.0

    def test_chain(self):
        chain = tree_of(8, [0])
        assert assouad_estimate(chain, 4).value == 0.0
        assert lower_estimate(chain, 4).value == 0.0

    def test_uniform_moran_branching(self):
        # every vertex of the 4^-j set branches exactly 2^(m/2) times over
        # any even window, so both local estimates pin to 1/2
        t = moran_tree(MoranSpec(2, "4^-j"), 20)
        for m in (4, 8):
            assert lower_estimate(t, m).value == 0.5
            assert assouad_estimate(t, m).value == 0.5

    def test_harmonic_points_extremes(self):
        # solid near 0, isolated points near 1
        t = reciprocal_tree(20)
        assert assouad_estimate(t, 8).value == 1.0
        assert lower_estimate(t, 8).value == 0.0

    def test_window_recorded(self):
        est = assouad_estimate(tree_of(6, range(64)), 3)
        assert est.window == (0, 3)
        assert est.slope is None
        assert est.value == max(v for _, v in est.per_scale) / 3

    @given(x=leaf_sets, m=st.sampled_from([1, 2, 4]))
    def test_local_bounds_sandwich_the_root_exponent(self, x, m):
        t = tree_of(8, x)
        root = box_estimate(t, m, m, "upper").value
        assert lower_estimate(t, m).value <= root + 1e-12
        assert root <= assouad_estimate(t, m).value + 1e-12

    def test_window_validation(self):
        t = tree_of(4, [0, 3])
        with pytest.raises(ValueError):
            assouad_estimate(t, 0)
        with pytest.raises(ValueError):
            lower_estimate(t, 5)
        with pytest.raises(ValueError):
            assouad_slope(t, 3, 3)
        with pytest.raises(ValueError):
            assouad_slope(t, 2, 5)

    @pytest.mark.parametrize(
        "empty",
        [tree_of(4, []), GridSetD(2, 4, 1, [])],
        ids=["tree", "grid"],
    )
    def test_empty_set_named(self, empty):
        with pytest.raises(ValueError, match="empty set has no assouad estimate"):
            assouad_estimate(empty, 2)
        with pytest.raises(ValueError, match="empty set has no lower estimate"):
            lower_estimate(empty, 2)


# a tree and a grid, and each estimator with the window argument w in one place
WINDOW_SETS = {
    "tree": lambda: tree_of(4, [0, 3, 9, 15]),
    "grid": lambda: GridSetD(2, 4, 1, [(0, 0), (3, 5), (9, 9), (15, 2)]),
}
WINDOWED = {
    "box-start": lambda obj, w: box_estimate(obj, w, 4),
    "box-end": lambda obj, w: box_estimate(obj, 1, w),
    "assouad": assouad_estimate,
    "lower": lower_estimate,
    "slope-start": lambda obj, w: assouad_slope(obj, w, 4),
    "slope-end": lambda obj, w: assouad_slope(obj, 1, w),
}


class TestWindowIntegerRule:
    """Window bounds and lengths follow the integer rule of the level
    queries: booleans and non-integers are refused before any count, and
    numpy integers are stored as ints, so every estimate serializes."""

    @pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
    @pytest.mark.parametrize("name", sorted(WINDOWED))
    @pytest.mark.parametrize("kind", sorted(WINDOW_SETS))
    def test_non_integer_windows_are_refused(self, kind, name, bad):
        # an empty set too: the window is refused before any count
        for obj in (WINDOW_SETS[kind](), GridSetD(2, 4, 1, [])):
            with pytest.raises(ValueError, match=r"^window(s| bounds) must be integers, got \["):
                WINDOWED[name](obj, bad)

    @pytest.mark.parametrize("kind", sorted(WINDOW_SETS))
    def test_numpy_integer_windows_are_stored_as_ints(self, kind):
        obj = WINDOW_SETS[kind]()
        for got, want in [
            (box_estimate(obj, np.int64(2), np.int32(4)), box_estimate(obj, 2, 4)),
            (assouad_estimate(obj, np.int64(2)), assouad_estimate(obj, 2)),
            (lower_estimate(obj, np.uint8(3)), lower_estimate(obj, 3)),
        ]:
            assert got == want
            assert [type(n) for n in got.window] == [int, int]
            assert dumps_json(got.to_json()) == dumps_json(want.to_json())
        assert assouad_slope(obj, np.int64(1), np.uint8(4)) == assouad_slope(obj, 1, 4)


# _LEVEL_BLOCK values under which descendant_starts compares each cell
# alone, three cells at once, and 2^15 cells at once, which splits levels 16
# and 17 of the straddling tree into two and three blocks
LEVEL_BLOCKS = (1, 3, 1 << 15)


def assert_local_estimates_match_the_oracle(tree: DyadicTree, block: int) -> None:
    """assouad_estimate and lower_estimate against the searchsorted oracle
    for every window m = 1..depth, with descendant_starts comparing
    neighbours in blocks of `block` cells and the measure kernels' block
    helpers barred: the estimates read descendant_counts alone."""

    def barred(*args, **kwargs):
        raise AssertionError("a local estimate ran a measure block helper")

    with mock.patch.object(dyadic, "_LEVEL_BLOCK", block), \
            mock.patch.object(measures, "_blocks", barred), \
            mock.patch.object(measures, "_block_child_starts", barred):
        for m in range(1, tree.max_depth + 1):
            for estimate, reduce in ((assouad_estimate, max), (lower_estimate, min)):
                got, want = estimate(tree, m), local_per_scale_oracle(tree, m, reduce)
                assert got.per_scale == want, (estimate.__name__, m)
                assert got.value == reduce(v for _, v in want) / m


class TestBlockedScan:
    """The Assouad and lower estimates of a tree, read level by level from
    descendant_counts, whose starts are run heads found in blocks of
    _LEVEL_BLOCK cells, against per-level searchsorted counts under every
    block size, and equal to those of the 1-d grid of the same leaves."""

    TREES = {
        "moran": lambda: moran_tree(MoranSpec(2, "4^-j"), 12),
        "ifs": lambda: ifs_attractor(IfsSpec(0.3, (0.0, 0.2, 0.7)), 12),
        "reciprocal": lambda: reciprocal_tree(12),
        "span-2": lambda: tree_of(9, [0, 1, 2, 300, 511, 512, 700, 1023], span=2),
        # one cell a level down to the deepest, which has two
        "two-points": lambda: tree_of(10, [0, 1]),
        # levels 16 and 17 (35,100 and 66,717 cells) are larger than a block of 2^15
        "straddling": lambda: random_tree(np.random.default_rng(17), 17, 0.9),
    }

    @pytest.mark.parametrize("block", LEVEL_BLOCKS)
    @pytest.mark.parametrize("name", sorted(TREES))
    def test_named_trees_match_the_oracle(self, name, block):
        assert_local_estimates_match_the_oracle(self.TREES[name](), block)

    @pytest.mark.parametrize("block", LEVEL_BLOCKS)
    @given(st.integers(1, 10), st.integers(1, 3), st.data())
    def test_random_trees_match_the_oracle(self, block, depth, span, data):
        leaves = data.draw(st.lists(st.integers(0, (span << depth) - 1), min_size=1, max_size=60))
        assert_local_estimates_match_the_oracle(tree_of(depth, leaves, span), block)

    @pytest.mark.parametrize("name", ["span-2", "two-points", "moran", "ifs"])
    def test_a_line_grid_gives_the_tree_estimates(self, name):
        tree = self.TREES[name]()
        leaves = tree.array(tree.max_depth)
        grid = GridSetD(1, tree.max_depth, tree.span, leaves[:, None])
        for m in range(1, tree.max_depth + 1):
            assert assouad_estimate(grid, m) == assouad_estimate(tree, m), m
            assert lower_estimate(grid, m) == lower_estimate(tree, m), m


def within_ulps(got: float, exact: Fraction, ulps: int = 4) -> bool:
    return abs(Fraction(got) - exact) <= ulps * Fraction(math.ulp(float(exact)))


class TestSlopeOracle:
    """The closed-form least-squares slopes against exact rationals."""

    @given(st.integers(0, 2**32 - 1), st.integers(3, 16), st.floats(0.3, 0.95), st.data())
    def test_slopes_within_4_ulps_on_random_windows(self, seed, depth, p, data):
        tree = random_tree(np.random.default_rng(seed), depth, p)
        lo = data.draw(st.integers(1, depth - 1))
        ms = range(lo, data.draw(st.integers(lo + 1, depth)) + 1)
        est = box_estimate(tree, ms[0], ms[-1])
        assert within_ulps(est.slope, least_squares_slope_oracle(ms, [v for _, v in est.per_scale]))
        logs = [m * assouad_estimate(tree, m).value for m in ms]
        assert within_ulps(assouad_slope(tree, ms[0], ms[-1]), least_squares_slope_oracle(ms, logs))

    def test_an_exact_line_has_its_exact_slope(self):
        # log2 counts n on levels 0..9 of the even cells of level 10
        t = tree_of(10, range(0, 1024, 2))
        assert box_estimate(t, 2, 9).slope == 1.0
        assert assouad_slope(tree_of(8, [5]), 1, 8) == 0.0


class TestAssouadSlope:
    def test_cantor_surrogate_counts_the_exact_root_cells(self, cantor12):
        # the m=12 maximum sits at the root and equals the Fraction oracle's
        # cell count, so its overshoot of log 2/log 3 is the covering
        # constant of the dyadic grid, not an estimator error
        value = assouad_estimate(cantor12, 12).value
        assert 2 ** (12 * value) == pytest.approx(len(cantor_cells_exact(12)), abs=1e-9)
        assert len(cantor_cells_exact(12)) == 362
        assert value - LOG2_3 > 0.07

    def test_slope_separates_quarter_cantor_from_log2_3(self):
        # the cantor-box clause on the r=1/4 set: its slope finds 1/2 and
        # sits far outside log 2/log 3 +- 0.03
        t = ifs_attractor(IfsSpec(r=1 / 4, translations=(0.0, 3 / 4)), 24)
        slope = assouad_slope(t, 12, 24)
        assert slope == pytest.approx(0.5, abs=0.01)
        assert abs(slope - LOG2_3) > 0.03


class TestGridEstimates:
    def test_full_square(self):
        full = tree_of(4, range(16))
        g = grid_product([full, full])
        assert box_estimate(g, 1, 4, "upper").value == 2.0
        assert box_estimate(g, 1, 4, "lower").value == 2.0
        assert assouad_estimate(g, 2).value == 2.0
        assert lower_estimate(g, 2).value == 2.0

    def test_product_doubles_the_line_estimates(self):
        # counts multiply exactly across the product, so every per-scale
        # exponent doubles
        c8 = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 8)
        g = grid_product([c8, c8])
        assert box_estimate(g, 4, 8, "upper").value == pytest.approx(
            2 * box_estimate(c8, 4, 8, "upper").value, abs=1e-12
        )
        assert assouad_estimate(g, 4).value == pytest.approx(
            2 * assouad_estimate(c8, 4).value, abs=1e-12
        )

    def test_coarsening_counts(self):
        g = grid_product([tree_of(2, [0, 2]), tree_of(2, [1])])
        assert g.count(2) == 2
        assert g.count(1) == 2
        assert g.count(0) == 1


class TestSumsetMonotonicity:
    def test_counts_grow_with_fold_when_zero_present(self):
        # 0 in A makes kA a subset of (k+1)A cell for cell
        a = tree_of(8, [0, 3, 40, 41, 200])
        prev = iterated_sumset(a, 2, 8)
        for k in (3, 4):
            cur = iterated_sumset(a, k, 8)
            for n in range(9):
                assert prev.count(n) <= cur.count(n)
            prev = cur


class TestGrowthExperiment:
    def test_full_interval_saturates_immediately(self):
        table = growth_experiment(IfsSpec(0.5, (0.0, 0.5)), 3, 10)
        assert [r.box_upper.value for r in table.rows] == [1.0, 1.0, 1.0]
        assert table.strictly_increasing
        assert table.window == (5, 10)
        assert table.m == 5

    def test_middle_thirds_fills_in_one_sum(self):
        spec = IfsSpec(1 / 3, (0.0, 2 / 3))
        table = growth_experiment(spec, 2, 12)
        first, second = table.rows
        direct = box_estimate(ifs_attractor(spec, 12), 6, 12, "upper")
        assert first.box_upper.value == direct.value
        assert first.box_upper.value < 0.85
        assert second.box_upper.value > 0.99
        assert table.strictly_increasing

    def test_row_fields_cover_all_estimators(self):
        table = growth_experiment(MoranSpec(2, "4^-j"), 2, 10)
        row = table.rows[0]
        assert row.k == 1
        assert row.box_upper.kind == "box_upper"
        assert row.box_lower.kind == "box_lower"
        assert row.assouad.kind == "assouad"
        assert row.lower.kind == "lower"
        data = table.to_json()
        assert [r["k"] for r in data["rows"]] == [1, 2]

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            growth_experiment(MoranSpec(2, "4^-j"), 1, 8)

    def test_work_budget(self):
        # each fold is charged its own sums: 2A of the 32 depth-10 cells has
        # at most 32 x 32 = 1,024
        with limit(1023), pytest.raises(ResourceLimitError, match="sumset grid needs 1024 cells"):
            growth_experiment(MoranSpec(2, "4^-j"), 3, 10)
        # kA of one point is one point, charged one cell, not a 4 x 2^27 grid
        table = growth_experiment(MoranSpec(1, "2^-j"), 4, 27)
        assert [row.assouad.value for row in table.rows] == [0.0] * 4

    def test_fold_count_is_bounded_before_any_fold(self):
        # one row per fold is charged, so a huge k_max on one point is refused
        # at once; within the budget, the last fold's grid must fit int64
        point = MoranSpec(1, "2^-j")
        with mock.patch.object(dimension, "index_sumset") as fold:
            with pytest.raises(ResourceLimitError, match="growth rows needs 1000000000 cells"):
                growth_experiment(point, 10**9, 27)
            with pytest.raises(ValueError, match=r"is not a grid of under 2\^63 cells"):
                growth_experiment(point, 1 << 20, 50)
        assert not fold.called

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="negative depth -1"):
            growth_experiment(MoranSpec(2, "4^-j"), 2, -1)
