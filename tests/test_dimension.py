"""Box / local branching estimators and the sumset growth experiment."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cantor_cells_exact

from dimlab import (
    DyadicTree,
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
from dimlab.dimension import _count_at
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
        assert _count_at(g, 2) == 2
        assert _count_at(g, 1) == 2
        assert _count_at(g, 0) == 1


class TestSumsetMonotonicity:
    def test_counts_grow_with_fold_when_zero_present(self):
        # 0 in A makes kA a subset of (k+1)A cell for cell
        a = tree_of(8, [0, 3, 40, 41, 200])
        prev = iterated_sumset(a, 2, 8)
        for k in (3, 4):
            cur = iterated_sumset(a, k, 8)
            for n in range(9):
                assert _count_at(prev, n) <= _count_at(cur, n)
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

    def test_csv_layout(self):
        table = growth_experiment(MoranSpec(2, "4^-j"), 2, 10)
        rows = table.csv_rows()
        assert rows[0] == "k,box_upper,box_lower,assouad,lower"
        assert len(rows) == 3
        assert rows[1].startswith("1,")

    def test_k_max_validation(self):
        with pytest.raises(ValueError):
            growth_experiment(MoranSpec(2, "4^-j"), 1, 8)

    def test_work_budget(self):
        with pytest.raises(ResourceLimitError):
            growth_experiment(MoranSpec(1, "2^-j"), 4, 27)

    def test_negative_depth(self):
        with pytest.raises(ValueError, match="negative depth -1"):
            growth_experiment(MoranSpec(2, "4^-j"), 2, -1)
