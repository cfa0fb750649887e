"""Sumsets, differences, distance sets: kernels, frozen examples, budgets."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import dimlab.arithmetic as arith
from dimlab import (
    DyadicTree,
    FormatError,
    GridSetD,
    IfsSpec,
    MoranSpec,
    ResourceLimitError,
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
    moran_tree,
    reciprocal_tree,
)
from dimlab.arithmetic import _difference_vectors, _isqrt, _sum_indices
from dimlab.budget import limit
from dimlab.dyadic import cell_of

from conftest import (
    delta_dense_oracle,
    distance_set_oracle,
    distance_set_sqrt_oracle,
    iterated_sumset_oracle,
    sum_indices_oracle,
)


def tree_of(depth, leaves, span=1):
    return DyadicTree.from_leaves(depth, span, leaves)


leaf_sets = st.sets(st.integers(0, 63), min_size=1, max_size=20)


grid_shapes = st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(1, 3))


@st.composite
def grids(draw):
    d, depth, span = draw(grid_shapes)
    coord = st.integers(0, (span << depth) - 1)
    cells = draw(st.sets(st.tuples(*[coord] * d), min_size=1, max_size=40))
    return GridSetD(d, depth, span, tuple(cells))


@st.composite
def product_grids(draw, least=1):
    """A product of d sorted axes of least..6 values each.  least = 2 draws
    d >= 2 and depth >= 1, so that every axis has room for two values."""
    shapes = grid_shapes if least == 1 else st.tuples(st.integers(2, 3), st.integers(1, 6), st.integers(1, 3))
    d, depth, span = draw(shapes)
    coord = st.integers(0, (span << depth) - 1)
    axes = [sorted(draw(st.sets(coord, min_size=least, max_size=6))) for _ in range(d)]
    cells = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    return GridSetD(d, depth, span, tuple(map(tuple, cells.tolist())))


def test_one_level_rule_and_text():
    a, b = tree_of(3, [0, 5]), tree_of(2, [1])
    calls = [
        lambda: index_sumset(a, b, 3),
        lambda: iterated_sumset(b, 2, 3),
        lambda: difference_set(b, 3),
        lambda: delta_dense_check(b, 3, 0.5),
        lambda: index_sumset(b, a, -1),
    ]
    for call, level in zip(calls, (3, 3, 3, 3, -1)):
        with pytest.raises(ValueError, match=rf"^level {level} outside 0\.\.2$"):
            call()


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
        # the route the cost rule picks must equal the pairwise set merge
        a = np.fromiter(sorted(x), dtype=np.int64)
        b = np.fromiter(sorted(y), dtype=np.int64)
        assert np.array_equal(_sum_indices(a, b), sum_indices_oracle(a, b))

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
        # charged |A|·|B| = 4 sums, fewer than the extent of 7
        a = tree_of(4, [0, 3])
        with limit(3), pytest.raises(ResourceLimitError, match="sumset grid needs 4 cells"):
            index_sumset(a, a, 4)
        with limit(4):
            assert index_sumset(a, a, 4)[0].array(4).tolist() == [0, 3, 6]

    @pytest.mark.parametrize("depth", [28, 30])
    def test_deep_random_operands_at_the_default_budget(self, depth):
        # 1,000 cells each on a grid past the budget: charged the at most
        # 10^6 sums they can have, not the grid
        rng = np.random.default_rng(depth)
        a, b = (tree_of(depth, rng.choice(1 << depth, 1000, replace=False)) for _ in range(2))
        idx = a.array(depth)
        got, _ = index_sumset(a, b, depth)
        assert np.array_equal(got.array(depth), sum_indices_oracle(idx, b.array(depth)))
        diff, offset = difference_set(a, depth)
        assert np.array_equal(diff.array(depth), sum_indices_oracle(idx, -idx) + offset)

    def test_sums_past_int64_are_refused_before_any_work(self):
        # under a budget of 0, any charge would raise ResourceLimitError first
        big = np.array([1 << 62])
        with limit(0), pytest.raises(ValueError, match="sums up to 9223372036854775808 do not fit int64"):
            _sum_indices(big, big)
        # 2^61 copies of the cell 15 would wrap around at the 60th doubling
        with pytest.raises(ValueError, match="do not fit int64"):
            iterated_sumset(tree_of(4, [15]), 2**61, 4)

    def test_sum_grids_past_int64_are_refused(self):
        # the sums fit, but no tree file could hold their grid
        a = tree_of(60, [0], span=7)
        too_wide = "is not a grid of under 2\\^63 cells"
        with pytest.raises(ValueError, match=too_wide):
            index_sumset(a, a, 60)
        with pytest.raises(ValueError, match=too_wide):
            difference_set(a, 60)
        with pytest.raises(ValueError, match=too_wide):
            iterated_sumset(tree_of(4, [0]), 2**61, 4)


@functools.cache
def deep_leaves(r: int, depth: int) -> np.ndarray:
    """The level-`depth` cells of the two-map attractor with ratio 1/r."""
    return ifs_attractor(IfsSpec(1 / r, (0.0, 1 - 1 / r)), depth).array(depth)


@st.composite
def deep_sparse_operands(draw):
    """Two subsets of a depth-28..30 r = 1/5 or 1/7 attractor: grids far
    beyond any transform the budget admits, with few cells."""
    leaves = deep_leaves(*draw(st.sampled_from([(5, 28), (5, 30), (7, 28), (7, 30)])))
    pick = st.lists(st.integers(0, leaves.size - 1), min_size=1, max_size=80, unique=True)
    return [np.sort(leaves[draw(pick)]) for _ in range(2)]


@st.composite
def dense_operands(draw):
    """Two random subsets of density 0.2..0.95 of grids of 2^2..2^9 cells,
    each shifted by its own offset."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cap = 1 << draw(st.integers(2, 9))
    p = draw(st.floats(0.2, 0.95))
    ops = [np.flatnonzero(rng.random(cap) < p) + draw(st.integers(0, 1000)) for _ in range(2)]
    assume(all(op.size for op in ops))
    return ops


@st.composite
def spread_operands(draw):
    """Two sets of 1..60 cells spread over grids of up to 2^16 cells, each
    shifted by its own offset: sparse operands whose extent fits any route."""
    cells = st.sets(st.integers(0, (1 << draw(st.integers(1, 16))) - 1), min_size=1, max_size=60)
    return [np.fromiter(sorted(draw(cells)), dtype=np.int64) + draw(st.integers(0, 1000)) for _ in range(2)]


def transform_length(a, b):
    """The least power of two covering the extent of the sums of a and b."""
    return 1 << int(a[-1] - a[0] + b[-1] - b[0]).bit_length()


def fft_sums(a, b):
    """{i + j} by the FFT route alone."""
    counts = arith._fft_counts(a, b, transform_length(a, b))
    return np.flatnonzero(counts > 0.5) + (a[0] + b[0])


def reflection(a):
    """a[-1] - a[::-1]: the operand whose sums with a are its differences
    shifted by a[-1]."""
    return a[-1] - a[::-1]


def autocorrelation_differences(a):
    """The differences of a shifted by a[-1] - a[0], by the one-transform
    autocorrelation route alone."""
    b = reflection(a)
    return np.flatnonzero(arith._fft_counts(a, b, transform_length(a, b), reflected=True) > 0.5)


ROUTES = {"sort": arith._outer_sums, "marks": arith._marked_sums, "fft": fft_sums}


class TestSumRoutes:
    @given(deep_sparse_operands())
    def test_outer_route_on_deep_sparse_operands(self, ops):
        a, b = ops
        want = sum_indices_oracle(a, b)
        assert np.array_equal(arith._outer_sums(a, b), want)
        # blocks of a few pairs exercise the merge of the blocks
        with mock.patch.object(arith, "_BLOCK_PAIRS", 97):
            assert np.array_equal(arith._outer_sums(a, b), want)

    def test_outer_route_merges_blocks_of_a_whole_deep_tree(self):
        a = deep_leaves(5, 28)
        b = deep_leaves(7, 30)[::25].copy()
        assert a.size * b.size > 4 * arith._BLOCK_PAIRS
        assert np.array_equal(arith._outer_sums(a, b), sum_indices_oracle(a, b))

    def test_outer_route_holds_the_sums_not_the_blocks(self, monkeypatch):
        # 1,024 blocks of 4,096 pairs with 4,095 distinct sums in all: the
        # parts are merged as they come, so no more than a few blocks are held
        monkeypatch.setattr(arith, "_BLOCK_PAIRS", 4096)
        a = np.arange(2048)
        tracemalloc.start()
        try:
            got = arith._outer_sums(a, a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, np.arange(4095))
        assert peak < 16 * 4096 * 8

    def test_outer_blocks_fit_a_small_budget(self):
        # 390,000 pairs under a budget of two rows: twenty blocks, merged
        a, b = np.arange(0, 30_000, 3), np.arange(0, 270, 7)
        with limit(2 * a.size):
            got = arith._outer_sums(a, b)
        assert np.array_equal(got, sum_indices_oracle(a, b))

    @given(dense_operands())
    def test_both_routes_on_dense_operands(self, ops):
        a, b = ops
        want = sum_indices_oracle(a, b)
        assert np.array_equal(fft_sums(a, b), want)
        assert np.array_equal(arith._outer_sums(a, b), want)
        assert np.array_equal(_sum_indices(a, b), want)
        assert np.array_equal(_sum_indices(a, a), sum_indices_oracle(a, a))

    def test_equal_operands_held_apart_take_one_forward_transform(self, monkeypatch):
        a = np.sort(np.random.default_rng(7).choice(1 << 11, 300, replace=False))
        assert arith._route(a.size, a.size, 2 * int(a[-1] - a[0]) + 1)[0] == "fft"
        forward = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda x: forward.append(x.size) or rfft(x))
        assert np.array_equal(_sum_indices(a, a.copy()), sum_indices_oracle(a, a))
        assert len(forward) == 1
        # operands that differ in one cell take two
        b = a.copy()
        b[-1] += 1
        assert np.array_equal(_sum_indices(a, b), sum_indices_oracle(a, b))
        assert len(forward) == 3

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @given(ops=st.one_of(dense_operands(), spread_operands()))
    def test_each_route_matches_oracle(self, route, ops):
        a, b = ops
        assert np.array_equal(ROUTES[route](a, b), sum_indices_oracle(a, b))
        assert np.array_equal(ROUTES[route](a, a), sum_indices_oracle(a, a))

    @given(ops=st.one_of(dense_operands(), spread_operands()))
    def test_autocorrelation_differences_match_outer_differences(self, ops):
        a = ops[0]
        want = sum_indices_oracle(a, -a) + int(a[-1] - a[0])
        assert np.array_equal(autocorrelation_differences(a), want)
        # _differences reflects a shifted to 0; every route it may take agrees
        assert np.array_equal(arith._differences(a)[0], want)
        shifted = a - a[0]
        for fn in ROUTES.values():
            assert np.array_equal(fn(shifted, reflection(shifted)), want)

    def test_cost_rule(self):
        # few pairs on a wide grid: marks; many on a narrow one: FFT
        assert arith._route(512, 512, 1 << 19) == ("marks", 1 << 19)
        assert arith._route(3784, 3784, (1 << 17) - 1) == ("fft", 1 << 17)
        # marks are cheaper than a transform up to a few pairs per cell
        assert arith._route(888, 255, (1 << 15) - 1)[0] == "marks"
        assert arith._route(2187, 2187, 43_689) == ("fft", 3 << 14)
        # a transform has a fixed cost too: small dust axes never load numpy.fft
        for n, extent in ((42, 1 << 8), (84, 1 << 9), (142, 1 << 10)):
            assert arith._route(n, n, extent)[0] == "marks"
        assert arith._route(300, 300, 1 << 10)[0] == "fft"
        # extents past the budget are sorted: 1,000 cells each at depth 28
        assert arith._route(1000, 1000, 1 << 29)[0] == "sort"
        with limit(1 << 12):
            assert arith._route(3784, 3784, 1 << 13)[0] == "sort"
            assert arith._route(64, 64, 1 << 12)[0] == "marks"
        # the rounding bound fails long before the pair count does
        with limit(1 << 62):
            assert arith._route(1 << 45, 1 << 45, 1 << 46)[0] != "fft"

    def test_wide_transforms_cost_more_per_step(self, monkeypatch):
        # 20 million pairs over an extent near 2^20: a flat step sends them
        # to a transform of 2^20, which times slower than marking them
        # (2 cores, numpy 2.4.6: 64-92 ms against 42-64 ms marked)
        assert arith._route(4500, 4500, (1 << 20) - 1) == ("marks", 1 << 20)
        monkeypatch.setattr(arith, "_STEP_GROWTH", 0)
        assert arith._route(4500, 4500, (1 << 20) - 1) == ("fft", 1 << 20)

    SLOT_ROUTES = {
        # (kind, operands, depth): the route and transform length each
        # sum of the sumset-growth benchmark's sum and difference slots takes
        ("sum", ("q2", "q2"), 16): ("marks", 1 << 17),
        ("sum", ("q2n", "q2n"), 18): ("marks", 3 << 17),
        ("sum", ("q2", "q2n"), 16): ("marks", 1 << 17),
        ("sum", ("c3", "c3"), 16): ("fft", 1 << 17),
        ("sum", ("f3", "f3"), 16): ("fft", 1 << 17),
        ("sum", ("c3", "f3"), 16): ("fft", 1 << 17),
        ("diff", ("q2n",), 18): ("marks", 3 << 17),
        ("diff", ("q2",), 16): ("marks", 1 << 17),
        ("diff", ("f3",), 16): ("fft", 1 << 17),
        ("diff", ("q3",), 16): ("fft", 1 << 17),
    }

    @pytest.mark.parametrize("case", SLOT_ROUTES, ids=lambda c: "-".join([c[0], *c[1], str(c[2])]))
    def test_benchmark_sums_keep_their_routes(self, monkeypatch, case):
        from dimlab import spec_from_json

        ifs = {
            "c3": ("1/3", ["0", "2/3"]),
            "q2": ("1/4", ["0", "3/4"]),
            "q2n": ("1/4", ["0", "1/2"]),
            "q3": ("1/4", ["0", "1/4", "3/4"]),
            "f3": ("1/5", ["0", "2/5", "4/5"]),
        }
        kind, names, depth = case
        trees = [
            ifs_attractor(spec_from_json({"type": "ifs", "r": ifs[n][0], "translations": ifs[n][1]}), depth)
            for n in names
        ]
        verdicts = []
        real = arith._route
        monkeypatch.setattr(arith, "_route", lambda *args: verdicts.append(real(*args)) or verdicts[-1])
        if kind == "sum":
            index_sumset(trees[0], trees[1], depth)
        else:
            difference_set(trees[0], depth)
        assert verdicts == [self.SLOT_ROUTES[case]]

    def test_fft_rounding_on_workload_operands(self, record_property):
        def ifs(r, ts, depth):
            return ifs_attractor(IfsSpec(r, ts), depth).array(depth)

        q3 = ifs(1 / 4, (0.0, 1 / 4, 3 / 4), 16)
        f3 = ifs(1 / 5, (0.0, 2 / 5, 4 / 5), 16)
        c3 = ifs(1 / 3, (0.0, 2 / 3), 16)
        moran = moran_tree(MoranSpec(2, "4^-j"), 14).array(14)
        pairs = [
            (q3, q3[-1] - q3[::-1]),  # difference set of 9,841 cells
            (f3, f3),
            (c3, f3),
            (iterated_sumset_oracle(moran, 3, 1 << 14), moran),
        ]
        worst = 0.0
        for a, b, reflected in [(a, b, False) for a, b in pairs] + [(q3, reflection(q3), True), (f3, reflection(f3), True)]:
            counts = arith._fft_counts(a, b, transform_length(a, b), reflected)
            worst = max(worst, float(np.abs(counts - np.rint(counts)).max()))
        record_property("fft_max_rounding_error", worst)
        assert worst < 1e-6
        # the rounded counts are the exact pair counts, by either transform
        f14 = ifs(1 / 5, (0.0, 2 / 5, 4 / 5), 14)
        for b, reflected in ((f14, False), (reflection(f14), True)):
            counts = arith._fft_counts(f14, b, transform_length(f14, b), reflected)
            exact = np.bincount(np.add.outer(f14, b).ravel() - (f14[0] + b[0]), minlength=counts.size)
            assert np.array_equal(np.rint(counts), exact)

    @pytest.mark.parametrize("route", ["outer", "fft", "marks"])
    def test_routes_charge_before_they_allocate(self, route):
        a, b = np.arange(0, 30_000, 3), np.arange(0, 2_700, 7)
        fn, cells, what = {
            # blocks shrink to fit the budget, down to one row of a
            "outer": (arith._outer_sums, a.size, "sumset pairs"),
            "fft": (functools.partial(arith._fft_counts, length=1 << 15), 1 << 15, "sumset transform"),
            # the grid of flags over the extent of the sums, 29,997 + 2,695 + 1
            "marks": (arith._marked_sums, 32_693, "sumset marks"),
        }[route]
        tracemalloc.start()
        try:
            with limit(cells - 1), pytest.raises(ResourceLimitError, match=f"{what} needs {cells} cells"):
                fn(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells * 8 // 2

    def test_marked_blocks_fit_a_small_budget(self):
        # the flags fit, and 390,000 pairs go in blocks of four rows
        a, b = np.arange(0, 30_000, 3), np.arange(0, 270, 7)
        with limit(4 * a.size):
            got = arith._marked_sums(a, b)
        assert np.array_equal(got, sum_indices_oracle(a, b))

    @pytest.mark.parametrize("length", [1 << 16, 3 << 15])
    @pytest.mark.parametrize("kind", ["square", "product", "reflected"])
    def test_transform_holds_one_buffer_and_two_spectra(self, kind, length):
        a = np.sort(np.random.default_rng(length).choice(length // 2, 5000, replace=False))
        b = {"square": a, "product": a + 7, "reflected": reflection(a)}[kind]
        args = (a, b, length, kind == "reflected")
        arith._fft_counts(*args)  # numpy.fft's first call sets up its own caches
        tracemalloc.start()
        try:
            arith._fft_counts(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        spectrum = 16 * (length // 2 + 1)
        assert peak < 8 * length + 2 * spectrum + 8 * (a.size + b.size)

    def test_sums_run_at_exactly_their_grid_budget(self):
        # span 3: a power-of-two transform would overshoot the 6 * 2^10-cell
        # grid, and a block of 2^18 pairs would too
        rng = np.random.default_rng(5)
        dense = tree_of(10, rng.choice(3 << 10, 1800, replace=False), span=3)
        sparse = tree_of(10, [1, 500, 3000], span=3)
        for b in (dense, sparse):
            with limit(6 << 10):
                got, _ = index_sumset(dense, b, 10)
            assert np.array_equal(got.array(10), sum_indices_oracle(dense.array(10), b.array(10)))
        want = difference_set(dense, 10)[0]
        with limit(6 << 10):
            assert difference_set(dense, 10)[0].array(10).tobytes() == want.array(10).tobytes()
        with limit(9 << 10):
            got = iterated_sumset(dense, 3, 10)
        assert np.array_equal(got.array(10), iterated_sumset_oracle(dense.array(10), 3, 3 << 10))


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

    @given(x=leaf_sets, k=st.integers(1, 6))
    def test_matches_shift_or_oracle(self, x, k):
        a = tree_of(6, x)
        assert np.array_equal(iterated_sumset(a, k, 6).array(6), iterated_sumset_oracle(a.array(6), k, 64))

    @pytest.mark.parametrize(
        "build, depth, k",
        [
            (lambda d: moran_tree(MoranSpec(2, "4^-j"), d), 14, 4),
            (reciprocal_tree, 14, 3),
            (lambda d: ifs_attractor(IfsSpec(1 / 4, (0.0, 1 / 2)), d), 16, 2),
            (lambda d: ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), d), 12, 4),
        ],
        ids=["moran-14-4", "recip-14-3", "q2n-16-2", "c3-12-4"],
    )
    def test_workload_folds_match_shift_or_oracle(self, build, depth, k):
        a = build(depth)
        want = iterated_sumset_oracle(a.array(depth), k, a.capacity(depth))
        assert np.array_equal(iterated_sumset(a, k, depth).array(depth), want)


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

    @given(
        x=st.sets(st.integers(0, 63), min_size=1, max_size=64),
        level=st.integers(0, 6),
        upper=st.floats(0.0, 1.0),
    )
    def test_matches_shift_or_oracle(self, x, level, upper):
        a = tree_of(6, x)
        assert delta_dense_check(a, level, upper) == delta_dense_oracle(a, level, upper)

    def test_grid_charged_before_it_is_packed(self):
        # the hi + 3 flags of cells -1 .. hi + 1 up to `upper`, not the level
        t = tree_of(20, [0, 5, 1 << 19])
        with limit(100):
            assert delta_dense_check(t, 20, 0.0)
            assert not delta_dense_check(t, 20, 97 / (1 << 20))
            with pytest.raises(ResourceLimitError, match="density grid needs 101 cells"):
                delta_dense_check(t, 20, 98 / (1 << 20))
            with pytest.raises(ResourceLimitError, match="density grid needs 1048578 cells"):
                delta_dense_check(t, 20, 1.0)


class TestGridSetD:
    def test_normalizes_cells(self):
        g = GridSetD(2, 3, 1, ((5, 1), (0, 0), (5, 1)))
        assert g.cells == ((0, 0), (5, 1))

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

    def test_product_budget(self):
        # 9 cells of 2 coordinates each
        t = tree_of(4, [0, 3, 7])
        with limit(18):
            assert len(grid_product([t, t]).array()) == 9
        with pytest.raises(ResourceLimitError, match="grid product needs 18 cells"), limit(17):
            grid_product([t, t])

    def test_product_charged_before_it_is_allocated(self):
        t = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 12)
        cells = 3 * t.count(12) ** 3
        tracemalloc.start()
        try:
            with limit(cells - 1), pytest.raises(ResourceLimitError, match=f"grid product needs {cells} cells"):
                grid_product([t, t, t])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells * 8 // 2

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_product_rows_match_meshgrid(self, d):
        trees = [tree_of(5, [1, 4, 9, 30]), tree_of(5, [0, 31]), tree_of(5, [2, 3, 17])][:d]
        grids = np.meshgrid(*[t.array(5) for t in trees], indexing="ij")
        want = np.stack([g.ravel() for g in grids], axis=1)
        assert np.array_equal(grid_product(trees).array(), want)


class TestDistanceSet:
    CORNERS = GridSetD(2, 6, 1, ((0, 0), (0, 63), (63, 0), (63, 63)))
    L_SHAPE = GridSetD(2, 6, 1, ((0, 0), (0, 63), (63, 0)))

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

    def test_pair_budget(self):
        # refused by its span * 2^depth + 1 = 9 ends; the axis sums are charged 4
        f = GridSetD(1, 3, 1, ((0,), (7,)))
        with limit(9):
            assert distance_set(f).array(3).tolist() == [0, 1, 6, 7]
        with pytest.raises(ResourceLimitError, match="distance bitmap needs 9 cells"), limit(8):
            distance_set(f)

    def test_non_product_budget(self):
        # the L-shape is charged its 64 x 64 grid of vectors, the corners only their axes
        with limit(10_000):
            distance_set(self.CORNERS)
        with pytest.raises(ResourceLimitError, match="distance vectors needs 4096 cells"), limit(4095):
            distance_set(self.L_SHAPE)
        with limit(4096):
            assert distance_set(self.L_SHAPE) == distance_set_oracle(self.L_SHAPE)

    def test_codes_past_int64_are_refused_before_any_work(self):
        n = (1 << 61) - 1
        f = GridSetD(2, 61, 1, [(0, 0), (0, n), (n, 0)])
        with limit(0), pytest.raises(ValueError, match="codes of a grid of extents .* do not fit int64"):
            distance_set(f)
        # codes up to 3 * 2^61 - 2 fit, their differences do not
        g = GridSetD(2, 61, 1, [(0, 0), (0, n), (1, 0)])
        with limit(1 << 62), pytest.raises(ValueError, match="sums up to .* do not fit int64"):
            distance_set(g)

    def test_box_blocks_are_charged(self):
        # each axis has 16 isolated differences 0, 2, .., 30, so a block of
        # boxes holds whole rows of 16 x 16; the ends are 2 * 32 + 1 = 65
        f = grid_product([tree_of(5, range(0, 32, 2))] * 3)
        want = distance_set(f)
        with limit(256):
            assert distance_set(f) == want
        with pytest.raises(ResourceLimitError, match="distance boxes needs 256 cells"), limit(255):
            distance_set(f)

    def test_box_blocks_charged_before_they_are_formed(self):
        # the up to 190 differences of 20 scattered indices are mostly isolated
        # runs: a row of boxes far outweighs the axis sums and the 2^13 ends
        rng = np.random.default_rng(3)
        a = tree_of(12, rng.choice(1 << 12, 20, replace=False))
        f = grid_product([a, a, a])
        values, _, _ = _difference_vectors(f)
        runs = np.count_nonzero(np.diff(values[0]) != 1) + 1
        cells = runs * runs
        tracemalloc.start()
        try:
            with limit(cells - 1), pytest.raises(ResourceLimitError, match=f"distance boxes needs {cells} cells"):
                distance_set(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells * 8 // 2

    def test_bitmap_is_charged(self):
        # two cells, two difference vectors, but a 3 * 2^20-cell distance bitmap
        f = GridSetD(2, 20, 1, [(0, 0), (1, 1)])
        with pytest.raises(ResourceLimitError, match="distance bitmap"), limit(1000):
            distance_set(f)

    @staticmethod
    def vectors(f):
        values, seen, product = _difference_vectors(f)
        rows = np.argwhere(seen)
        return [[int(values[i][j]) for i, j in enumerate(row)] for row in rows], product

    def test_routes(self):
        want = [[0, 0], [0, 63], [63, 0], [63, 63]]
        assert self.vectors(self.CORNERS) == (want, True)
        assert self.vectors(self.L_SHAPE) == (want, False)
        assert self.vectors(GridSetD(1, 4, 1, ((0,), (5,), (15,)))) == ([[0], [5], [10], [15]], True)

    def test_l_shape_matches_oracle(self):
        # projections {0, 63} x {0, 63} multiply to 4 cells, the set has 3
        assert distance_set(self.L_SHAPE) == distance_set_oracle(self.L_SHAPE)

    @given(f=grids())
    def test_matches_oracle(self, f):
        assert distance_set(f) == distance_set_oracle(f)

    @given(f=product_grids())
    def test_products_match_oracle(self, f):
        assert _difference_vectors(f)[2]
        assert distance_set(f) == distance_set_oracle(f)

    @given(f=product_grids(least=2))
    def test_non_products_match_oracle(self, f):
        # dropping a corner of a product with two or more values per axis
        # keeps every projection, so the rest is not a product
        g = GridSetD(f.dimension, f.depth, f.span, f.cells[1:])
        assert not _difference_vectors(g)[2]
        assert distance_set(g) == distance_set_oracle(g)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("depth", [0, 3, 6])
    def test_singletons_match_oracle(self, d, depth):
        f = GridSetD(d, depth, 1, (((1 << depth) - 1,) * d,))
        assert distance_set(f) == distance_set_oracle(f)

    @pytest.mark.parametrize("cells", [
        ((0, 0), (0, 63), (63, 0)),
        ((0, 0), (0, 63), (63, 0), (63, 63)),
        ((3, 9), (5, 40), (20, 1), (21, 33), (60, 60), (61, 2)),
    ])
    def test_blocks_match_oracle(self, monkeypatch, cells):
        # one row of axis-0 values per block, some of them with no vector
        f = GridSetD(2, 6, 1, cells)
        want = distance_set(f)
        monkeypatch.setattr(arith, "_BLOCK_PAIRS", 1)
        assert distance_set(f) == want == distance_set_oracle(f)

    @pytest.mark.parametrize("r, depth", [(1 / 3, 12), (1 / 3, 13), (1 / 3, 14), (0.2, 16)])
    def test_deep_dusts_match_the_square_root_route(self, r, depth):
        # the pair oracle is too slow here: the dust has up to 788,544 cells
        c = ifs_attractor(IfsSpec(r, (0.0, 1 - r)), depth)
        dust = grid_product([c, c])
        assert distance_set(dust) == distance_set_sqrt_oracle(dust)

    def test_deep_cantor_dust_at_the_default_budget(self):
        # the Cantor index differences cover 0 .. 2^15 - 1, so the distances
        # fill 0 .. isqrt(2 (2^15 - 1)^2), widened by one cell
        c = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 15)
        out = distance_set(grid_product([c, c]))
        assert math.isqrt(2 * ((1 << 15) - 1) ** 2) + 1 == 46_340
        assert np.array_equal(out.array(15), np.arange(46_341))

    def test_small_dimension_dust_at_the_default_budget(self):
        # the r = 1/5 dust (dimension 2 log 2 / log 5 ~ 0.86): 22,060
        # differences per axis, whose vectors are a broadcast view, not held
        c = ifs_attractor(IfsSpec(0.2, (0.0, 0.8)), 20)
        out = distance_set(grid_product([c, c])).array(20)
        diffs = arith._nonneg_differences(c.array(20))
        assert np.isin(diffs, out).all()  # axis-aligned pairs
        assert out[-1] == math.isqrt(2 * int(diffs[-1]) ** 2) + 1  # opposite corners

    def test_3d_dusts_match_the_square_root_route(self):
        c = ifs_attractor(IfsSpec(0.2, (0.0, 0.8)), 7)
        dust = grid_product([c, c, c])
        assert distance_set(dust) == distance_set_sqrt_oracle(dust)
        holed = GridSetD(3, 7, 1, dust.array()[1:])
        assert not _difference_vectors(holed)[2]
        assert distance_set(holed) == distance_set_sqrt_oracle(holed)

    def test_isqrt_is_exact_over_int64(self):
        roots = [0, 1, 2, 3, (1 << 26) - 1, 1 << 26, 94906265, (1 << 31) - 1, 3037000499]
        s = sorted({max(0, m * m + e) for m in roots for e in (-1, 0, 1, m)} | {(1 << 63) - 1})
        s = [x for x in s if x < 1 << 63]
        assert _isqrt(np.array(s, dtype=np.int64)).tolist() == [math.isqrt(x) for x in s]

    @pytest.mark.parametrize("first", [1, (1 << 26) - 20_000, (1 << 26) + 1, (1 << 31) - 10_000])
    def test_isqrt_on_both_sides_of_2_52(self, first):
        k = np.arange(first, first + 20_000, dtype=np.int64)
        s = np.concatenate([k * k - 1, k * k, k * k + 2 * k])
        assert (s.max() < 1 << 52) == (first < 1 << 26)
        assert _isqrt(s).tolist() == [math.isqrt(x) for x in s.tolist()]

    def test_squares_past_int64_are_refused(self):
        x = (1 << 32) - 1
        f = GridSetD(2, 32, 1, [(0, 0), (0, x), (x, 0), (x, x)])
        with limit(1 << 40), pytest.raises(ValueError, match=r"squared distances up to \d+ do not fit int64"):
            distance_set(f)

    def test_cantor_dust_matches_oracle(self):
        c8 = ifs_attractor(IfsSpec(1 / 3, (0.0, 2 / 3)), 8)
        dust = grid_product([c8, c8])
        assert distance_set(dust) == distance_set_oracle(dust)
        holed = GridSetD(2, 8, 1, dust.cells[1:])
        assert not _difference_vectors(holed)[2]
        assert distance_set(holed) == distance_set_oracle(holed)


class TestGridSerialization:
    def test_round_trip(self, tmp_path):
        g = GridSetD(2, 5, 1, ((0, 3), (17, 30), (31, 31)))
        path = tmp_path / "g.grid"
        path.write_text(dumps_grid(g))
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
        with pytest.raises(FormatError):
            # a coordinate beyond int64
            loads_grid("grid-set v1 d=2 depth=2 span=1\n0 99999999999999999999\n")

    @pytest.mark.parametrize(
        "header", ["grid-set v1 d=1 depth=1000000000000000000 span=1", "grid-set v1 d=1 depth=2 span"]
    )
    def test_hostile_header(self, header):
        with pytest.raises(FormatError):
            loads_grid(header + "\n0\n")
