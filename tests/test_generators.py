"""Generator correctness: frozen discretizations, exact oracles, spec parsing."""

import math
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import dimlab.arithmetic as arith
from conftest import (
    assert_same_tree,
    cantor_cells_exact,
    ifs_attractor_oracle,
    moran_tree_oracle,
    reciprocal_tree_oracle,
    semigroup_oracle,
)
from dimlab import (
    DyadicTree,
    HypothesisError,
    IfsSpec,
    MoranSpec,
    ReciprocalSpec,
    ResourceLimitError,
    SemigroupSpec,
    SpecValidationError,
    build_tree,
    extract_moran_subset,
    ifs_attractor,
    index_sumset,
    iterated_ifs,
    moran_tree,
    reciprocal_tree,
    semigroup_tree,
    spec_from_json,
    validate,
)
from dimlab.budget import limit
from dimlab.dyadic import cell_of
from dimlab.generators import _SPEC_FIELDS, _interval_cells

CANTOR = IfsSpec(1 / 3, (0.0, 2 / 3))
QUARTER = IfsSpec(0.25, (0.0, 0.75))


class TestIfsSpec:
    def test_ratio_range(self):
        for r in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(SpecValidationError):
                IfsSpec(r, (0.0,))

    def test_needs_translations(self):
        with pytest.raises(SpecValidationError):
            IfsSpec(0.5, ())

    def test_translation_range(self):
        # images of [0, span] must stay inside [0, span]
        with pytest.raises(SpecValidationError):
            IfsSpec(0.5, (0.0, 0.75))
        with pytest.raises(SpecValidationError):
            IfsSpec(0.5, (-0.1,))
        IfsSpec(0.5, (0.0, 1.0), span=2)

    @pytest.mark.parametrize("span", [2.0, True, 1.5, 0])
    def test_span_must_be_a_positive_integer(self, span):
        # a float span of 2.0 used to pass here and fail in ifs_attractor
        with pytest.raises(SpecValidationError, match="span must be a positive integer"):
            IfsSpec(0.5, (0.0, 0.5), span=span)

    def test_duplicates_rejected(self):
        with pytest.raises(SpecValidationError):
            IfsSpec(1 / 3, (0.0, 0.0))

    def test_translations_sorted(self):
        assert IfsSpec(1 / 3, (2 / 3, 0.0)).translations == (0.0, 2 / 3)

    def test_hull(self):
        lo, hi = CANTOR.hull()
        assert lo == 0.0
        assert hi == pytest.approx(1.0)
        lo, hi = IfsSpec(0.25, (0.1, 0.5)).hull()
        assert lo == pytest.approx(0.1 / 0.75)
        assert hi == pytest.approx(0.5 / 0.75)


class TestIteratedIfs:
    def test_double(self):
        two = iterated_ifs(CANTOR, 2)
        assert two.span == 2
        assert two.translations == pytest.approx((0.0, 2 / 3, 4 / 3))

    def test_single_fold_is_identity(self):
        assert iterated_ifs(CANTOR, 1) == CANTOR

    def test_bad_fold(self):
        with pytest.raises(SpecValidationError):
            iterated_ifs(CANTOR, 0)


class TestIfsAttractor:
    def test_cantor_depth3(self):
        assert ifs_attractor(CANTOR, 3).levels[3] == (0, 1, 2, 5, 6, 7)

    def test_quarter_depth2(self):
        assert ifs_attractor(QUARTER, 2).levels[2] == (0, 1, 3)

    def test_full_interval(self):
        t = ifs_attractor(IfsSpec(0.5, (0.0, 0.5)), 6)
        assert t.levels[6] == tuple(range(64))

    @pytest.mark.parametrize("depth", [0, 1, 4, 7, 10])
    def test_cantor_matches_exact_ternary(self, depth):
        assert ifs_attractor(CANTOR, depth).levels[depth] == cantor_cells_exact(depth)

    def test_deep_cantor_fixture(self, cantor12):
        assert cantor12.levels[12] == cantor_cells_exact(12)

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            ifs_attractor(CANTOR, -1)

    @pytest.mark.parametrize("spec", [
        IfsSpec(0.5, (0.5,)),  # fixed point 1
        IfsSpec(0.5, (0.5 + 5e-10,)),  # a translation IfsSpec admits past span(1 - r)
        IfsSpec(0.25, (2.25,), 3),  # fixed point 3
        iterated_ifs(IfsSpec(0.6072452905838118, (0.3927547094161882,)), 3),  # hull 3.0000000000000004
    ])
    def test_a_point_at_span_lands_in_the_last_cell(self, spec):
        for depth in range(21):
            assert ifs_attractor(spec, depth).array(depth).tolist() == [(spec.span << depth) - 1]
            assert ifs_attractor_oracle(spec, depth).array(depth).tolist() == [(spec.span << depth) - 1]

    @pytest.mark.parametrize("spec,k", [(CANTOR, 2), (CANTOR, 3), (QUARTER, 2)])
    def test_iterated_covers_index_sumset(self, spec, k):
        # The attractor of the k-fold family is the k-fold sumset of the
        # attractor, so its cells cover the k-fold index sumset.  The only
        # extra cells come from closed right endpoints of pieces landing on
        # cell boundaries, within k-1 cells of a sumset cell.
        depth = 9
        a = ifs_attractor(spec, depth)
        summed = a
        for _ in range(k - 1):
            summed, _ = index_sumset(summed, a, depth)
        direct = ifs_attractor(iterated_ifs(spec, k), depth)
        s = set(summed.levels[depth])
        d = set(direct.levels[depth])
        assert s <= d
        for c in d - s:
            assert any(c - off in s for off in range(1, k)), c

    @given(
        r=st.floats(0.15, 0.6),
        raw=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        salt=st.integers(0, 7),
    )
    def test_projection_consistency(self, r, raw, salt):
        # occupancy is exact at every depth, so projecting one level must
        # reproduce the coarser discretization on the nose
        ts = sorted(t * (1.0 - r) for t in raw)
        assume(all(b - a > 1e-6 for a, b in zip(ts, ts[1:])))
        spec = IfsSpec(r, tuple(ts))
        depth = 5 + salt % 3
        deep = ifs_attractor(spec, depth + 1)
        coarse = ifs_attractor(spec, depth)
        proj = {c >> 1 for c in deep.levels[depth + 1]}
        assert proj == set(coarse.levels[depth])
        validate(deep)


class TestMoranSpec:
    def test_geometric_parse(self):
        spec = MoranSpec(2, "4^-j")
        assert spec.length(3) == pytest.approx(4.0 ** -3)

    def test_bad_lengths_string(self):
        with pytest.raises(SpecValidationError):
            MoranSpec(2, "j^-4")

    def test_geometric_infeasible(self):
        # 3 children with equal gaps occupy 5 child lengths
        with pytest.raises(SpecValidationError, match="infeasible"):
            MoranSpec(3, "4^-j")
        MoranSpec(3, "5^-j")

    def test_explicit_infeasible(self):
        with pytest.raises(SpecValidationError, match="generation 2"):
            MoranSpec(2, (0.25, 0.2))

    def test_explicit_positive(self):
        with pytest.raises(SpecValidationError):
            MoranSpec(2, (0.25, 0.0))

    def test_empty_list(self):
        with pytest.raises(SpecValidationError):
            MoranSpec(2, ())

    def test_branching_range(self):
        with pytest.raises(SpecValidationError):
            MoranSpec(0, "4^-j")

    def test_explicit_generation_bound(self):
        spec = MoranSpec(2, (0.25, 0.0625))
        with pytest.raises(SpecValidationError, match="generation 3"):
            spec.length(3)


class TestMoranTree:
    def test_quarter_lengths_level2(self):
        assert moran_tree(MoranSpec(2, "4^-j"), 2).levels[2] == (0, 2)

    def test_quarter_lengths_level4(self):
        assert moran_tree(MoranSpec(2, "4^-j"), 4).levels[4] == (0, 2, 8, 10)

    def test_single_branch_chain(self):
        t = moran_tree(MoranSpec(1, "2^-j"), 6)
        assert all(t.levels[n] == (0,) for n in range(7))

    def test_thirds_equals_middle_thirds_set(self):
        # leftmost packing with l_j = 3^-j reproduces the middle-thirds set
        t = moran_tree(MoranSpec(2, "3^-j"), 8)
        assert t.levels[8] == cantor_cells_exact(8)

    def test_truncated_list_is_interval_union(self):
        # an explicit list stops subdividing at its last generation; the set
        # is then the union of the four generation-2 intervals of length 1/16
        t = moran_tree(MoranSpec(2, (0.25, 0.0625)), 8)
        assert t.count(8) == 68
        assert t.levels[4] == (0, 1, 2, 3, 8, 9, 10, 11)
        expect = set()
        for p in (0.0, 0.125, 0.5, 0.625):
            first = cell_of(p, 8, 1)
            expect.update(range(first, first + 17))
        assert set(t.levels[8]) == expect

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            moran_tree(MoranSpec(2, "4^-j"), -2)


class TestExtractMoranSubset:
    def test_full_tree(self):
        full = DyadicTree.from_leaves(8, 1, np.arange(256))
        out = extract_moran_subset(full, 1.0, 0.25, 4)
        assert out.max_depth == 8
        assert out.levels[4] == (0, 2, 4, 6)
        assert out.count(8) == 16
        assert out.levels[8][:4] == (0, 2, 4, 6)

    def test_block_structure(self):
        ev = DyadicTree.from_leaves(8, 1, np.arange(0, 256, 2))
        out = extract_moran_subset(ev, 0.85, 0.1, 4)
        quota = int(2.0 ** (0.75 * 4 - 1.0))
        for block_level in (4, 8):
            cells = np.asarray(out.levels[block_level])
            # pairwise non-adjacent, uniform branching per block
            assert np.all(np.diff(cells) >= 2)
            assert len(cells) == quota ** (block_level // 4)
        assert set(out.levels[8]) <= set(ev.levels[8])
        validate(out)

    def test_depth_truncated_to_whole_blocks(self):
        full = DyadicTree.from_leaves(7, 1, np.arange(128))
        out = extract_moran_subset(full, 1.0, 0.5, 3)
        assert out.max_depth == 6

    def test_starved_vertex_reported(self):
        chain = DyadicTree.from_leaves(8, 1, [0])
        with pytest.raises(HypothesisError) as exc:
            extract_moran_subset(chain, 1.0, 0.25, 4)
        assert exc.value.level == 0
        assert exc.value.index == 0

    def test_output_too_thin_to_re_extract(self):
        # the output branches at half the demanded rate, so feeding it back
        # with the same parameters must refuse
        full = DyadicTree.from_leaves(8, 1, np.arange(256))
        once = extract_moran_subset(full, 1.0, 0.25, 4)
        with pytest.raises(HypothesisError):
            extract_moran_subset(once, 1.0, 0.25, 4)

    def test_bad_parameters(self):
        full = DyadicTree.from_leaves(4, 1, np.arange(16))
        with pytest.raises(ValueError):
            extract_moran_subset(full, 1.2, 0.1, 2)
        with pytest.raises(ValueError):
            extract_moran_subset(full, 0.5, 0.6, 2)
        with pytest.raises(ValueError):
            extract_moran_subset(full, 1.0, 0.0, 8)
        with pytest.raises(ValueError):
            # keeps no descendants per block
            extract_moran_subset(full, 0.3, 0.2, 2)


class TestReciprocal:
    def test_depth2_full(self):
        assert reciprocal_tree(2).levels[2] == (0, 1, 2, 3)

    def test_depth3(self):
        assert reciprocal_tree(3).levels[3] == (0, 1, 2, 4, 7)

    def test_half_cell_always_occupied(self):
        for depth in (1, 5, 11):
            assert (1 << (depth - 1)) in set(reciprocal_tree(depth).levels[depth])

    @pytest.mark.parametrize("depth,count", [(16, 512), (20, 2048)])
    def test_square_root_cell_count(self, depth, count):
        # the points fill the first ~sqrt(2^n) cells solidly and land on
        # ~sqrt(2^n) distinct cells beyond, giving 2 * 2^(n/2) in total
        assert reciprocal_tree(depth).count(depth) == count

    def test_membership_oracle(self):
        # cell i holds some 1/k iff an integer lies in (2^n/(i+1), 2^n/i],
        # i.e. iff floor(2^n/i) > floor(2^n/(i+1)); cells 0 (accumulation
        # point) and 2^n - 1 (clamped 1/1) are occupied by construction
        depth = 8
        size = 1 << depth
        expect = {0, size - 1}
        expect.update(
            i for i in range(1, size - 1) if size // i > size // (i + 1)
        )
        assert set(reciprocal_tree(depth).levels[depth]) == expect

    def test_negative_depth(self):
        with pytest.raises(ValueError):
            reciprocal_tree(-1)


@st.composite
def ifs_specs(draw, max_translations=5):
    """Homogeneous families with 1 to max_translations maps; overlapping
    images, whose pieces merge, are common at these ratios."""
    r = draw(st.floats(0.05, 0.7))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=max_translations))
    try:
        return IfsSpec(r, tuple(t * (1.0 - r) for t in raw))
    except SpecValidationError:
        assume(False)


@st.composite
def moran_specs(draw):
    """Geometric 'c^-j' specs and explicit length lists of 1 to 8 generations."""
    k = draw(st.integers(1, 6))
    need = 2 * k - 1
    if draw(st.booleans()):
        c = draw(st.floats(max(need, 1.1), 4.0 * need + 4.0))
        return MoranSpec(k, f"{c:.4f}^-j")
    lengths, prev = [], 1.0
    for _ in range(draw(st.integers(1, 8))):
        prev = prev * draw(st.floats(0.1, 1.0)) / need
        lengths.append(prev)
    return MoranSpec(k, tuple(lengths))


@st.composite
def separated_specs(draw):
    """1 to 4 evenly spaced maps whose images of [0, 1] are disjoint."""
    k = draw(st.integers(1, 4))
    r = draw(st.floats(0.05, 0.95 / k))
    if k == 1:
        return IfsSpec(r, (draw(st.floats(0.0, 1.0)) * (1.0 - r),))
    return IfsSpec(r, tuple(i * (1.0 - r) / (k - 1) for i in range(k)))


@st.composite
def overlapping_specs(draw):
    """Three maps whose first two images of [0, 1] overlap.  Where a gap
    stays before the third (r below about 0.38), the first map's last left
    end passes the second map's first from the second round on."""
    r = draw(st.floats(0.25, 0.5))
    return IfsSpec(r, (0.0, draw(st.floats(0.02, r * (1.0 - r))), 1.0 - r))


# families whose images of [0, 1] meet at their ends (c3f, q3, f3b)
TOUCHING = (IfsSpec(1 / 3, (0.0, 1 / 3, 2 / 3)), IfsSpec(0.25, (0.0, 0.25, 0.75)), IfsSpec(0.2, (0.0, 0.2, 0.8)))


class TestArrayGenerators:
    """The array refinements against the scalar loops kept in conftest:
    identical int64 arrays at every level."""

    @given(ifs_specs(), st.integers(0, 18))
    @example(IfsSpec(0.3, (0.0, 0.35, 0.7)), 18)  # disjoint images
    @example(IfsSpec(0.5, (0.0, 0.5)), 12)  # touching images fill [0, 1]
    @example(IfsSpec(0.6, (0.0, 0.1, 0.4)), 16)  # overlaps merge into [0, 1]
    @example(IfsSpec(0.25, (0.0, 0.1, 0.75)), 14)  # overlaps merge, gaps stay
    @example(IfsSpec(0.3, (0.0, 0.2, 0.7)), 18)
    @example(CANTOR, 0)
    @example(IfsSpec(0.5, (0.5 + 5e-10,)), 4)  # the fixed point lies a hair past span
    def test_ifs_matches_scalar_refinement(self, spec, depth):
        assert_same_tree(ifs_attractor(spec, depth), ifs_attractor_oracle(spec, depth))

    def test_ifs_sorts_only_rounds_out_of_order(self):
        """Both branches of a refinement round, sorted and lexsorted,
        against the scalar oracle; separated and touching families never
        sort."""
        sorted_by_kind = Counter()

        @given(
            st.one_of(
                st.tuples(st.just("separated"), separated_specs()),
                st.tuples(st.just("touching"), st.sampled_from(TOUCHING)),
                st.tuples(st.just("overlapping"), overlapping_specs()),
            ),
            st.integers(0, 16),
        )
        @example(("overlapping", IfsSpec(0.3, (0.0, 0.2, 0.7))), 12)
        @example(("overlapping", IfsSpec(0.45, (0.0, 0.2, 0.55))), 12)  # merges into [0, 1]
        @example(("touching", TOUCHING[1]), 12)
        def check(kind_spec, depth):
            kind, spec = kind_spec
            with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
                got = ifs_attractor(spec, depth)
            sorted_by_kind[kind, lexsort.called] += 1
            assert not (lexsort.called and kind != "overlapping")
            assert_same_tree(got, ifs_attractor_oracle(spec, depth))

        check()
        assert sorted_by_kind["overlapping", True] and sorted_by_kind["touching", False]

    @given(ifs_specs(max_translations=3), st.integers(2, 3), st.integers(0, 18))
    @example(CANTOR, 2, 16)
    @example(IfsSpec(0.3, (0.0, 0.35, 0.7)), 3, 14)
    @example(IfsSpec(0.6072452905838118, (0.3927547094161882,)), 3, 0)  # hull end past span
    def test_iterated_ifs_matches_scalar_refinement(self, spec, k, depth):
        family = iterated_ifs(spec, k)
        assert_same_tree(ifs_attractor(family, depth), ifs_attractor_oracle(family, depth))

    @given(moran_specs(), st.integers(0, 18))
    @example(MoranSpec(8, "16^-j"), 16)
    @example(MoranSpec(2, (0.25, 0.0625)), 8)
    @example(MoranSpec(1, "2^-j"), 18)
    def test_moran_matches_scalar_refinement(self, spec, depth):
        assert_same_tree(moran_tree(spec, depth), moran_tree_oracle(spec, depth))

    @pytest.mark.parametrize("depth", range(19))
    def test_reciprocal_matches_set_comprehension(self, depth):
        assert_same_tree(reciprocal_tree(depth), reciprocal_tree_oracle(depth))

    def test_endpoint_below_zero_matches_scalar(self):
        # a translation inside the tolerance below 0 puts the whole piece
        # just left of 0; both ends are clamped to 0, as for translation 0
        spec = IfsSpec(0.5, (-1e-13,))
        got = ifs_attractor(spec, 4)
        assert_same_tree(got, ifs_attractor_oracle(spec, 4))
        assert_same_tree(got, ifs_attractor(IfsSpec(0.5, (0.0,)), 4))

    @given(
        st.lists(st.tuples(st.floats(-0.5, 2.5), st.floats(0.0, 0.6)), min_size=1, max_size=20),
        st.integers(0, 12),
        st.integers(1, 2),
    )
    def test_interval_cells_places_endpoints_as_cell_of(self, pieces, depth, span):
        lo = np.array([a for a, _ in pieces])
        hi = np.minimum(lo + np.array([w for _, w in pieces]), span)
        try:
            want = [c for a, b in zip(lo.tolist(), hi.tolist())
                    for c in range(cell_of(a, depth, span), cell_of(b, depth, span) + 1)]
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                _interval_cells(lo, hi, depth, span)
            assert str(err.value) == str(exc)
            return
        assert _interval_cells(lo, hi, depth, span).tolist() == want

    # Each refused round would allocate arrays of `cells` 8-byte values; all
    # that may run before the refusal, the round before it, forms a 16th to
    # a 64th as many, so the peak stays under half of one refused array.
    REFUSALS = {
        "ifs": (lambda: ifs_attractor(IfsSpec(1 / 128, tuple(k / 64 for k in range(64))), 20),
                64**3, "attractor refinement"),
        "moran": (lambda: moran_tree(MoranSpec(16, "32^-j"), 20), 16**4, "Moran refinement"),
        "reciprocal": (lambda: reciprocal_tree(18), 1 << 18, "reciprocal tree"),
    }

    @pytest.mark.parametrize("name", sorted(REFUSALS))
    def test_refusal_comes_before_the_round_is_allocated(self, name):
        build, cells, what = self.REFUSALS[name]
        tracemalloc.start()
        try:
            with limit(cells - 1), pytest.raises(ResourceLimitError, match=f"{what} needs {cells} cells"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < cells * 8 // 2


class TestGridGuards:
    """A generator's grid must index in int64, as a loaded file's must;
    within that, nothing charges a grid that no generator allocates."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ifs_attractor(IfsSpec(1 / 1024, (0.0, 1023 / 1024)), 70),
            lambda: ifs_attractor(IfsSpec(1 / 1024, (0.0, 1023 / 1024)), 63),
            lambda: ifs_attractor(IfsSpec(1 / 2, (0.0, 1.0), span=2), 62),
            lambda: moran_tree(MoranSpec(2, "4^-j"), 63),
            lambda: reciprocal_tree(63),
            lambda: semigroup_tree([1.0], 2, 62),
            lambda: build_tree({"type": "reciprocal"}, 64),
        ],
        ids=["ifs-70", "ifs-63", "ifs-span2-62", "moran-63", "reciprocal-63", "semigroup-2-62", "build-64"],
    )
    def test_grid_past_int64_is_refused_before_any_work(self, build):
        # under a budget of 0, any charged round would raise ResourceLimitError first
        with limit(0), pytest.raises(ValueError, match=r"is not a grid of under 2\^63 cells"):
            build()

    @pytest.mark.parametrize(
        "build, cells",
        [
            (lambda: ifs_attractor(IfsSpec(1 / 2, (0.0, 1 / 2)), 30), 1 << 30),
            (lambda: moran_tree(MoranSpec(1, (0.5,)), 40), (1 << 39) + 1),
        ],
        ids=["ifs-interval-30", "moran-interval-40"],
    )
    def test_dense_interval_union_is_charged_before_it_is_expanded(self, build, cells):
        # one merged interval of `cells` cells, refused at the default budget
        # before any of its cells is formed
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"interval cells needs {cells} cells"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_interval_cells_run_at_exactly_their_budget(self):
        spec = IfsSpec(1 / 2, (0.0, 1 / 2))
        with limit(4095), pytest.raises(ResourceLimitError, match="interval cells needs 4096 cells"):
            ifs_attractor(spec, 12)
        with limit(4096):
            assert ifs_attractor(spec, 12).array(12).tolist() == list(range(4096))

    def test_deepest_int64_grid_is_built(self):
        spec = IfsSpec(1 / 1024, (0.0, 1023 / 1024))
        assert_same_tree(ifs_attractor(spec, 62), ifs_attractor_oracle(spec, 62))

    def test_deep_small_dimension_set_at_the_default_budget(self):
        # 15,378 leaves of a 2^30-cell grid
        spec = {"type": "ifs", "r": "1/5", "translations": ["0", "4/5"]}
        tree = build_tree(spec, 30)
        assert tree.count(30) == 15_378
        assert_same_tree(tree, ifs_attractor_oracle(spec_from_json(spec), 30))


class TestSemigroup:
    def test_integer_generator_coarse(self):
        assert semigroup_tree([1.0], 8, 0).levels[0] == tuple(range(1, 8))

    def test_redundant_generator_changes_nothing(self):
        assert semigroup_tree([1.0, 2.0], 8, 0) == semigroup_tree([1.0], 8, 0)

    def test_matches_breadth_first_sums(self):
        gens = [1.0, math.sqrt(2)]
        bound, depth = 8, 6
        size = bound << depth
        gcells = sorted({cell_of(g, depth, bound) for g in gens})
        seen = set(gcells)
        frontier = set(gcells)
        while frontier:
            nxt = set()
            for x in frontier:
                for g in gcells:
                    y = x + g
                    if y < size and y not in seen:
                        seen.add(y)
                        nxt.add(y)
            frontier = nxt
        tree = semigroup_tree(gens, bound, depth)
        assert tree.levels[depth] == tuple(sorted(seen))

    @given(
        fracs=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3),
        bound=st.sampled_from([1, 2, 4, 8]),
        depth=st.integers(0, 7),
    )
    def test_matches_shift_or_oracle(self, fracs, bound, depth):
        gens = [f * bound for f in fracs]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tree = semigroup_tree(gens, bound, depth)
        gcells = sorted({cell_of(g, depth, bound) for g in gens})
        want, converged = semigroup_oracle(gcells, bound << depth)
        assert np.array_equal(tree.array(depth), want)
        assert converged == (not caught)

    def test_runs_at_exactly_its_grid_budget(self):
        # the sums reach past the grid, so no transform fits: outer sums
        with limit(1 << 12):
            tree = semigroup_tree([0.3, 0.7], 1, 12)
        want, _ = semigroup_oracle(sorted({cell_of(g, 12, 1) for g in (0.3, 0.7)}), 1 << 12)
        assert np.array_equal(tree.array(12), want)

    def test_sums_stay_in_the_grid(self):
        # generators from 1 to 3.5 with bound 8: all their sums at once would
        # span 4,353 cells, more than the 4,096-cell grid the budget allows
        gens = [1 + k / 64 for k in range(64)] + [3.5]
        with limit(8 << 9):
            tree = semigroup_tree(gens, 8, 9)
        want, converged = semigroup_oracle(sorted({cell_of(g, 9, 8) for g in gens}), 8 << 9)
        assert converged
        assert np.array_equal(tree.array(9), want)

    def test_transform_route_matches_shift_or_oracle(self):
        # 60 generators in [1, 2): once the state grows, the cost rule picks
        # the FFT over marking its state's 60 sums per cell of the grid
        gens = [1 + k / 60 for k in range(60)]
        gcells = sorted({cell_of(g, 7, 32) for g in gens})
        with mock.patch.object(arith, "_fft_counts", wraps=arith._fft_counts) as fft:
            tree = semigroup_tree(gens, 32, 7)
        assert fft.called
        want, converged = semigroup_oracle(gcells, 32 << 7)
        assert converged
        assert np.array_equal(tree.array(7), want)

    def test_block_counts_grow(self):
        # cells per value block [2^j, 2^(j+1)) increase as sums mix
        t = semigroup_tree([1.0, math.sqrt(2)], 8, 8)
        arr = t.array(8)
        counts = [
            int(np.count_nonzero((arr >= (1 << j) * 256) & (arr < (1 << (j + 1)) * 256)))
            for j in range(3)
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_bound_must_be_power_of_two(self):
        with pytest.raises(SpecValidationError):
            semigroup_tree([1.0], 6, 4)

    def test_empty_generators(self):
        with pytest.raises(SpecValidationError):
            semigroup_tree([], 8, 4)

    def test_generator_range(self):
        with pytest.raises(SpecValidationError):
            semigroup_tree([0.0], 8, 4)
        with pytest.raises(SpecValidationError):
            semigroup_tree([8.0], 8, 4)

    def test_grid_budget(self):
        with pytest.raises(ResourceLimitError):
            semigroup_tree([1.0], 2, 28)


# any JSON value, numbers and fraction strings a spec would accept among them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.sampled_from(["1/3", "2/3", "0", "1/0", "1e400", "4^-j", 0.25, 0.5, 8]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# a spec of each type with any JSON value, or none, in each of its fields
SPEC_DATA = st.sampled_from(sorted(_SPEC_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"type": st.just(kind)}, optional={name: JSON_VALUES for name in _SPEC_FIELDS[kind]}
    )
)


class TestSpecJson:
    def test_fraction_strings(self):
        spec = spec_from_json(
            {"type": "ifs", "r": "1/3", "translations": [0, "2/3"]}
        )
        assert spec.r == pytest.approx(1 / 3)
        assert spec.translations[1] == pytest.approx(2 / 3)

    def test_unknown_type(self):
        with pytest.raises(SpecValidationError, match="unknown"):
            spec_from_json({"type": "julia"})

    def test_missing_field(self):
        with pytest.raises(SpecValidationError, match="missing"):
            spec_from_json({"type": "ifs", "r": 0.5})

    def test_not_an_object(self):
        with pytest.raises(SpecValidationError):
            spec_from_json(["ifs"])

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "ifs", "r": 0.5, "translations": [0, 0.5], "spn": 2},
            {"type": "moran", "k": 2, "lengths": "4^-j", "span": 1},
            {"type": "reciprocal", "depth": 3},
            {"type": "semigroup", "generators": [1], "bound": 8, "gens": [2]},
        ],
        ids=["ifs", "moran", "reciprocal", "semigroup"],
    )
    def test_unknown_key(self, data):
        key = list(data)[-1]
        with pytest.raises(SpecValidationError, match=f"^{data['type']} spec has unknown key '{key}'$"):
            spec_from_json(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"type": "moran", "k": True, "lengths": "4^-j"},
            {"type": "moran", "k": 2.9, "lengths": "4^-j"},
            {"type": "ifs", "r": 0.5, "translations": [0, 0.5], "span": True},
            {"type": "semigroup", "generators": [1, 1.5], "bound": 8.5},
        ],
        ids=["moran-k-bool", "moran-k-float", "ifs-span-bool", "semigroup-bound-float"],
    )
    def test_non_integer_fields(self, data):
        with pytest.raises(SpecValidationError, match="must be an integer"):
            spec_from_json(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"type": "ifs", "r": "1/3", "translations": [0, None]},
             "ifs spec field 'translations' must be a number or a fraction string, got None"),
            ({"type": "semigroup", "generators": "15", "bound": 8},
             "semigroup spec field 'generators' must be an array, got '15'"),
            ({"type": "ifs", "r": "1/2", "translations": [0, True], "span": 2},
             "ifs spec field 'translations' must be a number or a fraction string, got True"),
            ({"type": "moran", "k": 2, "lengths": {"0.25": 1}},
             "moran spec field 'lengths' must be an array, got {'0.25': 1}"),
            ({"type": "ifs", "r": "abc", "translations": [0]}, "Invalid literal for Fraction: 'abc'"),
            ({"type": "ifs", "r": "1/0", "translations": [0]}, "ifs spec field 'r' divides by zero: '1/0'"),
            ({"type": "ifs", "r": 0.5, "translations": [0], "span": 2**1100},
             "ifs spec holds a number beyond float range: int too large to convert to float"),
        ],
        ids=["null-number", "string-array", "boolean-number", "object-array", "not-a-fraction", "zero-denominator",
             "huge-span"],
    )
    def test_wrong_json_types_are_invalid(self, data, message):
        with pytest.raises(SpecValidationError) as info:
            spec_from_json(data)
        assert str(info.value) == message

    @given(SPEC_DATA)
    def test_any_json_fields_give_a_spec_or_a_refusal(self, data):
        try:
            spec = spec_from_json(data)
        except SpecValidationError:
            return
        assert isinstance(spec, (IfsSpec, MoranSpec, ReciprocalSpec, SemigroupSpec))

    def test_build_tree_dispatch(self):
        assert build_tree({"type": "reciprocal"}, 2).levels[2] == (0, 1, 2, 3)
        assert build_tree(CANTOR, 3).levels[3] == (0, 1, 2, 5, 6, 7)
        assert build_tree(MoranSpec(2, "4^-j"), 2).levels[2] == (0, 2)
        assert build_tree(SemigroupSpec((1.0,), 8), 0).levels[0] == tuple(range(1, 8))
        with pytest.raises(SpecValidationError):
            build_tree("cantor", 3)
