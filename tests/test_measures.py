import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from dimlab import (
    ATOMIC,
    BOTH,
    NEITHER,
    UNIFORM,
    DyadicTree,
    FormatError,
    MeasureInvariantError,
    MoranSpec,
    TreeMeasure,
    Vertex,
    ZeroMassError,
    classify_local,
    cond_entropy,
    counting_measure,
    covering_bounds_check,
    default_window,
    dumps_measure,
    entropy,
    from_leaf_masses,
    greedy_cover,
    loads_measure,
    local_entropy,
    moran_tree,
    restrict_renormalize,
    scale_profile,
    splitting_measure,
)
from dimlab.dyadic import descendant_range
from conftest import (
    assert_same_tree,
    classify_local_oracle,
    local_entropy_oracle,
    mass_oracle,
    parse_outcome,
    random_tree,
    restrict_renormalize_oracle,
    scale_profile_oracle,
    sum_upward_oracle,
    xlogx_oracle,
)

LN2 = math.log(2)


@pytest.fixture(scope="module")
def cantor3():
    return DyadicTree.from_leaves(3, 1, [0, 1, 2, 5, 6, 7])


@pytest.fixture(scope="module")
def cantor3_split(cantor3):
    return splitting_measure(cantor3)


class TestConstruction:
    def test_splitting_masses_exact(self, cantor3_split):
        assert cantor3_split.masses[3].tolist() == [
            0.125, 0.125, 0.25, 0.25, 0.125, 0.125,
        ]

    def test_counting_is_uniform_on_leaves(self, cantor3):
        mu = counting_measure(cantor3)
        assert np.allclose(mu.masses[3], 1 / 6)
        assert mu.masses[0][0] == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("build", [counting_measure, splitting_measure])
    def test_empty_tree_refused_as_by_the_constructor(self, build):
        empty = DyadicTree.from_leaves(3, 1, [])
        text = "cannot put a probability measure on an empty tree"
        with pytest.raises(MeasureInvariantError, match=f"^{text}$"):
            TreeMeasure(empty, [[]] * 4)
        with pytest.raises(MeasureInvariantError, match=f"^{text}$"):
            build(empty)

    def test_total_mass_violation(self, cantor3):
        masses = [np.array([0.5]), np.array([0.25, 0.25]),
                  np.array([0.125, 0.125, 0.25]),
                  np.array([0.0625, 0.0625, 0.0625, 0.0625, 0.125, 0.125])]
        with pytest.raises(MeasureInvariantError):
            TreeMeasure(cantor3, masses)

    def test_child_sum_violation(self, cantor3):
        masses = [np.array([1.0]), np.array([0.5, 0.5]),
                  np.array([0.25, 0.25, 0.25, 0.25]),
                  np.array([0.125, 0.125, 0.25, 0.3, 0.125, 0.125])]
        with pytest.raises(
            MeasureInvariantError, match=r"^level 2: children deviate from parents by 5\.000e-02$"
        ):
            TreeMeasure(cantor3, masses)

    def test_mass_count_must_match_level(self, cantor3):
        masses = [np.array([1.0]), np.array([0.7, 0.3]),
                  np.array([0.25, 0.25, 0.5]),
                  np.array([0.125, 0.125, 0.25, 0.25, 0.125, 0.125])]
        with pytest.raises(MeasureInvariantError, match="^level 2: 3 masses for 4 occupied cells$"):
            TreeMeasure(cantor3, masses)

    @pytest.mark.parametrize("block", [1, 40, 1 << 15])
    def test_builders_make_one_run_head_pass_per_block(self, monkeypatch, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        tree, (mu, _, _) = profile_measures(4)
        passes, calls = [], []
        real_pass, real_starts = measures._block_child_starts, DyadicTree.descendant_starts
        monkeypatch.setattr(
            measures, "_block_child_starts",
            lambda t, offsets, k0, k1: passes.append((k0, k1)) or real_pass(t, offsets, k0, k1),
        )
        monkeypatch.setattr(
            DyadicTree, "descendant_starts",
            lambda self, k, m: calls.append((k, m)) or real_starts(self, k, m),
        )
        blocks = list(measures._blocks(measures._level_offsets(tree), tree.max_depth))
        assert len(blocks) < tree.max_depth or block == 1
        builds = (
            counting_measure,
            splitting_measure,
            lambda t: from_leaf_masses(t, mu.masses[-1]),
            lambda t: TreeMeasure(t, mu.masses),
        )
        for build in builds:
            passes.clear()
            calls.clear()
            build(tree)
            assert passes == blocks
            # a level alone in its block keeps its own run-head pass
            assert calls == [(k0, 1) for k0, k1 in blocks if k1 == k0 + 1]

    @pytest.mark.parametrize("level", [0, 2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_non_finite_or_negative_mass_refused(self, cantor3_split, level, bad):
        masses = [w.copy() for w in cantor3_split.masses]
        masses[level][0] = bad
        with pytest.raises(
            MeasureInvariantError, match=f"^level {level}: masses must be finite and >= 0$"
        ):
            TreeMeasure(cantor3_split.tree, masses)

    def test_negative_zero_mass_accepted(self, cantor3):
        zero_leaf = from_leaf_masses(cantor3, [0.25, 0.25, 0.0, 0.25, 0.25, 0.0])
        masses = [w.copy() for w in zero_leaf.masses]
        masses[3][2] = -0.0
        mu = TreeMeasure(cantor3, masses)
        assert math.copysign(1.0, mu.masses[3][2]) == -1.0
        assert entropy(mu, 3) == entropy(zero_leaf, 3)

    @pytest.mark.parametrize(
        "level1, level, drift", [([0.7, 0.3], 1, "2.000e-01"), ([0.5, 0.4], 0, "1.000e-01")]
    )
    def test_child_sum_drift_message(self, cantor3_split, level1, level, drift):
        masses = [w.copy() for w in cantor3_split.masses]
        masses[1][:] = level1
        with pytest.raises(MeasureInvariantError) as err:
            TreeMeasure(cantor3_split.tree, masses)
        assert str(err.value) == f"level {level}: children deviate from parents by {drift}"

    def test_small_drift_renormalized(self, cantor3):
        leaf = np.array([0.125, 0.125, 0.25, 0.25, 0.125, 0.125]) * (1 + 2e-10)
        mu = from_leaf_masses(cantor3, leaf)
        assert mu.masses[0][0] == pytest.approx(1.0, abs=1e-14)

    def test_mass_lookup(self, cantor3_split):
        assert cantor3_split.mass(Vertex(2, 1)) == 0.25
        assert cantor3_split.mass(Vertex(2, 2)) == 0.25


class TestEntropy:
    def test_uniform_four_cells(self):
        mu = counting_measure(DyadicTree.from_leaves(2, 1, [0, 1, 2, 3]))
        assert entropy(mu, 2) == pytest.approx(math.log(4), abs=1e-12)

    def test_point_mass_zero(self):
        mu = counting_measure(DyadicTree.from_leaves(5, 1, [17]))
        assert entropy(mu, 5) == 0.0

    def test_cantor_entropy(self, cantor3_split):
        assert entropy(cantor3_split, 3) == pytest.approx(2.5 * LN2, abs=1e-12)

    def test_cond_entropy(self, cantor3_split):
        assert cond_entropy(cantor3_split, 2, 3) == pytest.approx(0.5 * LN2, abs=1e-12)
        with pytest.raises(ValueError):
            cond_entropy(cantor3_split, 3, 2)

    def test_level_overflow(self, cantor3_split):
        with pytest.raises(ValueError):
            entropy(cantor3_split, 4)


U = 2.0 ** -53


@st.composite
def builder_measures(draw):
    """A tree of span 1..7 and depth 0..14 with one of its built measures:
    counting, splitting, or leaf masses between 1e-300 and 1e300 with
    zeros, whose root total is rarely exactly 1."""
    span, depth = draw(st.integers(1, 7)), draw(st.integers(0, 14))
    leaves = draw(st.lists(st.integers(0, (span << depth) - 1), min_size=1, max_size=48))
    tree = DyadicTree.from_leaves(depth, span, leaves)
    kind = draw(st.sampled_from(["counting", "splitting", "leaf"]))
    if kind == "counting":
        return counting_measure(tree)
    if kind == "splitting":
        return splitting_measure(tree)
    mass = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
    leaf = draw(st.lists(mass, min_size=tree.count(depth), max_size=tree.count(depth)))
    leaf[draw(st.integers(0, len(leaf) - 1))] = draw(st.floats(1e-300, 1e300))
    return from_leaf_masses(tree, leaf)


class TestBuilderInvariant:
    """The builders skip the child-sum check because they keep every
    child-sum drift within about 4u of the parent's mass (u = 2^-53)."""

    @given(builder_measures())
    def test_child_sums_hold_by_construction(self, mu):
        from dimlab.measures import _check_child_sums

        _check_child_sums(mu._offsets, mu._flat, mu._kids)
        tree = mu.tree
        for n in range(tree.max_depth):
            # an independent child sum: each child added onto its parent
            parent = np.searchsorted(tree.array(n), tree.array(n + 1) >> 1)
            sums = np.zeros(tree.count(n))
            np.add.at(sums, parent, mu.masses[n + 1])
            drift = np.abs(sums - mu.masses[n])
            # underflowed masses round in absolute terms, by at most 2^-1075 each
            assert np.all(drift <= 4 * U * mu.masses[n] + 2.0 ** -1073), n

    @given(builder_measures())
    @example(from_leaf_masses(DyadicTree.from_leaves(0, 3, [0, 1, 2]), [0.7, 1.0, 1.0]))
    def test_the_constructor_rebuilds_the_measure(self, mu):
        # a built root total lies within 2cu of 1 (c roots), which the
        # constructor keeps: 1.0000000000000002 in the example
        assert TreeMeasure(mu.tree, mu.masses)._flat.tobytes() == mu._flat.tobytes()

    @given(builder_measures())
    @example(from_leaf_masses(DyadicTree.from_leaves(1, 2, [0, 1, 2]), [0.1, 3.0, 1.0]))
    def test_dumps_round_trip_bit_for_bit(self, mu):
        assert loads_measure(dumps_measure(mu))._flat.tobytes() == mu._flat.tobytes()

    @pytest.mark.parametrize("excess, kept", [(2.0**-52, True), (2.0**-51, True), (2.0**-50, False), (1e-12, False)])
    def test_root_totals_past_the_rounding_are_renormalized(self, excess, kept):
        # two roots: totals within 4u = 2^-51 of 1 are kept as given
        tree = DyadicTree.from_leaves(0, 2, [0, 1])
        roots = np.array([0.5, 0.5 + excess])
        total = float(roots.sum())
        assert total == 1.0 + excess
        got = TreeMeasure(tree, [roots]).masses[0]
        assert got.tobytes() == (roots if kept else roots / total).tobytes()


@st.composite
def upward_cases(draw):
    """A tree of span 1..7 and depth 0..14, its leaf masses (None for the
    counting measure; else 0 or between 1e-300 and 1e300, one of them
    positive) and a block size for the level kernels."""
    span, depth = draw(st.integers(1, 7)), draw(st.integers(0, 14))
    leaves = draw(st.lists(st.integers(0, (span << depth) - 1), min_size=1, max_size=48))
    tree = DyadicTree.from_leaves(depth, span, leaves)
    leaf = None
    if draw(st.booleans()):
        mass = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
        leaf = draw(st.lists(mass, min_size=tree.count(depth), max_size=tree.count(depth)))
        leaf[draw(st.integers(0, len(leaf) - 1))] = draw(st.floats(1e-300, 1e300))
    return tree, leaf, draw(st.sampled_from([1, 3, 1 << 15]))


# depth 0, spans 3 and 5, a 1-leaf chain, and the last cell of the level
# above the leaves with one child (leaf 14 without 15) and with two
EDGE_TREES = {
    "depth-0": DyadicTree.from_leaves(0, 1, [0]),
    "depth-0-span-3": DyadicTree.from_leaves(0, 3, [0, 2]),
    "span-3": DyadicTree.from_leaves(9, 3, [0, 1, 2, 700, 1023, 1024, 1500, 1535]),
    "span-5": DyadicTree.from_leaves(6, 5, [0, 7, 8, 100, 318, 319]),
    "chain": DyadicTree.from_leaves(13, 1, [5000]),
    "last-parent-one-child": DyadicTree.from_leaves(4, 1, [0, 1, 6, 14]),
    "last-parent-two-children": DyadicTree.from_leaves(4, 1, [0, 1, 6, 14, 15]),
}


def upward_leaf_masses(tree: DyadicTree, seed: int):
    """Leaf masses for the parent-sum oracle: one mass for every leaf (the
    counting measure), random positive ones, and random ones of which
    about 30 % are zero."""
    rng = np.random.default_rng(seed)
    positive = rng.random(tree.count(tree.max_depth)) + 1e-3
    zeros = positive.copy()
    zeros[rng.random(zeros.size) < 0.3] = 0.0
    zeros[0] += 1.0
    return [None, positive, zeros]


class TestParentSums:
    """The builders' parent sums, two gathers a block, against a reduceat
    over each level's children: equal bit for bit, wherever the blocks of
    the level kernels fall."""

    @staticmethod
    def assert_matches_oracle(tree, leaf) -> None:
        mu = counting_measure(tree) if leaf is None else from_leaf_masses(tree, leaf)
        want = sum_upward_oracle(tree, 1.0 / tree.count(tree.max_depth) if leaf is None else leaf)
        for n in range(tree.max_depth + 1):
            assert mu.masses[n].tobytes() == want[n].tobytes(), n

    @pytest.mark.parametrize("block", [1, 3, 1 << 15])
    @pytest.mark.parametrize("name", EDGE_TREES)
    def test_edge_trees(self, monkeypatch, name, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        tree = EDGE_TREES[name]
        for leaf in upward_leaf_masses(tree, 3):
            self.assert_matches_oracle(tree, leaf)

    @pytest.mark.parametrize("block", [1, 3, 1 << 15])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_trees(self, monkeypatch, seed, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, int(rng.integers(1, 13)), float(rng.uniform(0.2, 0.9)))
        for leaf in upward_leaf_masses(tree, seed):
            self.assert_matches_oracle(tree, leaf)

    def test_levels_larger_than_a_block(self):
        from dimlab import measures

        tree = random_tree(np.random.default_rng(17), 17, 0.9)
        assert tree.count(16) > measures._BLOCK_CELLS > tree.count(14)
        for leaf in upward_leaf_masses(tree, 17):
            self.assert_matches_oracle(tree, leaf)

    @given(upward_cases())
    def test_builders_match_the_reduceat_oracle(self, case):
        from dimlab import measures

        tree, leaf, block = case
        with mock.patch.object(measures, "_BLOCK_CELLS", block):
            self.assert_matches_oracle(tree, leaf)


@st.composite
def query_measures(draw):
    """A tree of span 1..3 and depth 0..10 with a counting, splitting or
    leaf-mass measure, the leaf masses 0 or between 0.01 and 1."""
    span, depth = draw(st.integers(1, 3)), draw(st.integers(0, 10))
    leaves = draw(st.lists(st.integers(0, (span << depth) - 1), min_size=1, max_size=40))
    tree = DyadicTree.from_leaves(depth, span, leaves)
    kind = draw(st.sampled_from(["counting", "splitting", "leaf"]))
    if kind == "counting":
        return counting_measure(tree)
    if kind == "splitting":
        return splitting_measure(tree)
    mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    leaf = draw(st.lists(mass, min_size=tree.count(depth), max_size=tree.count(depth)))
    assume(sum(leaf) > 0.0)
    return from_leaf_masses(tree, leaf)


def assert_restriction_matches_oracle(mu, v) -> None:
    """restrict_renormalize(mu, v) refuses as its oracle does, or builds
    an equal tree, offsets, masses bit for bit and child starts."""
    want = parse_outcome(restrict_renormalize_oracle, mu, v)
    got = parse_outcome(restrict_renormalize, mu, v)
    if want[0] != "ok":
        assert got == want
        return
    got, want = got[1], want[1]
    assert_same_tree(got.tree, want.tree)
    assert got._offsets == want._offsets
    assert got._flat.tobytes() == want._flat.tobytes()
    assert got._kids.dtype == want._kids.dtype and np.array_equal(got._kids, want._kids)
    assert not (got._flat.flags.writeable or got._kids.flags.writeable)


class TestVertexQueries:
    """mass, local_entropy, classify_local and restrict_renormalize against
    np.searchsorted oracles and the fresh build of a restriction: every
    vertex of the grid, occupied or not, every window and the windows just
    outside, results and refusals alike."""

    @given(query_measures())
    def test_queries_match_searchsorted(self, mu):
        depth = mu.tree.max_depth
        for k in range(-1, depth + 2):
            for j in range(mu.tree.capacity(k) if 0 <= k <= depth else 2):
                # plain tuples and lists take the same path as vertices
                v = (Vertex(k, j), (k, j), [k, j])[j % 3]
                assert parse_outcome(mu.mass, v) == parse_outcome(mass_oracle, mu, v), v
                for m in range(-1, depth - k + 2):
                    want = parse_outcome(local_entropy_oracle, mu, v, m)
                    assert parse_outcome(local_entropy, mu, v, m) == want, (v, m)
                    for eps in (0.1, 0.6):
                        want = parse_outcome(classify_local_oracle, mu, v, eps, m)
                        assert parse_outcome(classify_local, mu, v, eps, m) == want, (v, m, eps)

    @given(query_measures())
    def test_restrictions_are_the_fresh_build(self, mu):
        for k in range(mu.tree.max_depth + 1):
            for j in mu.tree.array(k).tolist():
                assert_restriction_matches_oracle(mu, (Vertex(k, j), (k, j))[j % 2])

    @pytest.mark.parametrize(
        "v, m",
        [
            (Vertex(-1, 0), -1),  # level and window both outside: the level is named
            (Vertex(4, 0), 9),
            (Vertex(2, 5), -1),  # unoccupied and window outside: occupancy is named
            ((3, 3), 4),
            ((2, 1), 0),  # zero mass before the window
            ([1, 1], 1),
            ((1,), 1),  # bad arity
            ((1, 1, 0), 1),
            (Vertex(1, 1.5), 1),  # an index that is not an integer
            ((1.0, 0), 1),  # a plain pair is held to integers, booleans refused
            ((1, 0.0), 1),
            ([True, 0], 1),
            ((2.0, 1), 1),  # levels that are floats or booleans
            ((True, 1), 1),
        ],
    )
    def test_refusals_keep_their_type_text_and_order(self, v, m):
        mu = from_leaf_masses(DyadicTree.from_leaves(3, 1, [0, 1, 2, 5, 6, 7]), [0.25, 0.25, 0.0, 0.25, 0.25, 0.0])
        assert parse_outcome(local_entropy, mu, v, m) == parse_outcome(local_entropy_oracle, mu, v, m)
        assert parse_outcome(classify_local, mu, v, 0.25, m) == parse_outcome(classify_local_oracle, mu, v, 0.25, m)
        assert parse_outcome(mu.mass, v) == parse_outcome(mass_oracle, mu, v)
        assert_restriction_matches_oracle(mu, v)


class TestLocal:
    def test_restriction_of_an_accepted_drift(self):
        t = DyadicTree.from_leaves(3, 1, [0, 1, 6, 7])
        masses = [w.copy() for w in counting_measure(t).masses]
        masses[3][0] += 9e-13
        nu = TreeMeasure(t, masses)
        # dividing by mu(v) = 0.5 doubles the drift the constructor accepted
        rest = restrict_renormalize(nu, (2, 0))
        assert [w.tolist() for w in rest.masses] == [[1.0], [(0.25 + 9e-13) / 0.5, 0.5]]

    def test_restriction_masses_are_the_divided_slices(self, rng):
        tree = random_tree(rng, 8, 0.7)
        mu = from_leaf_masses(tree, 0.1 + rng.random(tree.count(8)))
        for lev in (0, 2, 5):
            v = Vertex(lev, int(tree.array(lev)[-1]))
            rest = restrict_renormalize(mu, v)
            want = [
                mu.masses[lev + m][slice(*descendant_range(tree, v, m))] / mu.mass(v)
                for m in range(rest.tree.max_depth + 1)
            ]
            assert rest._flat.tobytes() == TreeMeasure(rest.tree, want)._flat.tobytes()

    def test_local_matches_restriction(self, rng):
        tree = random_tree(rng, 8, 0.7)
        mu = from_leaf_masses(tree, 0.1 + rng.random(len(tree.levels[8])))
        for _ in range(10):
            lev = int(rng.integers(0, 5))
            idx = tree.levels[lev][int(rng.integers(0, len(tree.levels[lev])))]
            m = int(rng.integers(1, 8 - lev + 1))
            v = Vertex(lev, idx)
            direct = local_entropy(mu, v, m)
            restricted = entropy(restrict_renormalize(mu, v), m)
            assert direct == pytest.approx(restricted, abs=1e-11)

    def test_vertex_levels_outside_the_tree_rejected(self):
        mu = counting_measure(DyadicTree.from_leaves(4, 1, [1, 5, 9]))
        for query in (mu.mass, lambda v: local_entropy(mu, v, 1)):
            for v in (Vertex(-1, 5), Vertex(5, 0)):
                with pytest.raises(ValueError, match=f"^level {v.level} outside 0..4$"):
                    query(v)
        for m in (0, 4):
            with pytest.raises(ValueError, match=f"^window m={m} leaves the tree at level 1$"):
                local_entropy(mu, Vertex(1, 0), m)

    def test_restrict_zero_mass(self, cantor3):
        leaf = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        mu = from_leaf_masses(cantor3, leaf)
        with pytest.raises(ZeroMassError):
            restrict_renormalize(mu, Vertex(2, 3))

    def test_classify_examples(self, cantor3_split):
        full = counting_measure(DyadicTree.from_leaves(6, 1, range(64)))
        assert classify_local(full, Vertex(1, 0), 0.1, 5) == UNIFORM
        point = counting_measure(DyadicTree.from_leaves(6, 1, [0]))
        assert classify_local(point, Vertex(1, 0), 0.1, 5) == ATOMIC
        assert classify_local(cantor3_split, Vertex(0, 0), 0.1, 3) == NEITHER

    def test_both_needs_large_eps(self):
        point = counting_measure(DyadicTree.from_leaves(4, 1, [0]))
        assert classify_local(point, Vertex(0, 0), 0.6, 1) in (ATOMIC, BOTH)

    def test_default_window(self):
        assert default_window(0.1) == 3
        assert default_window(0.05) == 4
        assert default_window(0.2) == 2
        assert default_window(0.6) == 1


def alternating_tree(depth: int) -> DyadicTree:
    """Branches into both children at even levels, left only at odd."""
    idx = np.zeros(1, dtype=np.int64)
    for lev in range(depth):
        if lev % 2 == 0:
            idx = np.sort(np.concatenate([idx << 1, (idx << 1) | 1]))
        else:
            idx = idx << 1
    return DyadicTree.from_leaves(depth, 1, idx)


class TestProfile:
    def test_full_tree_all_uniform(self):
        mu = counting_measure(DyadicTree.from_leaves(10, 1, range(1024)))
        prof = scale_profile(mu, 0.1, 3, 7)
        assert prof.I == tuple(range(8))
        assert prof.J == ()

    def test_point_mass_all_atomic(self):
        mu = counting_measure(DyadicTree.from_leaves(10, 1, [0]))
        prof = scale_profile(mu, 0.1, 3, 7)
        assert prof.J == tuple(range(8))
        assert prof.I == ()

    def test_alternating_split(self):
        tree = alternating_tree(10)
        mu = splitting_measure(tree)
        prof = scale_profile(mu, 0.4, 1, 9)
        assert prof.I == tuple(k for k in range(10) if k % 2 == 0)
        assert prof.J == tuple(k for k in range(10) if k % 2 == 1)

    def test_profile_json_shape(self):
        mu = counting_measure(DyadicTree.from_leaves(6, 1, range(64)))
        prof = scale_profile(mu, 0.1, 2, 4)
        body = prof.to_json()
        assert set(body) == {"eps", "m", "levels", "I", "J"}
        assert body["levels"][0].keys() == {"k", "uniform_frac", "atomic_frac"}

    def test_depth_overflow(self):
        mu = counting_measure(DyadicTree.from_leaves(6, 1, range(64)))
        with pytest.raises(ValueError):
            scale_profile(mu, 0.1, 3, 5)


def profile_measures(seed: int):
    """A random saturated tree of depth 4..14 with its counting, splitting
    and random leaf-mass measures; about 30 % of the leaf masses are zero."""
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(4, 15))
    tree = random_tree(rng, depth, float(rng.uniform(0.3, 0.9)))
    leaf = rng.random(tree.count(depth))
    leaf[rng.random(leaf.size) < 0.3] = 0.0
    leaf[int(rng.integers(leaf.size))] += 1.0
    return tree, (counting_measure(tree), splitting_measure(tree), from_leaf_masses(tree, leaf))


class TestProfileKernels:
    """The composed window starts and the mask-free kernels against the
    run-head pass per window and masked gathers they replace."""

    @pytest.mark.parametrize("block", range(10))
    def test_matches_oracle_exactly(self, block):
        for seed in range(10 * block, 10 * block + 10):
            tree, measures = profile_measures(seed)
            for mu in measures:
                for n in range(tree.max_depth + 1):
                    assert entropy(mu, n) == -float(np.sum(xlogx_oracle(mu.masses[n])))
                for m in range(1, min(5, tree.max_depth) + 1):
                    for eps in (0.05, 0.1, 0.2, 0.4, 0.6):
                        want = scale_profile_oracle(mu, eps, m, tree.max_depth - m)
                        assert scale_profile(mu, eps, m).to_json() == want.to_json()

    @pytest.mark.parametrize("seed", range(10))
    def test_composed_starts_equal_descendant_starts(self, seed):
        tree, (mu, _, _) = profile_measures(seed)
        assert_starts_equal_descendant_starts(mu)

    @pytest.mark.parametrize(
        "tree",
        [
            DyadicTree.from_leaves(0, 1, [0]),
            DyadicTree.from_leaves(0, 5, [1, 3, 4]),
            DyadicTree.from_leaves(13, 1, [5000]),
            DyadicTree.from_leaves(9, 3, [0, 1, 2, 700, 1023, 1024, 1500, 1535]),
        ],
        ids=["depth-0", "depth-0-span-5", "chain", "span-3"],
    )
    @pytest.mark.parametrize("block", [1, 3, 1 << 15])
    def test_starts_on_edge_trees(self, monkeypatch, tree, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        for mu in (counting_measure(tree), splitting_measure(tree)):
            assert_starts_equal_descendant_starts(mu)

    def test_starts_on_levels_straddling_a_block(self):
        from dimlab import measures

        tree = random_tree(np.random.default_rng(17), 17, 0.9)
        counts = [tree.count(n) for n in range(tree.max_depth + 1)]
        assert counts[14] < measures._BLOCK_CELLS < counts[16]
        offsets = measures._level_offsets(tree)
        blocks = list(measures._blocks(offsets, tree.max_depth))
        assert any(k1 > k0 + 1 for k0, k1 in blocks) and any(k1 == k0 + 1 for k0, k1 in blocks)
        assert_starts_equal_descendant_starts(counting_measure(tree), windows=3)

    def test_no_run_head_pass_and_no_float_faults(self, monkeypatch):
        tree, measures = profile_measures(5)
        calls = []
        real = DyadicTree.descendant_starts
        monkeypatch.setattr(
            DyadicTree, "descendant_starts",
            lambda self, k, m: calls.append((k, m)) or real(self, k, m),
        )
        assert np.count_nonzero(measures[2].masses[tree.max_depth - 3] == 0.0)
        with np.errstate(all="raise"):
            for mu in measures:
                for m in (1, 3):
                    scale_profile(mu, 0.2, m)
        assert calls == []


def log_measures(seed: int):
    """profile_measures' three measures, the leaf-mass one with zero
    masses, and a leaf-mass one with none."""
    tree, (counting, splitting, zeros) = profile_measures(seed)
    positive = from_leaf_masses(tree, np.random.default_rng(seed).random(tree.count(tree.max_depth)) + 1e-3)
    assert np.count_nonzero(zeros._flat == 0.0) and not np.count_nonzero(positive._flat == 0.0)
    return tree, (counting, splitting, zeros, positive)


class TestKeptLogs:
    """The log w and w log w arrays a measure keeps, built in one pass a
    block, unmasked where no mass is 0."""

    @pytest.mark.parametrize("block", [1, 3, 1 << 15])
    @pytest.mark.parametrize("seed", range(3))
    def test_logs_match_np_log_and_the_oracle(self, monkeypatch, seed, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        for mu in log_measures(seed)[1]:
            log, wlogw = mu._all_logs()
            w = mu._flat
            pos = w > 0.0
            assert log[pos].tobytes() == np.log(w[pos]).tobytes()
            assert log[~pos].tobytes() == np.zeros(np.count_nonzero(~pos)).tobytes()
            assert wlogw.tobytes() == xlogx_oracle(w).tobytes()
            assert not (log.flags.writeable or wlogw.flags.writeable)
            assert mu._all_logs()[0] is log and mu._all_logs()[1] is wlogw

    @pytest.mark.parametrize("seed", range(3))
    def test_entropy_queries_raise_no_float_fault(self, seed):
        tree, built = log_measures(seed)
        D = tree.max_depth
        with np.errstate(all="raise"):
            for mu in built:
                for n in range(D + 1):
                    entropy(mu, n)
                for m in (1, 2, 3):
                    scale_profile(mu, 0.2, m)
                for k in (0, D // 2, D - 1):
                    for j in tree.array(k).tolist():
                        v = Vertex(k, j)
                        if mu.mass(v) == 0.0:
                            with pytest.raises(ZeroMassError):
                                local_entropy(mu, v, 1)
                            continue
                        local_entropy(mu, v, D - k)
                        classify_local(mu, v, 0.3, 1)


def assert_starts_equal_descendant_starts(mu, windows: int | None = None) -> None:
    """The measure's child starts, and the starts it composes for windows
    m = 1..windows (default every window), equal descendant_starts."""
    tree = mu.tree
    offsets = np.cumsum([0] + [tree.count(n) for n in range(tree.max_depth + 1)])
    want = [tree.descendant_starts(n, 1) + offsets[n + 1] for n in range(tree.max_depth)]
    assert mu._kids.dtype == np.int64
    assert np.array_equal(mu._kids, np.concatenate([[], *want]))
    for k in range(tree.max_depth):
        for m in range(1, min(windows or tree.max_depth, tree.max_depth - k) + 1):
            assert np.array_equal(mu._starts(k, m), tree.descendant_starts(k, m))


def with_masses(tree: DyadicTree, seed: int):
    """The counting measure and a random leaf-mass measure with zeros."""
    rng = np.random.default_rng(seed)
    leaf = rng.random(tree.count(tree.max_depth))
    leaf[rng.random(leaf.size) < 0.3] = 0.0
    leaf[0] += 1.0
    return counting_measure(tree), from_leaf_masses(tree, leaf)


def assert_profiles_match_oracle(mu, windows, eps_values=(0.1, 0.3, 0.6)) -> None:
    """entropy at every level, and scale_profile at every (m, n) given,
    equal their oracles with ==."""
    for n in range(mu.tree.max_depth + 1):
        assert entropy(mu, n) == -float(np.sum(xlogx_oracle(mu.masses[n])))
    for m, n in windows:
        for eps in eps_values:
            want = scale_profile_oracle(mu, eps, m, n).to_json()
            assert scale_profile(mu, eps, m, n).to_json() == want, (m, n, eps)


class TestLevelBlocks:
    """The level kernels run once per block of consecutive levels; what they
    give must not depend on where the blocks fall."""

    @pytest.mark.parametrize("block", [1, 2, 7, 64, 1 << 15])
    def test_blocks_cover_each_level_once(self, monkeypatch, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        tree = random_tree(np.random.default_rng(4), 12, 0.7)
        offsets = measures._level_offsets(tree)
        for stop in (tree.max_depth + 1, tree.max_depth, 9, 1):
            runs = list(measures._blocks(offsets, stop))
            assert [k for k0, k1 in runs for k in range(k0, k1)] == list(range(stop))
            for k0, k1 in runs:
                assert k1 == k0 + 1 or offsets[k1] - offsets[k0] <= block

    def test_levels_larger_than_a_block(self):
        tree = random_tree(np.random.default_rng(17), 17, 0.9)
        assert tree.count(17) > 1 << 15 > tree.count(15)
        D = tree.max_depth
        for mu in with_masses(tree, 1):
            assert_profiles_match_oracle(mu, [(1, D - 1), (2, D - 2), (3, 9), (D, 0)], (0.2, 0.6))

    def test_many_tiny_levels_share_a_block(self):
        tree = DyadicTree.from_leaves(40, 1, [3, 4, 5, 1 << 20, (1 << 20) + 7, (1 << 39) + 9])
        D = tree.max_depth
        for mu in (*with_masses(tree, 2), splitting_measure(tree)):
            assert_profiles_match_oracle(mu, [(1, D - 1), (5, D - 5), (4, 7), (D, 0), (1, 0)])

    @pytest.mark.parametrize("block", [1, 3, 40, 500])
    @pytest.mark.parametrize("seed", range(4))
    def test_small_blocks_match_oracle(self, monkeypatch, block, seed):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        tree, measures_ = profile_measures(seed)
        D = tree.max_depth
        windows = [(1, D - 1), (2, D - 2), (3, D - 5), (D - 1, 1), (D, 0), (1, 0)]
        for mu in measures_:
            assert_profiles_match_oracle(mu, windows)

    @pytest.mark.parametrize("block", [1, 16, 1 << 15])
    def test_first_drifting_level_is_named(self, monkeypatch, block):
        from dimlab import measures

        monkeypatch.setattr(measures, "_BLOCK_CELLS", block)
        # Levels of 1, 2, 4, 8, 16, 22 and 22 cells: with 16 or more cells a
        # block, level 2 sits inside the first block.  Each pair moved
        # shares a parent, so only the pair's own level drifts.
        tree = DyadicTree.from_leaves(6, 1, range(0, 64, 3))
        masses = [w.copy() for w in splitting_measure(tree).masses]
        masses[2][[0, 1]] += [1e-9, -1e-9]
        masses[4][[0, 1]] += [3e-6, -3e-6]
        with pytest.raises(MeasureInvariantError) as err:
            TreeMeasure(tree, masses)
        assert str(err.value) == "level 2: children deviate from parents by 1.000e-09"
        masses[2][[0, 1]] -= [1e-9, -1e-9]
        with pytest.raises(MeasureInvariantError) as err:
            TreeMeasure(tree, masses)
        assert str(err.value) == "level 4: children deviate from parents by 3.000e-06"


EPSILONS = (0.1, 0.25, 0.4, 0.6)


def assert_local_matches_oracle(mu, levels=None, windows=None) -> tuple[int, int]:
    """local_entropy and classify_local equal the per-call oracle with ==
    at every vertex of the given levels (default all) and every window m
    (default 1..D-k) that stays in the tree, and zero-mass vertices raise
    ZeroMassError in both.  Returns the (vertex, m) pairs compared and the
    zero-mass ones among them."""
    tree = mu.tree
    compared = zeros = 0
    for k in range(tree.max_depth) if levels is None else levels:
        for m in range(1, tree.max_depth - k + 1) if windows is None else windows:
            if k + m > tree.max_depth:
                continue
            for j in tree.array(k).tolist():
                v = Vertex(k, j)
                compared += 1
                if mu.mass(v) == 0.0:
                    zeros += 1
                    want = (ZeroMassError, f"vertex (level={k}, index={j}) has zero mass")
                    assert parse_outcome(local_entropy_oracle, mu, v, m) == want
                    assert parse_outcome(local_entropy, mu, v, m) == want
                    continue
                assert local_entropy(mu, v, m) == local_entropy_oracle(mu, v, m), (v, m)
                for eps in EPSILONS:
                    assert classify_local(mu, v, eps, m) == classify_local_oracle(mu, v, eps, m), (v, m, eps)
    return compared, zeros


class TestLocalTables:
    """The per-window sum tables against the descendant slice, np.sum and
    math.log per call that they replace: equal bit for bit, since class
    strings sit on their thresholds on splitting measures."""

    @pytest.mark.parametrize("block", range(3))
    def test_matches_oracle_exactly(self, block):
        zeros = 0
        for seed in range(4 * block, 4 * block + 4):
            for mu in profile_measures(seed)[1]:
                zeros += assert_local_matches_oracle(mu)[1]
        assert zeros > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_short_rows(self, seed):
        """Many level-8 vertices with 3 to 7 descendants three levels down."""
        rng = np.random.default_rng([31, seed])
        leaves = [
            (j << 3) | int(c) for j in range(256) for c in rng.choice(8, int(rng.integers(3, 8)), replace=False)
        ]
        tree = DyadicTree.from_leaves(11, 1, leaves)
        mu = from_leaf_masses(tree, rng.random(tree.count(11)))
        assert set(tree.descendant_counts(8, 3).tolist()) == {3, 4, 5, 6, 7}
        assert assert_local_matches_oracle(mu, levels=[8], windows=[3]) == (256, 0)
        assert assert_local_matches_oracle(mu, levels=range(6, 11))[0]

    def test_long_segments(self):
        """Windows whose segments hold more than 8192 leaves."""
        rng = np.random.default_rng(32)
        leaves = np.flatnonzero(rng.random(1 << 15) < 0.9)
        tree = DyadicTree.from_leaves(15, 1, leaves)
        mu = from_leaf_masses(tree, rng.random(leaves.size))
        assert tree.descendant_counts(1, 14).min() > 8192
        assert assert_local_matches_oracle(mu, levels=range(3))[0]

    def test_moran_threshold_vertices(self):
        """The 16^-j Moran measure at m = 4: 1607 (vertex, eps, threshold)
        triples lie within 1e-12 of eps or 1 - eps, 67 of them on it."""
        mu = splitting_measure(moran_tree(MoranSpec(8, "16^-j"), 16))
        near = exact = 0
        for k in range(13):
            for j in mu.tree.array(k).tolist():
                h = local_entropy(mu, Vertex(k, j), 4) / (4 * LN2)
                for eps in (0.1, 0.25, 0.4):
                    for threshold in (1.0 - eps, eps):
                        near += abs(h - threshold) < 1e-12
                        exact += h == threshold
        assert (near, exact) == (1607, 67)
        assert assert_local_matches_oracle(mu, windows=[4]) == (sum(map(mu.tree.count, range(13))), 0)


class TestLocalRefusals:
    """local_entropy refuses in the order of the per-call formula, with its
    texts, and builds each window's table once."""

    @pytest.fixture(scope="class")
    def zero_leaf(self, cantor3):
        return from_leaf_masses(cantor3, [0.25, 0.25, 0.0, 0.25, 0.25, 0.0])

    @pytest.mark.parametrize(
        "v, m, want",
        [
            (Vertex(-1, 0), 0, (ValueError, "level -1 outside 0..3")),
            (Vertex(4, 0), 1, (ValueError, "level 4 outside 0..3")),
            (Vertex(2, 5), 0, (ValueError, "vertex (level=2, index=5) not occupied")),
            (Vertex(3, 3), 1, (ValueError, "vertex (level=3, index=3) not occupied")),
            (Vertex(2, 1), 0, (ZeroMassError, "vertex (level=2, index=1) has zero mass")),
            (Vertex(3, 7), 2, (ZeroMassError, "vertex (level=3, index=7) has zero mass")),
            (Vertex(1, 1), 0, (ValueError, "window m=0 leaves the tree at level 1")),
            (Vertex(1, 1), -2, (ValueError, "window m=-2 leaves the tree at level 1")),
            (Vertex(1, 1), 3, (ValueError, "window m=3 leaves the tree at level 1")),
            (Vertex(3, 6), 1, (ValueError, "window m=1 leaves the tree at level 3")),
        ],
    )
    def test_refusal_text_and_order(self, zero_leaf, v, m, want):
        assert parse_outcome(local_entropy, zero_leaf, v, m) == want
        assert parse_outcome(local_entropy_oracle, zero_leaf, v, m) == want
        assert parse_outcome(classify_local, zero_leaf, v, 0.25, m) == want

    def test_one_table_per_window(self, monkeypatch):
        tree, (mu, _, _) = profile_measures(3)
        calls = []
        real = TreeMeasure._starts
        monkeypatch.setattr(TreeMeasure, "_starts", lambda self, k, m: calls.append((k, m)) or real(self, k, m))
        level = tree.array(2).tolist()
        for j in level:
            local_entropy(mu, Vertex(2, j), 2)
            classify_local(mu, Vertex(2, j), 0.25, 2)
        assert calls == [(2, 2)]
        local_entropy(mu, Vertex(2, level[0]), 1)
        local_entropy(mu, Vertex(1, tree.array(1)[0]), 2)
        assert calls == [(2, 2), (2, 1), (1, 2)]
        assert not mu._local_sums(2, 2).flags.writeable


class TestGreedyCover:
    def test_disjoint_blocks(self):
        cover = greedy_cover([0, 1, 2, 5, 6, 9], 3)
        assert cover == [(0, 3), (5, 8), (9, 12)]

    def test_empty(self):
        assert greedy_cover([], 4) == []


class TestCoveringBounds:
    def test_wrong_depth_rejected(self):
        tree = DyadicTree.from_leaves(8, 1, range(256))
        mu = counting_measure(tree)
        prof = scale_profile(mu, 0.25, 2)
        with pytest.raises(ValueError):
            covering_bounds_check(tree, prof, 7)

    def test_full_fires_uniform(self):
        tree = DyadicTree.from_leaves(8, 1, range(256))
        prof = scale_profile(counting_measure(tree), 0.25, 2)
        rep = covering_bounds_check(tree, prof, 8)
        assert rep.uniform_fired and rep.uniform_holds
        assert rep.threshold_convention == "averaged"
        assert rep.ok

    def test_chain_fires_atomic(self):
        tree = DyadicTree.from_leaves(8, 1, [0])
        prof = scale_profile(counting_measure(tree), 0.25, 2)
        rep = covering_bounds_check(tree, prof, 8)
        assert rep.atomic_fired and rep.atomic_holds
        assert rep.ok

    def test_report_json(self):
        tree = DyadicTree.from_leaves(8, 1, [0])
        prof = scale_profile(counting_measure(tree), 0.25, 2)
        body = covering_bounds_check(tree, prof, 8).to_json()
        assert body["atomic"]["fired"] is True
        assert "covering" in body


class TestChainRuleProperties:
    @given(st.integers(0, 1000), st.integers(2, 8))
    def test_telescoping(self, seed, depth):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, depth, 0.6)
        mu = from_leaf_masses(tree, 0.1 + rng.random(len(tree.levels[depth])))
        total = sum(cond_entropy(mu, i, i + 1) for i in range(depth))
        assert total == pytest.approx(entropy(mu, depth), abs=1e-9)

    @given(st.integers(0, 1000))
    def test_block_rule(self, seed):
        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 6, 0.7)
        mu = from_leaf_masses(tree, 0.1 + rng.random(len(tree.levels[6])))
        i, m = 2, 3
        rhs = sum(
            mu.mass(Vertex(i, j)) * local_entropy(mu, Vertex(i, j), m)
            for j in tree.levels[i]
        )
        assert cond_entropy(mu, i, i + m) == pytest.approx(rhs, abs=1e-10)

    @given(st.integers(0, 500))
    def test_uniform_implies_full_branching(self, seed):
        from dimlab import is_full_branching

        rng = np.random.default_rng(seed)
        tree = random_tree(rng, 8, 0.8)
        mu = counting_measure(tree)
        eps, m = 0.3, 3
        for lev in (0, 2, 4):
            for idx in tree.levels[lev][:20]:
                v = Vertex(lev, idx)
                if classify_local(mu, v, eps, m) == UNIFORM:
                    assert is_full_branching(tree, v, eps, m)


class TestSerialization:
    def test_round_trip_exact(self, cantor3_split):
        text = dumps_measure(cantor3_split)
        back = loads_measure(text)
        for lev in range(4):
            assert back.masses[lev].tolist() == cantor3_split.masses[lev].tolist()

    def test_mass_lines_present(self, cantor3_split):
        text = dumps_measure(cantor3_split)
        assert "mass 3 6 0.125" in text

    @pytest.mark.parametrize("mass", ["mass 0 0 abc", "mass 0 z 1"])
    def test_non_numeric_mass_line(self, mass):
        with pytest.raises(FormatError):
            loads_measure(f"dyadic-tree v1 depth=0 span=1\n0: 0\n{mass}\n")

    @pytest.mark.parametrize("tail", ["", " 1"], ids=["bad-mass", "five-fields"])
    def test_long_mass_line_is_clipped(self, cantor3_split, tail):
        line = "mass 1 0 " + "x" * 100_000 + tail
        with pytest.raises(FormatError) as err:
            loads_measure(dumps_measure(cantor3_split) + line + "\n")
        assert str(err.value).startswith("bad mass line: 'mass 1 0 xxx")
        assert f"({len(line) + 2} characters)" in str(err.value)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize("mass, drift", [("0.12500000000095", None), ("0.1250000000011", "1.100e-12")])
    def test_loaded_masses_are_checked(self, cantor3_split, mass, drift):
        # the constructor checks masses read from text; the builders skip it
        text = dumps_measure(cantor3_split).replace("mass 3 6 0.125\n", f"mass 3 6 {mass}\n")
        if drift is None:
            assert loads_measure(text).masses[3][4] == float(mass)
            return
        with pytest.raises(MeasureInvariantError) as err:
            loads_measure(text)
        assert str(err.value) == f"level 2: children deviate from parents by {drift}"

    def test_incomplete_masses_rejected(self, cantor3_split):
        text = dumps_measure(cantor3_split)
        trimmed = "\n".join(ln for ln in text.splitlines() if not ln.startswith("mass 3 5")) + "\n"
        with pytest.raises(Exception):
            loads_measure(trimmed)
