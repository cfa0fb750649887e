import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dimlab import (
    ATOMIC,
    BOTH,
    NEITHER,
    UNIFORM,
    DyadicTree,
    FormatError,
    MeasureInvariantError,
    TreeMeasure,
    Vertex,
    ZeroMassError,
    avg_entropy,
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
    restrict_renormalize,
    scale_profile,
    splitting_measure,
)
from conftest import random_tree

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

    def test_total_mass_violation(self, cantor3):
        masses = [np.array([0.5]), np.array([0.25, 0.25]),
                  np.array([0.125, 0.125, 0.25]),
                  np.array([0.0625, 0.0625, 0.0625, 0.0625, 0.125, 0.125])]
        with pytest.raises(MeasureInvariantError):
            TreeMeasure(cantor3, masses)

    def test_child_sum_violation(self, cantor3):
        masses = [np.array([1.0]), np.array([0.7, 0.3]),
                  np.array([0.25, 0.25, 0.5]),
                  np.array([0.125, 0.125, 0.25, 0.25, 0.125, 0.125])]
        with pytest.raises(MeasureInvariantError):
            TreeMeasure(cantor3, masses)

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

    def test_avg_entropy(self, cantor3_split):
        assert avg_entropy(cantor3_split, 3) == pytest.approx(2.5 / 3, abs=1e-12)

    def test_avg_entropy_rejects_zero(self, cantor3_split):
        with pytest.raises(ValueError):
            avg_entropy(cantor3_split, 0)

    def test_cond_entropy(self, cantor3_split):
        assert cond_entropy(cantor3_split, 2, 3) == pytest.approx(0.5 * LN2, abs=1e-12)
        with pytest.raises(ValueError):
            cond_entropy(cantor3_split, 3, 2)

    def test_level_overflow(self, cantor3_split):
        with pytest.raises(ValueError):
            entropy(cantor3_split, 4)


class TestLocal:
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

    def test_incomplete_masses_rejected(self, cantor3_split):
        text = dumps_measure(cantor3_split)
        trimmed = "\n".join(ln for ln in text.splitlines() if not ln.startswith("mass 3 5")) + "\n"
        with pytest.raises(Exception):
            loads_measure(trimmed)
