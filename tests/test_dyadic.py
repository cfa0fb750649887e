import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dimlab import (
    DyadicTree,
    FormatError,
    ResourceLimitError,
    Vertex,
    cell_of,
    covering_count,
    descendant_count,
    descendant_range,
    is_full_branching,
    dumps_tree,
    loads_tree,
    subtree,
    validate,
)
import dimlab.dyadic as dyadic
from dimlab.budget import limit
from conftest import (
    assert_same_tree,
    bitmask_of,
    decode_level_oracle,
    descendant_count_oracle,
    encode_level_oracle,
    from_leaves_oracle,
    is_full_branching_oracle,
    level_query_oracle,
    parse_outcome,
    random_tree,
    subtree_oracle,
)

leaf_sets = st.builds(
    lambda depth, idx: (depth, sorted(set(idx))),
    st.integers(2, 10),
    st.lists(st.integers(0, 1023), min_size=0, max_size=60),
).map(lambda t: (t[0], [i % (1 << t[0]) for i in t[1]]))


def tree_from(depth, leaves, span=1):
    return DyadicTree.from_leaves(depth, span, sorted(set(leaves)))


class TestIntervals:
    def test_cell_of_clamps_span_endpoint(self):
        assert cell_of(1.0, 4, 1) == 15
        assert cell_of(2.0, 4, 2) == 31
        assert cell_of(0.0, 4, 1) == 0

    def test_cell_of_rejects_outside(self):
        with pytest.raises(ValueError):
            cell_of(1.5, 4, 1)
        with pytest.raises(ValueError):
            cell_of(-0.1, 4, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cell_of(0.5, 3, 2.0),
            lambda: cell_of(0.5, True),
        ],
        ids=["cell_of-span-float", "cell_of-level-bool"],
    )
    def test_non_integer_level_index_or_span_is_refused(self, call):
        # bools once built span=True or level=True; floats raised TypeError from <<
        with pytest.raises(ValueError, match="must be integers"):
            call()

    def test_numpy_integers_and_the_negative_level_text_are_kept(self):
        assert cell_of(0.5, np.int64(3)) == 4


class TestTreeConstruction:
    def test_from_leaves_saturates_upward(self):
        t = tree_from(3, [0, 1, 2, 5, 6, 7])
        assert t.levels[2] == (0, 1, 2, 3)
        assert t.levels[1] == (0, 1)
        assert t.levels[0] == (0,)

    def test_covering_count(self):
        assert covering_count(tree_from(3, range(8)), 3) == 8

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

    def test_grid_must_index_in_int64(self):
        # the rule tree files follow: span * 2^depth < 2^63
        assert DyadicTree.from_leaves(60, 7, [0]).capacity(60) < 2**63
        for build in (DyadicTree.from_leaves, lambda d, s, leaves: DyadicTree(d, s, [leaves] * (d + 1))):
            with pytest.raises(ValueError, match=r"^depth=61 span=4 is not a grid of under 2\^63 cells$"):
                build(61, 4, [0])
            with pytest.raises(ValueError, match="negative depth -1"):
                build(-1, 1, [0])

    @pytest.mark.parametrize("depth, span", [(3, True), (3, 2.0), (2.0, 1), (False, 1), (3, "2")])
    def test_grid_refuses_non_integer_depth_or_span(self, depth, span):
        # a bool span used to be written as span=True, which loads_tree refuses
        for build in (DyadicTree.from_leaves, lambda d, s, leaves: DyadicTree(d, s, [leaves] * 4)):
            with pytest.raises(ValueError, match="^depth and span must be integers"):
                build(depth, span, [1])

    @pytest.mark.parametrize(
        "leaves",
        [[1.7, 2.2], [True, True], ["5"], np.array([1.0, 2.0]), np.array([1, 2], dtype=object),
         [1, True]],
        ids=["float", "bool", "str", "float-array", "object-array", "bool-among-ints"],
    )
    def test_non_integer_leaves_rejected(self, leaves):
        with pytest.raises(ValueError, match="must be integers"):
            DyadicTree.from_leaves(3, 1, leaves)

    @pytest.mark.parametrize(
        "leaves",
        [[2**64], [1, 2**64], [-1, 2**63], [2**63], np.array([2**63], dtype=np.uint64)],
        ids=["2^64", "mixed-2^64", "negative-and-2^63", "2^63", "uint64-2^63"],
    )
    def test_leaves_beyond_int64_out_of_range(self, leaves):
        with pytest.raises(ValueError, match="leaf index out of range"):
            DyadicTree.from_leaves(3, 1, leaves)

    @pytest.mark.parametrize("leaves", [[], (), np.empty(0, dtype=np.int64)], ids=["list", "tuple", "array"])
    def test_empty_leaves(self, leaves):
        t = DyadicTree.from_leaves(3, 2, leaves)
        assert t.levels == ((),) * 4
        assert t.is_empty()

    def test_levels_view_is_built_on_first_read_and_cached(self):
        t = tree_from(6, [1, 5, 9, 40])
        assert (t.count(6), t.descendant_counts(0, 6).tolist()) == (4, [4])
        assert t._views == [None] * 7
        levels = t.levels
        assert t._views == list(levels)
        assert all(a is b for a, b in zip(t.levels, levels))
        assert levels == tuple(tuple(t.array(n).tolist()) for n in range(7))

    def test_point_query_builds_one_level_view(self):
        t = tree_from(6, [1, 5, 9, 40])
        assert descendant_count(t, Vertex(4, 10), 0) == 1
        assert descendant_range(t, Vertex(4, 11), 0) == (4, 4)
        assert [n for n, view in enumerate(t._views) if view is not None] == [4]
        assert t.levels[4] is t._views[4]


leaf_inputs = st.integers(0, 7).flatmap(
    lambda depth: st.integers(1, 3).flatmap(
        lambda span: st.tuples(
            st.just(depth),
            st.just(span),
            st.lists(st.integers(0, (span << depth) - 1), max_size=40),
            st.sampled_from(["list", "tuple", "generator", "ndarray"]),
        )
    )
)


def _as_input(leaves, form):
    if form == "tuple":
        return tuple(leaves)
    if form == "generator":
        return (i for i in leaves)
    if form == "ndarray":
        return np.array(leaves, dtype=np.int64)
    return list(leaves)


class TestFromLeavesOracle:
    """`from_leaves` (one sort, adjacent dedupe) against the per-level
    np.unique builder kept in conftest."""

    @given(leaf_inputs)
    @example((0, 1, [], "list"))
    @example((0, 3, [2, 0, 2], "ndarray"))
    @example((5, 2, [], "ndarray"))
    def test_matches_oracle(self, spec):
        depth, span, leaves, form = spec
        t = DyadicTree.from_leaves(depth, span, _as_input(leaves, form))
        assert t == from_leaves_oracle(depth, span, leaves)
        assert validate(t) == []
        for n in range(depth + 1):
            a = t.array(n)
            assert a.dtype == np.int64 and not a.flags.writeable
            assert a.tolist() == list(t.levels[n])
            assert all(type(j) is int for j in t.levels[n])

    @given(leaf_inputs)
    def test_caller_array_untouched(self, spec):
        depth, span, leaves, _ = spec
        arr = np.array(leaves, dtype=np.int64)
        DyadicTree.from_leaves(depth, span, arr)
        assert arr.tolist() == leaves
        assert arr.flags.writeable

    @pytest.mark.parametrize(
        "leaves",
        [
            np.array([9, 3, 40, 1, 5]),
            np.array([1, 5, 5, 9, 9, 40]),
            np.array([[1, 40], [9, 5]]),
            np.array([1, 5, 9, 40], dtype=np.uint64),
            np.array([1, 5, 9, 40], dtype=np.int32),
            np.array([1, 5, 9, 40]),
            np.array([40]),
            [1, 5, 9, 40],
            [40, 9, 5, 1, 5],
        ],
        ids=["unsorted", "repeated", "2-d", "uint64", "int32", "sorted", "one", "list", "list-unsorted"],
    )
    def test_sorted_and_unsorted_inputs_match_oracle(self, leaves):
        want = from_leaves_oracle(6, 1, np.ravel(leaves).tolist())
        assert DyadicTree.from_leaves(6, 1, leaves) == want

    @pytest.mark.parametrize("size", [2, 511, 70000])
    @pytest.mark.parametrize("repeats", [0.0, 0.4, 1.0])
    def test_dedupe_matches_unique(self, size, repeats):
        rng = np.random.default_rng(size)
        steps = (rng.random(size) >= repeats).astype(np.int64) * rng.integers(1, 4, size)
        a = np.cumsum(steps) + int(rng.integers(0, 1 << 40))
        got = dyadic._dedupe_sorted(a)
        assert got.dtype == np.int64 and np.array_equal(got, np.unique(a))
        t = DyadicTree.from_leaves(42, 1, a)
        assert t == from_leaves_oracle(42, 1, a.tolist())

    @pytest.mark.parametrize("leaves", [[3, 17, 40], [40]], ids=["increasing", "one"])
    def test_tree_owns_its_leaves(self, leaves):
        arr = np.array(leaves, dtype=np.int64)
        t = DyadicTree.from_leaves(6, 1, arr)
        assert not np.shares_memory(t.array(6), arr)
        arr[:] = 0
        assert t.array(6).tolist() == leaves


class TestDescendants:
    def test_descendant_range_and_count(self):
        t = tree_from(3, [0, 1, 2, 5, 6, 7])
        lo, hi = descendant_range(t, Vertex(1, 1), 2)
        assert t.levels[3][lo:hi] == (5, 6, 7)
        assert descendant_count(t, Vertex(1, 0), 2) == 3

    @given(leaf_inputs)
    @example((3, 2, [0, 5, 6, 7, 12, 13], "list"))
    def test_level_queries_match_searchsorted(self, spec):
        depth, span, leaves, _ = spec
        t = DyadicTree.from_leaves(depth, span, leaves)
        for k in range(depth + 1):
            parents = t.array(k)
            assert t.count(k) == parents.size
            for m in range(depth - k + 1):
                below = t.array(k + m)
                lo = np.searchsorted(below, parents << m)
                hi = np.searchsorted(below, (parents + 1) << m)
                assert t.descendant_starts(k, m).tolist() == lo.tolist()
                assert t.descendant_counts(k, m).tolist() == (hi - lo).tolist()

    @pytest.mark.parametrize("block, leaves, depth", [(1, 300, 10), (7, 2000, 12), (None, 150_000, 18)])
    def test_descendant_starts_equal_run_heads(self, monkeypatch, block, leaves, depth):
        # every route, the binary search and blocks of neighbours, of 1 and
        # 7 cells and of the default 2^16 on levels of up to 150,000 cells
        if block is not None:
            monkeypatch.setattr(dyadic, "_LEVEL_BLOCK", block)
        t = DyadicTree.from_leaves(depth, 1, np.random.default_rng(leaves).choice(1 << depth, leaves, replace=False))
        for k in range(depth + 1):
            for m in {min(1, depth - k), (depth - k) // 2, depth - k}:
                shifted = t.array(k + m) >> m
                want = np.flatnonzero(np.diff(shifted, prepend=-1))
                assert np.array_equal(t.descendant_starts(k, m), want)

    @pytest.mark.parametrize("k, m", [(-1, 1), (2, -1), (3, 2)])
    def test_level_queries_reject_windows_outside_the_tree(self, k, m):
        t = tree_from(4, [1, 5, 9])
        for query in (t.descendant_starts, t.descendant_counts):
            with pytest.raises(ValueError, match="outside 0..4"):
                query(k, m)

    @pytest.mark.parametrize("level", [-1, 5])
    def test_tree_accessors_reject_levels_outside_the_tree(self, level):
        # Level -1 must not read the deepest level, as a Python index would.
        t = tree_from(4, [1, 5, 9])
        for query in (t.count, t.array):
            with pytest.raises(ValueError, match=f"^level {level} outside 0..4$"):
                query(level)
        with pytest.raises(ValueError, match=f"^level {level} outside 0..4$"):
            covering_count(t, level)

    @pytest.mark.parametrize(
        "v, m, message",
        [
            (Vertex(-1, 5), 1, "vertex level -1 outside 0..4"),
            (Vertex(5, 0), 0, "vertex level 5 outside 0..4"),
            (Vertex(2, 1), -1, "window m=-1 leaves the tree at level 2"),
            (Vertex(0, 0), 9, "window m=9 leaves the tree at level 0"),
        ],
    )
    def test_descendant_range_rejects_levels_outside_the_tree(self, v, m, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            descendant_range(tree_from(4, [1, 5, 9]), v, m)

    def test_subtree_rescales(self):
        t = tree_from(3, [0, 1, 2, 5, 6, 7])
        sub = subtree(t, Vertex(2, 0))
        assert sub.max_depth == 1
        assert sub.levels[1] == (0, 1)

    def test_subtree_missing_vertex(self):
        t = tree_from(3, [0])
        with pytest.raises(ValueError):
            subtree(t, Vertex(1, 1))


query_trees = st.integers(1, 3).flatmap(
    lambda span: st.integers(0, 10).flatmap(
        lambda depth: st.lists(st.integers(0, (span << depth) - 1), min_size=1, max_size=40).map(
            lambda leaves: DyadicTree.from_leaves(depth, span, leaves)
        )
    )
)


class TestVertexQueries:
    """descendant_count, is_full_branching and subtree against numpy
    searchsorted oracles and the fresh saturation of the leaves below a
    vertex: every vertex of the grid, occupied or not, every window and
    the windows just outside, results and refusals alike."""

    @given(query_trees)
    @example(DyadicTree.from_leaves(3, 2, [0, 5, 6, 7, 12, 13]))
    def test_counts_match_searchsorted(self, tree):
        depth = tree.max_depth
        for k in range(-1, depth + 2):
            for j in range(tree.capacity(k) if 0 <= k <= depth else 2):
                # plain tuples and lists take the same path as vertices
                v = (Vertex(k, j), (k, j), [k, j])[j % 3]
                for m in range(-1, depth - k + 2):
                    want = parse_outcome(descendant_count_oracle, tree, v, m)
                    assert parse_outcome(descendant_count, tree, v, m) == want, (v, m)
                    full = parse_outcome(is_full_branching, tree, v, 0.5, m)
                    assert full == parse_outcome(is_full_branching_oracle, tree, v, 0.5, m), (v, m)

    @given(query_trees)
    def test_subtrees_are_the_saturated_leaves_below(self, tree):
        for k in range(tree.max_depth + 1):
            for j in tree.array(k).tolist():
                got = subtree(tree, Vertex(k, j))
                assert_same_tree(got, subtree_oracle(tree, Vertex(k, j)))
                assert all(not got.array(n).flags.writeable for n in range(got.max_depth + 1))
                assert not validate(got)

    @pytest.mark.parametrize(
        "v, m",
        [
            (Vertex(-1, 0), -1),  # level and window both outside: the level is named
            (Vertex(5, 0), 9),
            (Vertex(2, 3), -1),  # unoccupied and window outside: occupancy is named
            (Vertex(2, 3), 3),
            (Vertex(2, 2), -1),
            (Vertex(2, 2), 3),
            ((2,), 1),  # bad arity
            ((2, 2, 0), 1),
            (Vertex(2, 2.5), 1),  # an index that is not an integer
            (Vertex(2, 2.0), 1),
            ((2.0, 2), 1),  # a plain pair is held to integers, booleans refused
            ((2, 2.0), 1),
            ((True, 0), 1),
            ((1.0, 0), 1),  # levels that are floats or booleans
            ((True, 1), 1),
            ((0, 0.0), 0),
            ((1, True), 1),
        ],
    )
    def test_refusals_keep_their_type_text_and_order(self, v, m):
        t = tree_from(4, [1, 5, 9])
        want = parse_outcome(descendant_count_oracle, t, v, m)
        assert want[0] in (ValueError, TypeError)
        assert parse_outcome(descendant_count, t, v, m) == want
        assert parse_outcome(is_full_branching, t, v, 0.5, m) == want
        assert parse_outcome(is_full_branching, t, v, 1.5, m) == (ValueError, "eps=1.5 outside [0, 1]")
        assert parse_outcome(subtree, t, v) == parse_outcome(subtree_oracle, t, v)
        if len(v) != 2:
            return
        # the level entry points hold a level, index or window to the integer rule
        for name, args in [("array", v[:1]), ("count", v[:1]),
                           ("descendant_starts", (v[0], m)), ("descendant_counts", (v[0], m))]:
            got = parse_outcome(getattr(t, name), *args)
            if isinstance(got[1], np.ndarray):
                got = ("ok", got[1].tolist())
            assert got == parse_outcome(level_query_oracle, t, name, *args), name


def _dump_levels(depth, span, levels):
    """A dyadic-tree v1 text listing each level verbatim, valid or not."""
    return f"dyadic-tree v1 depth={depth} span={span}\n" + "".join(
        f"{n}: {','.join(map(str, level))}\n" for n, level in enumerate(levels)
    )


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

    @pytest.mark.parametrize("header, message", [
        ("depth=-1 span=1", "negative depth -1"),
        ("depth=2 span=0", "span must be a positive integer, got 0"),
        ("depth=61 span=4", r"depth=61 span=4 is not a grid of under 2\^63 cells"),
    ])
    def test_header_follows_the_in_memory_grid_rule(self, header, message):
        with pytest.raises(ValueError, match=message):
            DyadicTree(*(int(tok.split("=")[1]) for tok in header.split()), [[0]])
        with pytest.raises(FormatError, match=message):
            loads_tree(f"dyadic-tree v1 {header}\n0: 0\n")

    def test_orphan_rejected_on_load(self):
        with pytest.raises(FormatError):
            loads_tree("dyadic-tree v1 depth=1 span=1\n0:\n1: 0\n")

    @pytest.mark.parametrize("level", ["0,x", "RUNS 0 x"])
    def test_non_numeric_index(self, level):
        with pytest.raises(FormatError):
            loads_tree(f"dyadic-tree v1 depth=1 span=1\n0: 0\n1: {level}\n")

    @pytest.mark.parametrize("level, quoted", [
        (",".join(map(str, range(100_000))) + ",x", "'x' at index 100000"),
        ("RUNS " + " ".join(map(str, range(100_000))) + " 5", "odd RUNS payload of 100001 numbers"),
        ("RUNS " + " ".join(map(str, range(100_000))) + " y" * 50_000, "'y' at index 100000"),
    ], ids=["list-bad-last-token", "runs-odd-payload", "runs-long-bad-tail"])
    def test_bad_level_message_is_short(self, level, quoted):
        with pytest.raises(FormatError) as err:
            loads_tree(f"dyadic-tree v1 depth=17 span=1\n17: {level}\n")
        assert quoted in str(err.value)
        assert len(str(err.value)) < 200

    def test_long_bad_token_is_clipped(self):
        with pytest.raises(FormatError) as err:
            loads_tree("dyadic-tree v1 depth=1 span=1\n0: 0\n1: 0," + "z" * 100_000 + "\n")
        assert str(err.value).startswith("non-integer token 'zzz")
        assert "(100002 characters) at index 1" in str(err.value)
        assert len(str(err.value)) < 200

    def test_mass_lines_skipped(self):
        t = loads_tree("dyadic-tree v1 depth=1 span=1\n0: 0\n1: 0\nmass 1 0 1.0\n")
        assert t.levels[1] == (0,)

    @given(leaf_sets)
    def test_round_trip(self, spec):
        depth, leaves = spec
        t = tree_from(depth, leaves)
        assert loads_tree(dumps_tree(t)) == t

    @given(leaf_inputs)
    def test_round_trip_is_byte_identical(self, spec):
        depth, span, leaves, _ = spec
        t = DyadicTree.from_leaves(depth, span, leaves)
        text = dumps_tree(t)
        back = loads_tree(text)
        assert back == t
        assert dumps_tree(back) == text
        assert not back.array(depth).flags.writeable

    # Mutations of the depth-3 tree with leaves 1 and 6, whose levels are
    # 0: 0 / 1: 0,1 / 2: 0,3 / 3: 1,6.
    MUTATIONS = {
        "orphan": {3: (1, 4, 6)},
        "childless": {2: (0, 1, 3)},
        "unsorted": {3: (6, 1)},
        "duplicate": {3: (1, 1, 6)},
        "out-of-range": {3: (1, 6, 8)},
        "inner-out-of-range": {2: (0, 3, 4)},
        "many-problems": {3: (1, 6, 9, 10, 11, 12, 13, 14)},
    }

    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutated_dump_names_validate_problems(self, name):
        levels = [(0,), (0, 1), (0, 3), (1, 6)]
        for n, level in self.MUTATIONS[name].items():
            levels[n] = level
        text = _dump_levels(3, 1, levels)
        problems = validate(DyadicTree(3, 1, levels))
        assert problems
        with pytest.raises(FormatError) as err:
            loads_tree(text)
        assert str(err.value) == "invalid tree: " + "; ".join(problems[:5])

    @pytest.mark.parametrize("index", [-1, 2**63, 2**64])
    def test_index_int64_cannot_hold_is_named(self, index):
        # a sign or a value of 2^63 or more is outside the grammar, so the
        # level is refused before any tree is built
        text = _dump_levels(3, 1, [(0,), (0, 1), (0, 3), (1, 6, index)])
        with pytest.raises(FormatError) as err:
            loads_tree(text)
        assert str(err.value) == f"index {index} outside a level of 8 cells"

    @given(
        leaf_inputs,
        st.integers(0, 7),
        st.lists(st.integers(-1, 2**64), max_size=6),
    )
    def test_load_accepts_exactly_what_validate_accepts(self, spec, level, body):
        depth, span, leaves, _ = spec
        levels = list(DyadicTree.from_leaves(depth, span, leaves).levels)
        n = level % (depth + 1)
        levels[n] = tuple(body)
        text = _dump_levels(depth, span, levels)
        unheld = next((j for j in body if not 0 <= j < 2**63), None)
        if unheld is not None:
            with pytest.raises(FormatError) as err:
                loads_tree(text)
            assert str(err.value) == f"index {unheld} outside a level of {span << n} cells"
            return
        problems = validate(DyadicTree(depth, span, levels))
        if not problems:
            assert loads_tree(text).levels == tuple(levels)
            return
        with pytest.raises(FormatError) as err:
            loads_tree(text)
        assert str(err.value) == "invalid tree: " + "; ".join(problems[:5])

    def test_runs_payload_charged_before_expansion(self):
        # 2^40 cells could never be expanded: the charge must refuse first.
        text = f"dyadic-tree v1 depth=40 span=1\n40: RUNS 0 {1 << 40}\n"
        with limit(1000), pytest.raises(ResourceLimitError, match="RUNS payload"):
            loads_tree(text)

    def test_runs_payloads_are_charged_level_by_level(self):
        # a full tree writes levels 2..8 as one run each, 508 cells in all:
        # each level is charged on its own, so a cap of 300 holds them
        tree = DyadicTree.from_leaves(8, 1, range(256))
        text = dumps_tree(tree)
        assert text.count("RUNS") == 7
        with limit(300):
            assert loads_tree(text) == tree
        with limit(255), pytest.raises(ResourceLimitError, match="^RUNS payload needs 256 cells, budget is 255$"):
            loads_tree(text)
        # a payload over the cap is refused before a bad level after it in the file
        head, _, rest = text.partition("0: 0\n")
        for bad in ("0: x", "0: 0 1", "9: 0"):
            with limit(255), pytest.raises(ResourceLimitError, match="needs 256 cells"):
                loads_tree(head + rest + bad + "\n")

    def test_indices_moved_across_a_level_boundary_are_refused(self):
        # read in level order these are the indices of the valid dump
        # 0: 0 / 1: 0,1 / 2: 0,3 / 3: 1,6; only the split between levels differs
        levels = [(0, 0), (1,), (0, 3), (1, 6)]
        problems = validate(DyadicTree(3, 1, levels))
        with pytest.raises(FormatError) as err:
            loads_tree(_dump_levels(3, 1, levels))
        assert str(err.value) == "invalid tree: " + "; ".join(problems[:5])


def _runs_of(level):
    """The maximal (start, length) runs of a sorted index tuple."""
    runs = []
    for j in level:
        if runs and runs[-1][0] + runs[-1][1] == j:
            runs[-1][1] += 1
        else:
            runs.append([j, 1])
    return runs


class TestTreeCodecOracle:
    """The array codec against the tuple encoder and decoder kept in conftest."""

    @given(leaf_inputs)
    @example((3, 1, [], "list"))  # empty
    @example((4, 1, [5], "list"))  # single leaf
    @example((5, 1, list(range(32)), "list"))  # full
    @example((4, 3, list(range(10, 40)) + [41, 45, 46], "list"))  # span > 1
    @example((0, 2, [1], "list"))  # depth 0
    @example((0, 3, [0, 1, 2], "list"))  # depth 0, full
    def test_dump_matches_oracle(self, spec):
        depth, span, leaves, _ = spec
        t = DyadicTree.from_leaves(depth, span, leaves)
        want = f"dyadic-tree v1 depth={depth} span={span}\n" + "".join(
            f"{n}: {encode_level_oracle(level)}".rstrip() + "\n" for n, level in enumerate(t.levels)
        )
        assert dumps_tree(t) == want

    @given(
        leaf_inputs,
        st.integers(0, 7),
        st.sampled_from(["split", "overlap", "reorder", "past-capacity", "arbitrary"]),
        st.data(),
    )
    def test_noncanonical_runs_load_as_validate_says(self, spec, level, mutation, data):
        depth, span, leaves, _ = spec
        tree = DyadicTree.from_leaves(depth, span, leaves)
        n = level % (depth + 1)
        cap = tree.capacity(n)
        runs = _runs_of(tree.levels[n])
        if mutation == "split":  # adjacent runs: the same level, not maximal
            cuts = [data.draw(st.integers(0, l - 1)) for _, l in runs]
            runs = [piece for (s, l), k in zip(runs, cuts)
                    for piece in ([[s, k], [s + k, l - k]] if k else [[s, l]])]
        elif mutation == "overlap" and runs:
            s, l = data.draw(st.sampled_from(runs))
            start = data.draw(st.integers(s, s + l - 1))
            runs.insert(data.draw(st.integers(0, len(runs))), [start, data.draw(st.integers(1, 3))])
        elif mutation == "reorder":
            runs = data.draw(st.permutations(runs))
        elif mutation == "past-capacity":
            runs.append([cap - data.draw(st.integers(0, 2)), data.draw(st.integers(1, 3))])
        elif mutation == "arbitrary":
            pair = st.tuples(st.integers(-1, cap + 1), st.integers(-1, cap + 1))
            runs = data.draw(st.lists(pair, max_size=6))
        body = " ".join(["RUNS"] + [f"{s} {l}" for s, l in runs])
        lines = dumps_tree(tree).splitlines()
        lines[n + 1] = f"{n}: {body}"
        text = "\n".join(lines) + "\n"
        try:
            levels = [tuple(decode_level_oracle(ln.partition(":")[2], span << k).tolist())
                      for k, ln in enumerate(lines[1:])]
        except FormatError as exc:
            with pytest.raises(FormatError) as err:
                loads_tree(text)
            assert str(err.value) == str(exc)
            return
        problems = validate(DyadicTree(depth, span, levels))
        if not problems:
            back = loads_tree(text)
            assert back.levels == tuple(levels)
            assert dumps_tree(back) == dumps_tree(DyadicTree(depth, span, levels))
            return
        with pytest.raises(FormatError) as err:
            loads_tree(text)
        assert str(err.value) == "invalid tree: " + "; ".join(problems[:5])

    def test_io_leaves_the_tuple_view_unbuilt(self, rng):
        t = random_tree(rng, 10, 0.6)
        text = dumps_tree(t)
        assert t._views == [None] * 11
        back = loads_tree(text)
        assert back._views == [None] * 11
        # the decoded arrays are the tree's levels, frozen as from_leaves freezes them
        assert not any(back.array(n).flags.writeable for n in range(11))
        with pytest.raises(ValueError):
            back.array(10)[0] = 1

    # Level n of "dyadic-tree v1 depth=3 span=1\n0: 0\n1: 0,1\n2: 0,1,3\n3: 1,2,3,6\n"
    # replaced; each text is the one validate() gave before the load check
    # ran on the decoded levels in place.
    @pytest.mark.parametrize("n, body, message", [
        (2, "0,1,2,3", "leaf-support: level 2 index 2 has no child"),
        (2, "RUNS 0 4", "leaf-support: level 2 index 2 has no child"),
        (2, "0,3", "parent-closure: level 3 index 2 has no parent; parent-closure: level 3 index 3 has no parent"),
        (2, "RUNS 0 1 3 1", "parent-closure: level 3 index 2 has no parent; parent-closure: level 3 index 3 has no parent"),
        (3, "2,1,3,6", "level 3: indices not strictly increasing at 1; leaf-support: level 2 index 0 has no child"),
        (3, "1,2,2,3,6", "level 3: indices not strictly increasing at 2"),
        (3, "RUNS 1 3 3 1 6 1", "level 3: indices not strictly increasing at 3"),
        (3, "1,2,3,8", "level 3: index 8 outside 0..7; parent-closure: level 3 index 8 has no parent; "
                       "leaf-support: level 2 index 3 has no child"),
        (2, "0,1,3,4", "level 2: index 4 outside 0..3; parent-closure: level 2 index 4 has no parent; "
                       "leaf-support: level 2 index 4 has no child"),
    ], ids=["extra-parent-list", "extra-parent-runs", "missing-parent-list", "missing-parent-runs",
            "unsorted-leaves", "repeated-leaf", "repeated-leaf-runs", "leaf-at-capacity", "parent-at-capacity"])
    def test_unsaturated_files_are_refused_as_validate_says(self, n, body, message):
        tree = DyadicTree.from_leaves(3, 1, [1, 2, 3, 6])
        lines = dumps_tree(tree).split("\n")
        assert lines[n + 1] != f"{n}: {body}"
        lines[n + 1] = f"{n}: {body}"
        assert parse_outcome(loads_tree, "\n".join(lines)) == (FormatError, "invalid tree: " + message)


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
            mask = bitmask_of(t.array(n), t.capacity(n))
            got = tuple(i for i in range(t.capacity(n)) if mask >> i & 1)
            assert got == t.levels[n]
