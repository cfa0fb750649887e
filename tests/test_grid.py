"""GridSetD as one sorted cell array, checked against set, np.unique,
per-level lexsort and per-row oracles: the constructor, the split-level
index behind the grid estimators, and grid I/O."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dimlab import (
    FormatError,
    ResourceLimitError,
    GridSetD,
    assouad_estimate,
    box_estimate,
    dumps_grid,
    loads_grid,
    lower_estimate,
)

from dimlab.budget import limit

from conftest import (
    dumps_grid_oracle,
    grid_count_oracle,
    grid_descendants_lexsort_oracle,
    grid_descendants_oracle,
    grid_level_lexsort_oracle,
)


@st.composite
def grid_inputs(draw):
    """(d, depth, span, cells): a product of per-axis sets or a free list
    with repeats, in drawn order, possibly empty."""
    d, depth, span = draw(st.tuples(st.integers(1, 3), st.integers(0, 6), st.integers(1, 3)))
    coord = st.integers(0, (span << depth) - 1)
    if draw(st.booleans()):
        axes = [draw(st.lists(coord, max_size=5, unique=True)) for _ in range(d)]
        cells = [tuple(c) for c in np.array(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T.tolist()]
    else:
        cells = draw(st.lists(st.tuples(*[coord] * d), max_size=40))
    return d, depth, span, draw(st.permutations(cells))


EMPTY = (2, 4, 1, [])
SINGLETON = (3, 5, 2, [(63, 0, 17)])
# a 3-d grid of (3 * 2^40)^3 cells: mixed-radix cell codes would overflow int64
DEEP = (3, 40, 3, [((3 << 40) - 1, 0, 5), (0, (3 << 40) - 1, 5), (1 << 40, 1 << 40, 1 << 41), (0, 0, 5)])
# a 3-d grid whose coordinates reach bit 62: its Morton order takes 3 sort keys
TOP = (3 << 61) - 1
BIT62 = (3, 61, 3, [(TOP, 0, 1 << 62), (1 << 62, TOP, 5), (0, 0, 0), (1, 1 << 62, 7), (TOP - 1, 1, TOP), (TOP, 0, 1)])


@given(grid_inputs())
@example(EMPTY)
@example(SINGLETON)
@example(DEEP)
def test_constructor_matches_sorted_set(args):
    d, depth, span, cells = args
    g = GridSetD(d, depth, span, cells)
    assert g.cells == tuple(sorted(set(cells)))
    assert g.array().dtype == np.int64 and g.array().shape == (len(g.cells), d)
    assert not g.array().flags.writeable
    assert GridSetD(d, depth, span, np.array(cells, dtype=np.int64).reshape(-1, d)) == g


@given(grid_inputs())
@example(EMPTY)
@example(SINGLETON)
@example(DEEP)
def test_dumps_matches_per_row_formatter(args):
    g = GridSetD(*args)
    assert dumps_grid(g) == dumps_grid_oracle(g)


@given(grid_inputs())
@example(EMPTY)
@example(SINGLETON)
@example(DEEP)
def test_loads_inverts_dumps(args):
    g = GridSetD(*args)
    back = loads_grid(dumps_grid(g))
    assert back == g and back.cells == g.cells


@given(grid_inputs())
@example(EMPTY)
@example(SINGLETON)
@example(DEEP)
def test_box_matches_oracle(args):
    g = GridSetD(*args)
    d, depth, span, _ = args
    if depth == 0:
        return
    if not g.cells:
        with pytest.raises(ValueError):
            box_estimate(g, 1, depth)
        return
    want = tuple((n, math.log2(grid_count_oracle(g, n)) - d * math.log2(span)) for n in range(1, depth + 1))
    for variant in ("upper", "lower"):
        assert box_estimate(g, 1, depth, variant).per_scale == want


@given(grid_inputs())
@example(EMPTY)
@example(SINGLETON)
@example(DEEP)
def test_local_estimates_match_oracle(args):
    g = GridSetD(*args)
    depth = args[1]
    for m in range(1, depth + 1):
        if not g.cells:
            for estimate in (assouad_estimate, lower_estimate):
                with pytest.raises(ValueError):
                    estimate(g, m)
            continue
        counts = grid_descendants_oracle(g, m)
        assert assouad_estimate(g, m).per_scale == tuple(
            (k, math.log2(int(c.max()))) for k, c in enumerate(counts)
        )
        assert lower_estimate(g, m).per_scale == tuple(
            (k, math.log2(int(c.min()))) for k, c in enumerate(counts)
        )


@given(grid_inputs())
@example(EMPTY)
@example(SINGLETON)
@example(DEEP)
@example(BIT62)
def test_index_counts_match_oracles(args):
    g = GridSetD(*args)
    depth = args[1]
    for n in range(depth + 1):
        assert g.count(n) == grid_count_oracle(g, n) == len(grid_level_lexsort_oracle(g, n))
    for m in range(depth + 1):
        for k, want in enumerate(grid_descendants_oracle(g, m)):
            got = g.descendant_counts(k, m)
            assert got.dtype == np.int64
            assert sorted(got.tolist()) == sorted(want.tolist())
            assert sorted(got.tolist()) == sorted(grid_descendants_lexsort_oracle(g, k, m).tolist())


def test_index_is_charged_before_it_is_built():
    g = GridSetD(2, 4, 1, [(0, 0), (3, 5), (15, 15)])
    with limit(0):
        assert g.count(4) == 3  # the finest level reads no index
    with limit(2), pytest.raises(ResourceLimitError, match="grid index needs 3 cells"):
        g.count(2)
    with limit(3):
        assert g.count(2) == grid_count_oracle(g, 2) == 3
    with limit(0):
        assert g.descendant_counts(0, 1).tolist() == [2]  # built once, then kept


@pytest.mark.parametrize("depth, span, message", [
    (70, 1, r"^depth=70 span=1 is not a grid of under 2\^63 cells$"),
    (3, True, "^depth and span must be integers"),
    (3, 2.0, "^depth and span must be integers"),
    (-1, 1, "^negative depth -1$"),
    (3, 0, "^span must be a positive integer, got 0$"),
])
def test_constructor_builds_only_grids_files_can_hold(depth, span, message):
    # the first two used to build grids whose dumps loads_grid refuses
    with pytest.raises(ValueError, match=message):
        GridSetD(1, depth, span, [[0]])


def test_level_queries_reject_levels_outside_the_grid():
    g = GridSetD(2, 3, 1, [(1, 2), (5, 6)])
    for bad in (lambda: g.count(4), lambda: g.count(-1), lambda: g.descendant_counts(0, 4),
                lambda: g.descendant_counts(2, -1)):
        with pytest.raises(ValueError, match="outside 0..3"):
            bad()


@pytest.mark.parametrize(
    "d, cells",
    [
        (1, ((1.7,),)),
        (2, ((True, 2),)),
        (1, (("1",),)),
        (1, np.array([[1.0]])),
        (1, np.array([[True]])),
    ],
    ids=["float", "bool-with-int", "str", "float-array", "bool-array"],
)
def test_non_integer_coordinates_rejected(d, cells):
    # these were truncated to integers when cells were normalized with int()
    with pytest.raises(ValueError, match="integers"):
        GridSetD(d, 2, 1, cells)


@pytest.mark.parametrize("line, quoted", [
    ("0 1 " + "x" * 100_000, "... (100002 characters) at index 2"),
    ("1 " + "2" * 100_000, "expected 3 coordinates: '1 222"),
    ("1 1 " + "9" * 4_000, "cell (1, 1, 999"),
], ids=["bad-last-token", "short-line", "cell-outside-grid"])
def test_bad_line_message_is_short(line, quoted):
    with pytest.raises(FormatError) as err:
        loads_grid(f"grid-set v1 d=3 depth=4 span=1\n{line}\n")
    assert quoted in str(err.value)
    assert len(str(err.value)) < 200


def test_dimension_is_refused_before_the_body():
    with pytest.raises(FormatError, match=r"^dimension 100001 not in \{1, 2, 3\}$"):
        loads_grid("grid-set v1 d=100001 depth=4 span=1\nx y\n")


def test_bad_last_cell_message_is_short():
    # 100,000 one-coordinate lines, the last of them not an integer
    text = "grid-set v1 d=1 depth=17 span=1\n" + "\n".join(map(str, range(100_000))) + "\n7x\n"
    with pytest.raises(FormatError) as err:
        loads_grid(text)
    assert str(err.value) == "non-integer token '7x' at index 0"
