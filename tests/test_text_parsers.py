"""The decimal kernel behind grid and tree files, checked against the token
parsers it falls back to (kept verbatim in conftest): the same grids and
levels from writer output and from hand-formatted text, the same
FormatError texts from bad files, and bounded memory on a 10^6-cell grid."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dimlab import DyadicTree, FormatError, GridSetD, dumps_grid, dumps_tree, grid_product, loads_grid, loads_tree
from dimlab.arithmetic import _kernel_grid
from dimlab.dyadic import _KERNEL_MIN_CHARS, _decimal_tokens, _decode_level

from conftest import (
    decode_level_oracle,
    dumps_grid_oracle,
    kernel_for_every_size,
    loads_grid_oracle,
    parse_outcome,
    random_tree,
)

# numbers of 18, 19 and 20 digits, non-ASCII digits, signs and other tokens
# that int() reads or refuses
SPECIAL_TOKENS = [
    "9" * 18, "1" + "0" * 17, "1" + "0" * 18, "9" * 19, "9" * 20, "0" * 25 + "7",
    "٣", "１", "x", "-1", "+1", "1_0", "1.0",
]


def _same_outcome(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    got, want = got[1], want[1]
    if isinstance(want, GridSetD):
        assert got == want
        got, want = got.array(), want.array()
        assert not got.flags.writeable
    assert got.dtype == want.dtype and np.array_equal(got, want)


# -- the kernel -----------------------------------------------------------


def _tokens_by_regex(text: str, sep: str):
    """What _decimal_tokens should return for an ASCII text, by re."""
    if set(text) - set("0123456789\n" + sep):
        return None
    lines = [re.findall("[0-9]+", ln) for ln in text.split("\n")]
    if any(len(tok) > 18 for ln in lines for tok in ln):
        return None
    return [int(tok) for ln in lines for tok in ln], [len(ln) for ln in lines]


@given(st.text(alphabet="0123456789 ,\n\tx", max_size=60), st.sampled_from([" ", ","]))
@example("9" * 18, " ")
@example("9" * 19, " ")
@example("", " ")
@example("\n\n", " ")
@example("00012 7\n\n 3  ", " ")
def test_kernel_matches_regex_tokens(text, sep):
    got = _decimal_tokens(np.frombuffer(text.encode("ascii"), dtype=np.uint8), sep)
    want = _tokens_by_regex(text, sep)
    if want is None:
        assert got is None
        return
    assert got[0].dtype == np.int64
    assert (got[0].tolist(), got[1].tolist()) == want


# -- grid files -------------------------------------------------------------


@st.composite
def grid_files(draw):
    """(grid, text): a grid of 1-3 dimensions, up to 18-digit coordinates,
    and its writer output."""
    d = draw(st.integers(1, 3))
    depth, span = draw(st.sampled_from([(0, 1), (3, 1), (5, 3), (12, 2), (40, 1), (58, 3)]))
    coord = st.integers(0, (span << depth) - 1)
    cells = draw(st.lists(st.tuples(*[coord] * d), max_size=30))
    grid = GridSetD(d, depth, span, cells)
    return grid, dumps_grid(grid)


@st.composite
def hand_grid_texts(draw):
    """Grid texts as a person might format them: blank lines, runs of
    spaces, tabs, CRLF ends, leading zeros, rows unsorted and repeated, long
    or non-ASCII tokens, and now and then a wrong coordinate count."""
    d = draw(st.integers(1, 3))
    depth, span = draw(st.sampled_from([(0, 1), (3, 1), (5, 3), (58, 3), (61, 3)]))
    number = st.integers(0, span << depth).map(str)
    padded = st.tuples(st.sampled_from(["", "0", "000"]), number).map("".join)
    token = st.one_of(number, number, padded, st.sampled_from(SPECIAL_TOKENS))
    sep = st.sampled_from([" ", " ", "  ", "\t", " \t "])
    lines = [f"grid-set v1 d={d} depth={depth} span={span}"]
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        count = d if draw(st.integers(0, 7)) else draw(st.integers(0, 4))
        row = draw(sep).join(draw(token) for _ in range(count))
        lines.append(draw(st.sampled_from(["", " "])) + row + draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    lead = draw(st.sampled_from(["", "\n", "  \n"]))
    return lead + end.join(lines) + draw(st.sampled_from(["", end]))


@given(grid_files())
def test_writer_output_takes_the_kernel(args):
    grid, text = args
    assert text == dumps_grid_oracle(grid)
    back = _kernel_grid(text)
    assert back is not None
    _same_outcome(("ok", back), ("ok", loads_grid_oracle(text)))
    _same_outcome(parse_outcome(loads_grid, text), ("ok", grid))


@given(hand_grid_texts())
@example("grid-set v1 d=2 depth=3 span=1\n3 4\n1 2\n1 2\n\n   \n")
@example("grid-set v1 d=1 depth=58 span=3\n" + "0" * 3 + "864691128455135231\n")
@example("grid-set v1 d=1 depth=58 span=3\n864691128455135232\n")
@example("\n  \ngrid-set v1 d=2 depth=3 span=1\r\n1 2\r\n")
@example("grid-set v1 d=2 depth=3 span=1\n1 2\n٣ 2\n")
@example("grid-set v1 d=1 depth=3 span=1")
@example("grid-set v1 d=1 depth=3 span=1\rx\n")
def test_hand_formatted_text_parses_as_the_token_parser_does(text):
    with kernel_for_every_size():
        got = parse_outcome(loads_grid, text)
    _same_outcome(got, parse_outcome(loads_grid_oracle, text))


def test_long_grid_files_take_the_kernel(rng):
    cells = rng.integers(0, 1 << 12, size=(3000, 2))
    text = "grid-set v1 d=2 depth=12 span=1\n" + "".join(f"{x} {y}\n" for x, y in cells)
    assert len(text) > _KERNEL_MIN_CHARS
    assert _kernel_grid(text) == loads_grid(text) == loads_grid_oracle(text)


# -- tree levels ------------------------------------------------------------


@st.composite
def level_bodies(draw):
    """(body, cap): comma lists and RUNS payloads, well formed or not."""
    cap = draw(st.sampled_from([1, 16, 1 << 20, 3 << 58]))
    number = st.integers(0, cap + 1).map(str)
    token = st.one_of(number, number, number, st.sampled_from(SPECIAL_TOKENS))
    count = draw(st.integers(0, 12))
    if draw(st.booleans()):
        body = draw(st.sampled_from([",", ",", ", "])).join(draw(token) for _ in range(count))
    else:
        sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
        body = draw(st.sampled_from(["RUNS", "RUNS", "RUNS "])) + sep + sep.join(draw(token) for _ in range(count))
    return draw(st.sampled_from(["", " "])) + body, cap


@given(level_bodies())
@example(("RUNS", 16))
@example(("RUNS5 3", 16))
@example(("RUNS 0 4 7", 16))
@example(("RUNS 0 4 14 3", 16))
@example(("RUNS 3 0", 16))
@example(("1,,2", 16))
@example(("1, 2", 16))
@example(("007,12", 16))
@example(("RUNS 0 " + "9" * 18 + " 0 " + "9" * 18, 3 << 58))
def test_level_bodies_parse_as_the_token_parser_does(args):
    body, cap = args
    with kernel_for_every_size():
        got = parse_outcome(_decode_level, body, cap)
    _same_outcome(got, parse_outcome(decode_level_oracle, body, cap))


@pytest.mark.parametrize("p", [0.6, 0.95])
def test_tree_files_round_trip_through_the_kernel(rng, p):
    tree = random_tree(rng, 16, p)
    text = dumps_tree(tree)
    assert any(len(ln) > _KERNEL_MIN_CHARS for ln in text.splitlines())
    assert loads_tree(text) == tree
    with kernel_for_every_size():
        assert loads_tree(text) == tree


# -- bad files ---------------------------------------------------------------

GRID_HEAD = "grid-set v1 d=2 depth=4 span=1\n"
# enough good rows before the bad one that the kernel reads the file first
GRID_PAD = "1 2\n" * (_KERNEL_MIN_CHARS // 4)

BAD_GRIDS = [
    ("1 2 3\n", "expected 2 coordinates: '1 2 3'"),
    ("\n7\n", "expected 2 coordinates: '7'"),
    ("1 x\n", "non-integer token 'x' at index 1"),
    ("1 ٣x\n", "non-integer token '٣x' at index 1"),
    ("1 16\n", "cell (1, 16) outside the 16^d grid"),
    ("1 1000000000000000000\n", "cell (1, 1000000000000000000) outside the 16^d grid"),
    ("1 99999999999999999999\n", "cell (1, 99999999999999999999) outside the 16^d grid"),
    ("-1 2\n", "cell (-1, 2) outside the 16^d grid"),
]


@pytest.mark.parametrize("line, message", BAD_GRIDS)
@pytest.mark.parametrize("pad", ["", GRID_PAD], ids=["short", "long"])
def test_bad_grid_files_keep_their_messages(line, message, pad):
    text = GRID_HEAD + pad + line
    for parse in (loads_grid, loads_grid_oracle):
        with pytest.raises(FormatError) as err:
            parse(text)
        assert str(err.value) == message
    with kernel_for_every_size(), pytest.raises(FormatError) as err:
        loads_grid(text)
    assert str(err.value) == message


BAD_LEVELS = [
    ("RUNS 0 4 7", "odd RUNS payload of 3 numbers"),
    ("RUNS 0 4 1048575 3", "run (1048575, 3) outside a level of 1048576 cells"),
    ("RUNS 0 4 9000 0", "run (9000, 0) outside a level of 1048576 cells"),
    ("RUNS 0 4 9000 99999999999999999999", "run (9000, 99999999999999999999) outside a level of 1048576 cells"),
    ("RUNS 0 4 9000 x", "non-integer token 'x' at index 3"),
    ("0,4,x", "non-integer token 'x' at index 2"),
    ("0,4,99999999999999999999,x", "non-integer token 'x' at index 3"),
]


@pytest.mark.parametrize("body, message", BAD_LEVELS)
def test_bad_levels_keep_their_messages(body, message):
    assert parse_outcome(decode_level_oracle, body, 1 << 20) == (FormatError, message)
    # the same fault after enough good numbers that the kernel reads it first
    head, sep = ("RUNS ", " ") if body.startswith("RUNS") else ("", ",")
    good = sep.join(f"{8 * i}{sep}2" for i in range(_KERNEL_MIN_CHARS // 4))
    long = head + good + sep + body.removeprefix(head)
    assert len(long) > _KERNEL_MIN_CHARS
    for text in (body, long):
        want = parse_outcome(decode_level_oracle, text, 1 << 20)
        assert want[0] is FormatError
        _same_outcome(parse_outcome(_decode_level, text, 1 << 20), want)
        with kernel_for_every_size():
            _same_outcome(parse_outcome(_decode_level, text, 1 << 20), want)


# -- memory --------------------------------------------------------------------


def test_million_cell_grid_io_is_bounded():
    """A 10^6-cell planar grid (a text of about 9 MB) dumps with a traced
    peak under 40 MB and loads under 80 MB; formatting the whole text at
    once peaked at 93 MB, and splitting it into Python tokens at 380 MB."""
    rng = np.random.default_rng(5)
    axes = [DyadicTree.from_leaves(12, 1, rng.choice(1 << 12, 1000, replace=False)) for _ in range(2)]
    grid = grid_product(axes)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        text = dumps_grid(grid)
        dump_s = time.perf_counter() - start
        dump_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        back = loads_grid(text)
        load_s = time.perf_counter() - start
        load_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert back == grid
    assert len(text) > 8_000_000
    assert dump_peak < 40e6, dump_peak
    assert load_peak < 80e6, load_peak
    print(f"dump {dump_s:.2f} s, peak {dump_peak / 1e6:.1f} MB; load {load_s:.2f} s, peak {load_peak / 1e6:.1f} MB")
