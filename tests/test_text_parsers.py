"""The decimal kernel behind grid and tree files, checked against the token
parsers it replaced (kept verbatim in conftest, behind a gate that states
the grammar): the same grids and levels from writer output and from
hand-formatted text, the same FormatError texts from bad files, and
bounded memory on a 10^6-cell grid.  Header fields, level labels and the
level and index of mass lines follow the same number rule."""

import re
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dimlab import DyadicTree, FormatError, GridSetD, dumps_grid, dumps_tree, grid_product, loads_grid, loads_tree
from dimlab import counting_measure, dumps_measure, loads_measure
from dimlab import io
from dimlab.io import _decimal_text, _decode_levels, _read_numbers

from conftest import (
    decode_level_oracle,
    dumps_grid_oracle,
    encode_level_oracle,
    loads_grid_oracle,
    parse_outcome,
    random_tree,
)

# numbers of 18, 19 and 20 digits, non-ASCII digits, signs and other tokens
# that int() reads or refuses, which the grammar refuses but for the digits
SPECIAL_TOKENS = [
    "9" * 18, "1" + "0" * 17, "1" + "0" * 18, "9" * 19, "9" * 20, "0" * 25 + "7",
    "٣", "１", "x", "-1", "+1", "1_0", "1.0",
]


ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spellings(value: int, blanks: bool) -> tuple[list[str], list[str]]:
    """value as a writer spells it and respelled: zero-padded and, where
    `blanks`, with blanks around it, which the number rule reads as value;
    with a sign, a `_` or Arabic-Indic digits, which int() reads as value
    and the rule refuses."""
    s = str(value)
    good = [s, "0" + s, "00" + s] + ([f" {s}", f"{s}\t", f" \t{s} "] if blanks else [])
    bad = ["+" + s, f"{s[0]}_{s[1:]}" if len(s) > 1 else f"0_{s}", s.translate(ARABIC)] + ["-0"] * (value == 0)
    return good, bad


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
    """What the decimal kernel should read from an ASCII text, by re: None
    unless every byte is a digit, a blank, a newline or sep and every
    number is below 2^63, which leading zeros leave any number of digits."""
    if set(text) - set("0123456789 \t\n" + sep):
        return None
    lines = [re.findall("[0-9]+", ln) for ln in text.split("\n")]
    if any(int(tok) >= 2**63 for ln in lines for tok in ln):
        return None
    return [int(tok) for ln in lines for tok in ln], [len(ln) for ln in lines]


@given(st.text(alphabet="0123456789 ,\n\tx", max_size=60), st.sampled_from([" ", ","]))
# tokens of 8, 9, 16, 17, 19 and 20 characters, about the kernel's 8-byte
# windows and its 19-digit rule, with and without leading zeros
@example("12345678 123456789\n1234567890123456,12345678901234567", ",")
@example("00000008 000000009\n0000000000000016,00000000000000017", ",")
@example("1234567890123456789", " ")
@example("0000000000000000019 01234567890123456789", " ")
@example("12345678901234567890", " ")
@example("18446744073709551621", " ")  # 2^64 + 5, which uint64 sums wrap to 5
# the ends of one and two windows; int64's end follows
@example("99999999 100000000 9999999999999999 10000000000000000", " ")
# numbers in the buffer's first and last bytes, and a lone newline
@example("1234567890 7", " ")
@example("5", ",")
@example("\n", " ")
@example("9" * 18, " ")
@example("9" * 19, " ")
@example("9223372036854775807", " ")
@example("9223372036854775808", ",")
@example("0" * 30 + "9223372036854775807\t1", " ")
@example("1" + "0" * 19, " ")
@example("", " ")
@example("\n\n", " ")
@example("00012 7\n\n 3  ", " ")
def test_kernel_matches_regex_tokens(text, sep):
    got = _read_numbers(text, sep)
    want = _tokens_by_regex(text, sep)
    if want is None:
        assert got is None
        return
    assert got[0].dtype == np.int64
    assert (got[0].tolist(), got[1].tolist()) == want


# -- grid files -------------------------------------------------------------


@st.composite
def grid_files(draw):
    """(grid, text): a grid of 1-3 dimensions, up to 19-digit coordinates,
    and its writer output."""
    d = draw(st.integers(1, 3))
    depth, span = draw(st.sampled_from([(0, 1), (3, 1), (5, 3), (12, 2), (40, 1), (58, 3), (61, 3)]))
    coord = st.integers(0, (span << depth) - 1)
    cells = draw(st.lists(st.tuples(*[coord] * d), max_size=30))
    grid = GridSetD(d, depth, span, cells)
    return grid, dumps_grid(grid)


@st.composite
def hand_grid_texts(draw):
    """Grid texts as a person might format them: blank lines, runs of
    spaces, tabs, CRLF ends, leading zeros, rows unsorted and repeated, long
    or non-ASCII tokens, now and then a wrong coordinate count, and header
    fields respelled."""
    d = draw(st.integers(1, 3))
    depth, span = draw(st.sampled_from([(0, 1), (3, 1), (5, 3), (58, 3), (61, 3)]))
    number = st.integers(0, span << depth).map(str)
    padded = st.tuples(st.sampled_from(["", "0", "000"]), number).map("".join)
    token = st.one_of(number, number, padded, st.sampled_from(SPECIAL_TOKENS))
    sep = st.sampled_from([" ", " ", "  ", "\t", " \t "])
    d_, depth_, span_ = (draw(st.sampled_from(sum(spellings(v, False), []))) if draw(st.integers(0, 5)) == 0
                         else str(v) for v in (d, depth, span))
    lines = [f"grid-set v1 d={d_} depth={depth_} span={span_}"]
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
    _same_outcome(("ok", loads_grid_oracle(text)), ("ok", grid))
    _same_outcome(parse_outcome(loads_grid, text), ("ok", grid))


@given(hand_grid_texts())
@example("grid-set v1 d=2 depth=3 span=1\n3 4\n1 2\n1 2\n\n   \n")
@example("grid-set v1 d=1 depth=58 span=3\n" + "0" * 3 + "864691128455135231\n")
@example("grid-set v1 d=1 depth=58 span=3\n864691128455135232\n")
@example("\n  \ngrid-set v1 d=2 depth=3 span=1\r\n1 2\r\n")
@example("grid-set v1 d=2 depth=3 span=1\n1 2\n٣ 2\n")
@example("grid-set v1 d=1 depth=3 span=1")
@example("grid-set v1 d=1 depth=3 span=1\rx\n")
@example("grid-set v1 d=1 depth=3 span=1\n\x0b7\n")
@example("grid-set v1 d=2 depth=3 span=1\n1 -0\n")
@example("grid-set v1 d=2 depth=3 span=1\n-1 2\n20 1\n")
@example("grid-set v1 d=1 depth=61 span=3\n6917529027641081855\n")
@example("grid-set v1 d=+1 depth=0_3 span=1\n1\n")
@example("grid-set v1 d=1 depth=٣ span=1\n1\n")
@example("grid-set v1 d=1 depth=-1 span=1\n1\n")
@example("grid-set v1 d=01 depth=003 span=1\n1\n")
def test_hand_formatted_text_parses_as_the_token_parser_does(text):
    _same_outcome(parse_outcome(loads_grid, text), parse_outcome(loads_grid_oracle, text))


def test_long_grid_files_take_the_kernel(rng, monkeypatch):
    cells = rng.integers(0, 1 << 12, size=(30_000, 2))
    text = "grid-set v1 d=2 depth=12 span=1\n" + "".join(f"{x} {y}\n" for x, y in cells)
    assert len(text) > 2 * io._BLOCK_BYTES
    want = loads_grid_oracle(text)
    assert loads_grid(text) == want
    monkeypatch.setattr(io, "_BLOCK_BYTES", 5)  # a block a line
    assert loads_grid(text) == want


def test_long_leading_zeros_take_linear_time():
    """Numbers of 10^6 digits, zeros but for the last: the kernel reads
    each number's last digits in at most three words and checks the digits
    above its last 19 by one running count, not a pass a digit, so a tree
    and a grid each holding some load in well under the bound (minutes at a
    pass a digit)."""
    zeros = "0" * 1_000_000
    start = time.perf_counter()
    assert loads_tree(f"dyadic-tree v1 depth=1 span=1\n0: {zeros}\n1: {zeros}1\n") == DyadicTree.from_leaves(1, 1, [1])
    assert loads_grid(f"grid-set v1 d=2 depth=3 span=1\n{zeros}5 {zeros}\n") == GridSetD(2, 3, 1, [(5, 0)])
    with pytest.raises(FormatError, match=r"^non-integer token '10000.*\(1000003 characters\) at index 0$"):
        loads_tree(f"dyadic-tree v1 depth=1 span=1\n0: 1{zeros}\n1: 1\n")
    with pytest.raises(FormatError, match=r"^non-integer token '0000.*\(1000004 characters\) at index 1$"):
        loads_grid(f"grid-set v1 d=2 depth=3 span=1\n5 {zeros}10\n")
    assert time.perf_counter() - start < 10.0


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
@example(("1 2,", 16))
@example(("0,1 2,", 16))
@example(("0,1\t 2", 16))
@example(("007,12", 16))
@example(("RUNS 0 " + "9" * 18 + " 0 " + "9" * 18, 3 << 58))
@example(("RUNS 0 " + "9" * 19, 3 << 58))
@example(("9223372036854775807,9223372036854775808", 3 << 58))
@example(("1,-0", 16))
@example(("RUNS 1 2\x0b3 4", 16))
@example(("RUNS\t1 2 ", 16))
def test_level_bodies_parse_as_the_token_parser_does(args):
    body, cap = args
    _same_outcome(parse_outcome(decode_level, body, cap), parse_outcome(decode_level_oracle, body, cap))


def decode_level(body: str, cap: int) -> np.ndarray:
    """One level body by _decode_levels, as level 0 of a span of cap cells."""
    return _decode_levels({0: body}, cap)[0]


@pytest.mark.parametrize("p", [0.6, 0.95])
def test_tree_files_round_trip_through_the_kernel(rng, p, monkeypatch):
    tree = random_tree(rng, 16, p)
    text = dumps_tree(tree)
    assert loads_tree(text) == tree
    monkeypatch.setattr(io, "_BLOCK_BYTES", 5)  # a block a line
    assert loads_tree(text) == tree


# -- bad files ---------------------------------------------------------------

GRID_HEAD = "grid-set v1 d=2 depth=4 span=1\n"
# good rows before the bad one, past the kernel's first block
GRID_PAD = "1 2\n" * (io._BLOCK_BYTES // 4 + 1)

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
    # the same fault after good numbers past the kernel's first block
    head, sep = ("RUNS ", " ") if body.startswith("RUNS") else ("", ",")
    good = sep.join(f"{8 * i}{sep}2" for i in range(io._BLOCK_BYTES // 4))
    long = head + good + sep + body.removeprefix(head)
    assert len(long) > io._BLOCK_BYTES
    for text in (body, long):
        want = parse_outcome(decode_level_oracle, text, 1 << 20)
        assert want[0] is FormatError
        _same_outcome(parse_outcome(decode_level, text, 1 << 20), want)


# -- header fields, level labels and mass lines -------------------------------

TREE = "dyadic-tree v1 depth=1 span=1\n0: 0\n1: 0\n"
MEASURE = TREE + "mass 0 0 1\nmass 1 0 1\n"
GRID = "grid-set v1 d=2 depth=3 span=1\n1 2\n"

BAD_FIELDS = [
    (loads_tree, TREE.replace("depth=1", "depth=+1"), "bad header fields: 'dyadic-tree v1 depth=+1 span=1'"),
    (loads_tree, TREE.replace("span=1", "span=1_0"), "bad header fields: 'dyadic-tree v1 depth=1 span=1_0'"),
    (loads_grid, GRID.replace("d=2", "d=٢"), "bad header fields: 'grid-set v1 d=٢ depth=3 span=1'"),
    (loads_grid, GRID.replace("depth=3", "depth=-1"), "negative depth -1"),
    (loads_tree, TREE.replace("\n1:", "\n+1:"), "bad level line: '+1: 0'"),
    (loads_tree, TREE.replace("\n1:", "\n1_0:"), "bad level line: '1_0: 0'"),
    (loads_tree, TREE.replace("\n1:", "\n٣:"), "bad level line: '٣: 0'"),
    (loads_tree, TREE.replace("\n1:", "\n-1:"), "unexpected level -1"),
    (loads_measure, MEASURE.replace("mass 1 0", "mass +1 0"), "bad mass line: 'mass +1 0 1'"),
    (loads_measure, MEASURE.replace("mass 1 0", "mass 1 0_0"), "bad mass line: 'mass 1 0_0 1'"),
    (loads_measure, MEASURE.replace("mass 1 0", "mass ١ 0"), "bad mass line: 'mass ١ 0 1'"),
    (loads_measure, MEASURE + "mass -1 0 1\n", "mass lines for unoccupied cells: [(-1, 0)]"),
    # a lone \r breaks no line: one mass line of six fields
    (loads_measure, MEASURE.replace("mass 1 0 1", "mass 1 0 1\rmass 1 1 1"), "bad mass line: 'mass 1 0 1\\rmass 1 1 1'"),
]


@pytest.mark.parametrize("parse, text, message", BAD_FIELDS, ids=[
    "header-plus", "header-underscore", "header-arabic-digit", "header-negative",
    "label-plus", "label-underscore", "label-arabic-digit", "label-negative",
    "mass-plus", "mass-underscore", "mass-arabic-digit", "mass-negative", "mass-lone-cr",
])
def test_bad_fields_keep_the_number_rule(parse, text, message):
    assert parse_outcome(parse, text) == (FormatError, message)


@pytest.mark.parametrize("parse, text, spelled", [
    (loads_tree, TREE, " \n\tdyadic-tree\tv1  depth=01 span=1 \n 0 :0\n\t001\t: 0\n"),
    (loads_grid, GRID, "grid-set v1 d=02 depth=003 span=1\r\n1 2\r\n"),
    (loads_measure, MEASURE, MEASURE.replace("mass 1 0 1", "mass  1\t00  1 ")),
    (loads_measure, MEASURE, MEASURE.replace("\n", "\r\n")),
], ids=["tree-blanks-zeros", "grid-zeros-crlf", "mass-blanks-zeros", "mass-crlf"])
def test_fields_take_blanks_zeros_and_crlf(parse, text, spelled):
    got, want = parse(spelled), parse(text)
    if parse is loads_measure:
        assert got.tree == want.tree and got._flat.tobytes() == want._flat.tobytes()
    else:
        assert got == want


@st.composite
def respelled_files(draw):
    """(parse, text, want, message): the writer output of a tree, a measure
    on it or a grid, one header field, level label or mass-line level or
    index respelled, with LF or CRLF ends; message is the FormatError text
    when the respelling breaks the number rule, else None."""
    depth, span = draw(st.sampled_from([(0, 1), (2, 1), (3, 2), (12, 1)]))
    tree = DyadicTree.from_leaves(depth, span, draw(st.lists(st.integers(0, (span << depth) - 1), min_size=1, max_size=6)))
    parse, want = draw(st.sampled_from([
        (loads_tree, tree), (loads_measure, counting_measure(tree)), (loads_grid, grid_product([tree, tree]))]))
    lines = {loads_tree: dumps_tree, loads_measure: dumps_measure, loads_grid: dumps_grid}[parse](want).split("\n")
    # (line, start, end, blanks may stand around it, what a refusal reads)
    fields = [(0, m.start(), m.end(), False, "bad header fields") for m in re.finditer("(?<==)[0-9]+", lines[0])]
    fields += [(i, 0, ln.index(":"), True, "bad level line") for i, ln in enumerate(lines[1:], 1) if ":" in ln]
    fields += [(i, m.start(), m.end(), True, "bad mass line") for i, ln in enumerate(lines)
               if ln.startswith("mass ") for m in re.finditer("(?<= )[0-9]+(?= )", ln)]
    i, a, b, blanks, refusal = draw(st.sampled_from(fields))
    good, bad = spellings(int(lines[i][a:b]), blanks)
    spelled = draw(st.sampled_from(good + bad))
    lines[i] = lines[i][:a] + spelled + lines[i][b:]
    message = f"{refusal}: {lines[i]!r}" if spelled in bad else None
    return parse, draw(st.sampled_from(["\n", "\r\n"])).join(lines), want, message


@given(respelled_files())
def test_header_fields_labels_and_mass_lines_follow_the_number_rule(args):
    parse, text, want, message = args
    got = parse_outcome(parse, text)
    if message is not None:
        assert got == (FormatError, message)
    elif parse is loads_measure:
        assert got[0] == "ok" and got[1].tree == want.tree and got[1]._flat.tobytes() == want._flat.tobytes()
    else:
        assert got == ("ok", want)


# -- the writer ----------------------------------------------------------------

# the edges of every digit count, and the ends of int64
WRITER_EDGES = [0, 9, 10, 99, 100, *(10**k + e for k in range(3, 19) for e in (-1, 0)), 2**63 - 1]
CUT = io._WRITE_MIN
WRITER_SEPS = [",", " ", "\n", " \n", "  \n"]  # level lists, RUNS pairs, grid rows of d = 1, 2, 3


def decimal_text_oracle(values, seps: str) -> str:
    """What _decimal_text should write, by "%d"."""
    values = [int(v) for v in values]
    if len(seps) == 1:
        return seps.join(["%d"] * len(values)) % tuple(values)
    d = len(seps)  # grid rows: d - 1 spaces, then a newline
    rows = [values[i : i + d] for i in range(0, len(values), d)]
    return "\n".join(" ".join(["%d"] * len(row)) % tuple(row) for row in rows)


@given(
    drawn=st.lists(st.one_of(st.sampled_from(WRITER_EDGES), st.integers(0, 2**63 - 1)), min_size=1, max_size=30),
    length=st.sampled_from([0, 1, 2, 3, CUT - 1, CUT, CUT + 1, 2 * CUT + 3]),
    seps=st.sampled_from(WRITER_SEPS),
    block=st.sampled_from([1, 5, 1 << 16]),
)
@example(drawn=WRITER_EDGES, length=CUT, seps=",", block=1 << 16)
@example(drawn=WRITER_EDGES, length=len(WRITER_EDGES), seps=" \n", block=1 << 16)
# zero middle groups in numbers that are no power of ten, where the lead
# and end offsets of the digit writer add up
@example(drawn=[10**8 + 1, 12 * 10**8 + 3456, 10**12 + 10**4], length=CUT, seps=",", block=1 << 16)
@example(drawn=[10**12 + 10**4, 5, 10**16 + 7, 10**8 + 1, 10**4], length=CUT + 1, seps="  \n", block=5)
@example(drawn=[9 * 10**12 + 1, 10**8 + 10**4 + 1, 12 * 10**8 + 3456], length=3, seps=" ", block=1)
def test_decimal_text_matches_percent_d(drawn, length, seps, block):
    values = np.resize(np.array(drawn, dtype=np.int64), length)
    want = decimal_text_oracle(values, seps)
    for cut in (CUT, 0):
        with mock.patch.object(io, "_WRITE_MIN", cut), mock.patch.object(io, "_ROW_BLOCK", block):
            assert _decimal_text(values, seps) == want


def writer_cases():
    rng = np.random.default_rng(21)
    trees = [
        DyadicTree.from_leaves(0, 1, [0]),
        DyadicTree.from_leaves(4, 1, []),
        DyadicTree.from_leaves(12, 3, np.arange(0, 3 << 12, 2)),
        DyadicTree.from_leaves(40, 1, [0, 9, 10, 99, 100, (1 << 40) - 1]),
        random_tree(rng, 14, 0.8),
        DyadicTree.from_leaves(13, 1, np.flatnonzero(rng.random(1 << 13) < 0.9)),
        DyadicTree.from_leaves(60, 4, rng.integers(1 << 61, 1 << 62, 3000)),
    ]
    grids = [GridSetD(d, 0, 1, []) for d in (1, 2, 3)] + [
        GridSetD(1, 10, 1, rng.choice(1 << 10, (900, 1), replace=False)),
        grid_product([DyadicTree.from_leaves(11, 1, rng.choice(1 << 11, 50, replace=False))] * 2),
        GridSetD(3, 20, 4, rng.integers(0, 4 << 20, (700, 3))),
        GridSetD(2, 61, 3, [[0, 0], [10**18, 2**62], [(3 << 61) - 1, 99]]),
    ]
    return trees, grids


def dumps_tree_oracle(tree) -> str:
    lines = [f"dyadic-tree v1 depth={tree.max_depth} span={tree.span}"]
    lines += [f"{n}: {encode_level_oracle(tree.levels[n])}".rstrip() for n in range(tree.max_depth + 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("cut", [0, 1 << 62])
def test_dumps_keep_their_bytes_on_either_writer(cut):
    trees, grids = writer_cases()
    want = [dumps_tree(t) for t in trees] + [dumps_grid(g) for g in grids]
    assert want == [dumps_tree_oracle(t) for t in trees] + [dumps_grid_oracle(g) for g in grids]
    assert [loads_tree(text) for text in want[: len(trees)]] == trees
    assert [loads_grid(text) for text in want[len(trees) :]] == grids
    with mock.patch.object(io, "_WRITE_MIN", cut):
        assert [dumps_tree(t) for t in trees] + [dumps_grid(g) for g in grids] == want


@pytest.mark.parametrize(
    "level",
    [
        [-5, -4, -3, *(10 * i + j for i in range(CUT // 2) for j in range(3))],  # RUNS -5 3 ...
        [-5, *range(10, 20 * CUT, 20)],  # a comma list led by -5
        [*range(0, 2 * CUT, 2), 2**64 + 1],  # past int64: an object array
    ],
    ids=["runs", "list", "object"],
)
def test_hand_built_levels_keep_percent_d(level):
    # the constructor trusts its input; a long level the digit writer cannot
    # take is written by "%d", so loads_tree refuses it rather than reading
    # another tree; "%d" keeps no pattern as long as the level
    tree = DyadicTree(2, 1, [[0], [0], level])
    with mock.patch.dict(io._PATTERNS, clear=True):
        text = dumps_tree(tree)
        assert all(len(pattern) < 6 * len(seps) * CUT for seps, pattern in io._PATTERNS.items())
    assert text == dumps_tree_oracle(tree)
    with pytest.raises(FormatError):
        loads_tree(text)


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
