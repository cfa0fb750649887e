"""Every text format of dimlab, and small I/O helpers: atomic writes,
deterministic JSON, JSON integers and keys.

On-disk tree format ("dyadic-tree v1")::

    dyadic-tree v1 depth=<n> span=<B>
    0: 0
    1: 0,1
    2: RUNS 0 4

One line per level.  A level is either a comma-separated sorted index list or
``RUNS`` followed by (start, length) pairs of maximal runs; the writer picks
whichever is shorter, so round trips are byte-exact.  A measure file adds one
"mass <level> <index> <mass>" line per cell; a grid file, "grid-set v1
d=<d> depth=<n> span=<B>", holds one line of d coordinates per cell.

Level lists and grid rows are written by one numpy digit writer,
_decimal_text, four digits a pass from a table of four-digit groups, and
read by one decimal kernel, _decimal_tokens, whose passes run over the
numbers, not one over the bytes per digit place: it reads each number's
last eight bytes as one word and sums its digits with three
multiply-shift-mask steps.  The grammar: lines break at newlines (a \\r
before one is dropped) and lines of blanks (spaces, tabs) are skipped; a
number is ASCII digits whose value lies inside the grid, blanks around it;
level lists separate numbers by commas, RUNS payloads and grid rows by
blanks.  What the kernel refuses, one routine per format words, and it
never returns a level or a grid.  loads_tree keeps the levels it decoded as
the tree once it has checked them in place to be the saturation of their
deepest level.  Header fields, level labels and the level and index of mass
lines follow the same number rule, by _token_ints, with plain digits read
by int() at once (_plain_int).
"""

from __future__ import annotations

import json
import os
import re
import secrets
from itertools import accumulate
from typing import NoReturn

import numpy as np

from .arithmetic import GridSetD, _distinct_rows, _increasing_rows
from .budget import charge
from .dyadic import DyadicTree, _check_grid, _dedupe_sorted, _expand_runs, validate
from .errors import FormatError, SpecValidationError
from .measures import TreeMeasure


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see
    a partial file and a failed run leaves the target untouched.  The temp
    file is made with mode 0o666 less the umask, as open() makes a file
    (tempfile.mkstemp would give 0o600), and the rename gives the target
    that mode."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    while True:
        tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_text(path) -> str:
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, so `true` would pass as 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(data: dict, allowed, what: str) -> None:
    """Refuse a key of `data` outside `allowed`, naming the first one."""
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise SpecValidationError(f"{what} has unknown key {unknown[0]!r}")


# -- numbers --------------------------------------------------------------


def _clip(text: str, limit: int = 80) -> str:
    """text, cut after `limit` characters when longer, so that an error
    message quoting its input stays short."""
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


_INT64_END = 1 << 63  # no grid has this many cells, so no number read reaches it
_BLOCK_BYTES = 1 << 17  # text the decimal kernel reads at once, cut at a newline
_PAD = b" " * 8  # blanks before a block: the 8 bytes that end any number lie in it
# _KEEP[k]: the top k bytes of a little-endian word, each cut to its low
# nibble, so "0"-"9" read 0-9: the last k digits of the number that ends
# the word, and none of the bytes before it
_KEEP = np.array([0x0F0F0F0F0F0F0F0F << 8 * (8 - k) & (1 << 64) - 1 for k in range(9)], dtype=np.uint64)
# Step j of _word_values: the mask that keeps the groups of 2^j digits
# before it, then the multiply and shift that join each pair of groups
_SWAR = tuple(tuple(map(np.uint64, step)) for step in (
    (0, 2561, 8), (0x00FF00FF00FF00FF, 6553601, 16), (0x0000FFFF0000FFFF, 42949672960001, 32)))


def _word_values(w: np.ndarray, places: int) -> np.ndarray:
    """In place, the uint64 words w, each of 8 digit values (0-9) with the
    most significant byte first in memory and none but its top `places`
    (at most 8) nonzero, as the numbers they spell.  Step j joins each two
    neighbouring groups of 2^j digits, 10^(2^j) times the first plus the
    second, so ceil(log2(places)) steps leave the number in the word's top
    8 * 2^steps bits, which the last shift brings down (Langdale & Lemire's
    eight-digit SWAR parse)."""
    steps = max(places - 1, 0).bit_length()
    for j in range(steps):
        mask, mul, shift = _SWAR[j]
        if j:
            w &= mask
        w *= mul
        w >>= shift + (64 - (8 << steps) if j == steps - 1 else 0)
    if not steps:
        w >>= 56
    return w


def _decimal_tokens(block: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """The decimal numbers in a block of digits, separators and newlines,
    led by 8 blanks and ended by one, as int64 values in order, and how
    many of them each of its newline-separated lines holds; None unless
    every number is below 2^63.

    The kernel works per number, not per digit place.  The separators,
    blanks and newlines all lie below "0", so one compare finds the digits
    and one more the edges of each run of them; the blanks around the block
    make those edges pair up.  The 8 bytes that end each number are read as
    one little-endian word from a 1-byte-stride view of the block and
    masked to the number's digits, each cut to its low nibble (subtracting
    "0" would borrow across the blanks before a short number), then summed
    by _word_values; a number of 9-16 characters takes a second word, 8
    bytes further up, and a longer one a third.  A number of more than 19
    characters must hold only zeros above its last 19, which one running
    count of nonzero digits checks, so the cost stays linear in the text
    however long its numbers; then no sum passes 10^19 < 2^64, and a number
    of 19 characters or more is compared with 2^63."""
    buf = np.frombuffer(block, dtype=np.uint8)
    digit = buf >= 48
    edge = np.flatnonzero(digit[1:] != digit[:-1])  # the byte before each number, and its last digit
    before, last = edge[0::2], edge[1::2]
    size = last - before
    longest = int(size.max(initial=0))
    words = np.ndarray((buf.size - 7,), "<u8", block, 0, (1,))  # words[i]: bytes i..i+7
    value = _word_values(words.take(last - 7) & _KEEP.take(size, mode="clip"), min(longest, 8))
    for k in range(8, min(longest, 24), 8):  # the digits 8 and 16 places up
        w = words.take(last - (7 + k), mode="clip") & _KEEP.take(size - k, mode="clip")
        value += _word_values(w, min(longest - k, 8)) * 10**k
    if longest > 19:
        nonzero = np.cumsum(buf > 48)
        long = size > 19
        if (nonzero[last[long] - 19] != nonzero[before[long]]).any():
            return None
    if longest >= 19 and value.max() >= _INT64_END:
        return None
    cuts = np.concatenate(([0], last.searchsorted(np.flatnonzero(buf == 10)), [last.size]))
    return value.view(np.int64), cuts[1:] - cuts[:-1]


def _number_blocks(text: str, sep: str, start: int = 0):
    """_decimal_tokens of text[start:], block by block, each block about
    _BLOCK_BYTES of whole lines, padded with _PAD in front and a blank
    behind, or None for a block holding a byte that is not a digit, a
    blank, `sep` or a newline (a non-ASCII character reads as "?")."""
    data = text.encode("ascii", "replace")
    allowed = b"0123456789 \t\n" + sep.encode()
    while True:
        end = data.find(b"\n", start + _BLOCK_BYTES)
        block = data[start : len(data) if end < 0 else end]
        yield None if block.translate(None, allowed) else _decimal_tokens(b"".join((_PAD, block, b" ")))
        if end < 0:
            return
        start = end + 1


def _read_numbers(text: str, sep: str) -> tuple[np.ndarray, np.ndarray] | None:
    """_decimal_tokens of a whole text by _number_blocks, or None."""
    blocks = list(_number_blocks(text, sep))
    if None in blocks:
        return None
    return blocks[0] if len(blocks) == 1 else tuple(map(np.concatenate, zip(*blocks)))


# Numbers from which _decimal_text writes digits in numpy rather than by
# "%d".  Timed (numpy 2.4.6, 2 cores) on sorted indices below 2^20, "%d"
# against the writer: 33 against 36 us for 384 numbers, they cross near
# 450, 43 against 40 us for 512 and 5.6 against 1.6 ms for 65,536; on
# 4-digit grid rows they cross near 350 numbers.
_WRITE_MIN = 1 << 9
_ROW_BLOCK = 1 << 16  # numbers written at once


def _digit_quads() -> np.ndarray:
    """Four ASCII digits per uint32, in memory order.  Entries 0-9999 are
    the groups "0000".."9999"; 10000-19999 the same groups leading their
    number, so without leading zeros, where 10000 is the number 0 itself,
    "0"; 20000 is a group left of its number, blank.  A blank is the byte 0."""
    quads = np.zeros((20_001, 4), dtype=np.uint8)
    full = quads[:10_000].reshape(10, 10, 10, 10, 4)  # indexed by the four digits
    for place in range(4):
        full[..., place] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - place))
    quads[10_000:20_000] = quads[:10_000]
    for place, below in enumerate((1000, 100, 10)):
        quads[10_000 : 10_000 + below, place] = 0  # the zeros that lead a number below 10^(3 - place)
    return quads.view(np.uint32).ravel()


_DIGIT_QUADS = _digit_quads()
_PATTERNS: dict[str, str] = {}  # seps to "%d" patterns, sliced to a count of numbers


def _decimal_text(values: np.ndarray, seps: str) -> str:
    """The 1-d integer values in decimal, the i-th preceded by
    seps[(i - 1) % len(seps)] for i >= 1: the text "%d" writes for
    seps[0].join, or with seps " " * (d - 1) + "\n", d numbers a line
    without the last newline.

    A short list takes "%d", by a slice of one pattern per seps, built once
    and grown for longer lists, below _WRITE_MIN numbers, in _PATTERNS, as
    does a list that is not int64 or holds a negative value, such as a
    hand-built level, by a pattern of its own when it is longer.  A long
    nonnegative int64 one is written in blocks of _ROW_BLOCK numbers, each
    into a uint8 matrix of one row per number, a separator byte then the
    digits right-aligned, four digits per pass by a lookup in _DIGIT_QUADS:
    pass j writes the group r = x mod 10^4 of x = v // 10^(4j), as it leads
    its number when x < 10^4 and blank when x = 0.  Compressing out the
    blank bytes leaves the text."""
    n = values.size
    if n < _WRITE_MIN or not n or values.dtype != np.int64 or values.min() < 0:
        pattern = _PATTERNS.get(seps, "")
        if len(pattern) < 3 * n:  # a separator, then "%d" and one for each further number
            pattern = seps[-1] + ("%d" + "%d".join(seps)) * 2 * n
            if n < _WRITE_MIN:  # keep only short lists' patterns, 6 * len(seps) * n characters
                _PATTERNS[seps] = pattern
        return pattern[1 : 3 * n] % tuple(values.tolist())
    sep_bytes = np.frombuffer(seps.encode("ascii"), dtype=np.uint8)
    parts = []
    for lo in range(0, n, _ROW_BLOCK):
        x = values[lo : lo + _ROW_BLOCK]
        digits = len(str(int(x.max())))
        groups = -(-digits // 4)
        # the separator takes the leading group's first byte, always blank
        # when digits is no multiple of 4, else a byte of its own
        width = max(4 * groups, digits + 1)
        out = np.empty((x.size, width), dtype=np.uint8)
        quads = np.ndarray((x.size, groups), np.uint32, out, width - 4 * groups, (width, 4))
        ended = None  # where x is 0, so every digit of its number is written
        for j in range(groups - 1, 0, -1):
            q = x // 10_000  # division by a constant, which np.divmod does not speed up
            r = q * 10_000
            np.subtract(x, r, out=r)
            leads = q == 0
            r += leads * 10_000
            if ended is not None:
                r += ended * 10_000
            quads[:, j] = _DIGIT_QUADS.take(r)
            x, ended = q, leads
        r = x + 10_000  # the leading group of every number
        if ended is not None:
            r += ended * 10_000
        quads[:, 0] = _DIGIT_QUADS.take(r)
        out[:, 0] = np.tile(np.roll(sep_bytes, 1 - lo), -(-len(out) // len(seps)))[: len(out)]
        if lo == 0:
            out[0, 0] = 0
        flat = out.ravel()
        parts.append(flat.compress(flat != 0).tobytes().decode("ascii"))
    return "".join(parts)


_NAMED_INT = re.compile(r"-?(?=0*[1-9])[0-9]{1,4300}|0{1,4300}")
_FIELD = re.compile(r"[^ \t]+")  # a token between blanks


def _token_ints(tokens: list[str]) -> list[int]:
    """The tokens as integers by the number rule, also to name what the kernel
    refuses: ASCII digits, or a minus and a nonzero number (outside every
    grid), of at most 4,300 digits.  FormatError quotes the first other token."""
    if not all(map(_NAMED_INT.fullmatch, tokens)):
        bad = next(pos for pos, tok in enumerate(tokens) if not _NAMED_INT.fullmatch(tok))
        raise FormatError(f"non-integer token {_clip(repr(tokens[bad]))} at index {bad}")
    return list(map(int, tokens))


def _plain_int(token: str) -> int:
    """A token by the number rule: plain ASCII digits, as writers write
    labels and mass fields, by int() at once, others by _token_ints, which
    refuses them or reads a minus (blanks around them dropped)."""
    return int(token) if token.isascii() and token.isdigit() else _token_ints([token.strip(" \t")])[0]


_HEADER = re.compile(r"(?:[ \t]*\n)*([^\n]*)\n?")  # blank lines, then the header line


def _fold_crlf(text: str) -> str:
    """text with each \\r\\n read as \\n.  str.replace scans for its pattern
    about 80 times slower than `in` finds a \\r (0.7 ms against 9 us on
    640 KB), so a text without one is returned as it is."""
    return text.replace("\r\n", "\n") if "\r" in text else text


def _read_header(text: str, magic: str, keys: tuple[str, ...]) -> tuple[list[int], int]:
    """The integer `keys`, by _token_ints, of the '<magic> v1 key=value ...'
    line that opens text after blank lines, and where the lines after it
    start.  Its last two keys, depth and span, must give an int64 grid."""
    head = _HEADER.match(text)
    line = head[1]
    tokens = _FIELD.findall(line)
    if not tokens:
        raise FormatError("empty input")
    if tokens[:2] != [magic, "v1"]:
        raise FormatError(f"bad header: {_clip(repr(line))}")
    bad = next((tok for tok in tokens[2:] if "=" not in tok), None)
    if bad is not None:
        raise FormatError(f"header token {_clip(repr(bad))} is not key=value")
    fields = dict(tok.split("=", 1) for tok in tokens[2:])
    try:
        values = _token_ints([fields[key] for key in keys])
    except (KeyError, FormatError) as exc:
        raise FormatError(f"bad header fields: {_clip(repr(line))}") from exc
    try:
        _check_grid(*values[-2:])
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    return values, head.end()


# -- tree and measure files -----------------------------------------------


def _encode_level(a: np.ndarray) -> str:
    # Runs win when they take fewer numbers than the indices: never below 3.
    if a.size > 2:
        ends = a[1:] - a[:-1] != 1  # where runs of consecutive indices end
        if 2 * (np.count_nonzero(ends) + 1) < a.size:
            starts = np.flatnonzero(np.concatenate(([True], ends)))
            runs = np.column_stack((a[starts], np.diff(starts, append=a.size)))
            return "RUNS " + _decimal_text(runs.ravel(), " ")
    return _decimal_text(a, ",")


def dumps_tree(tree: DyadicTree) -> str:
    lines = [f"dyadic-tree v1 depth={tree.max_depth} span={tree.span}"]
    for n in range(tree.max_depth + 1):
        lines.append(f"{n}: {_encode_level(tree.array(n))}".rstrip())
    return "\n".join(lines) + "\n"


_RUNS = re.compile(r"[ \t]*RUNS(?![^ \t])")  # a RUNS payload's head
_SPLIT = re.compile(r"[0-9][ \t]+[0-9]")  # two numbers of a list with no comma between


def _decode_levels(bodies: dict[int, str], span: int) -> dict[int, np.ndarray]:
    """A tree file's level bodies, level n to the text after "n:" in file
    order, as int64 arrays.  The decimal kernel reads all comma lists
    joined by newlines in one pass and all RUNS payloads in another.  Each
    list must hold one number per comma field, and each payload an even
    count; every run is checked against its level at once.  Then level by
    level, in file order, the runs are charged to the budget and expanded.
    What fails, only _refuse_levels words."""
    lists, runs = {}, {}
    for n, rest in bodies.items():
        head = "RUNS" in rest and _RUNS.match(rest)
        (runs if head else lists)[n] = rest[head.end() :] if head else rest.strip(" \t")
    levels = {}
    if lists:
        text = "\n".join(lists.values())
        got = _read_numbers(text, ",")
        want = [body.count(",") + 1 if body else 0 for body in lists.values()]
        if got is None or got[1].tolist() != want or (" " in text or "\t" in text) and _SPLIT.search(text):
            _refuse_levels(bodies, span)
        ends = list(accumulate(want, initial=0))
        levels.update((n, got[0][a:b]) for n, a, b in zip(lists, ends, ends[1:]))
    if runs:
        got = _read_numbers("\n".join(runs.values()), " ")
        if got is None or (got[1] % 2).any():
            _refuse_levels(bodies, span)
        starts, lengths, per_level = got[0][::2], got[0][1::2], got[1] // 2
        caps = np.repeat(np.array([span << n for n in runs], dtype=np.int64), per_level)
        if not ((lengths >= 1) & (lengths <= caps - starts)).all():
            _refuse_levels(bodies, span)
        ends = list(accumulate(per_level.tolist(), initial=0))
        for n, a, b in zip(runs, ends, ends[1:]):
            small = (b - a) * (span << n) < _INT64_END  # each length is at most span << n: sum in int64
            charge(int(lengths[a:b].sum()) if small else sum(lengths[a:b].tolist()), "RUNS payload")
            levels[n] = _expand_runs(starts[a:b], lengths[a:b])
    return levels


def _refuse_levels(bodies: dict[int, str], span: int) -> NoReturn:
    """Raise the FormatError for level bodies _decode_levels refused, at the
    first bad body in file order: its first token that is not a number, then
    for RUNS an odd payload or a run outside the level, for a list an index
    outside int64.  Other indices outside the level are validate()'s.  Good
    RUNS payloads before it are charged as _decode_levels charges them, so
    one over the budget is refused first."""
    for n, rest in bodies.items():
        cap, head, body = span << n, _RUNS.match(rest), rest.strip(" \t")
        if head:
            parts = _token_ints(_FIELD.findall(rest[head.end() :]))
            if len(parts) % 2:
                raise FormatError(f"odd RUNS payload of {len(parts)} numbers")
            for start, length in zip(parts[::2], parts[1::2]):
                if length < 1 or start < 0 or start + length > cap:
                    raise FormatError(f"run ({start}, {length}) outside a level of {cap} cells")
            charge(sum(parts[1::2]), "RUNS payload")
            continue
        parts = _token_ints([tok.strip(" \t") for tok in body.split(",")] if body else [])
        bad = next((j for j in parts if not 0 <= j < _INT64_END), None)
        if bad is not None:
            raise FormatError(f"index {_clip(str(bad))} outside a level of {cap} cells")
    raise AssertionError("the decimal kernel refused level bodies that hold no fault")


def _is_saturation(levels: list[np.ndarray], cap: int) -> bool:
    """Whether the levels are the saturation of the last, as from_leaves
    builds it: the last strictly increases below cap, and each level is the
    one below it shifted right and deduped.  These are validate()'s
    invariants, so it finds a problem exactly when this is False."""
    leaves = levels[-1]
    if leaves.size and (leaves[-1] >= cap or not (leaves[1:] > leaves[:-1]).all()):
        return False
    for n in range(len(levels) - 1, 0, -1):
        parents = _dedupe_sorted(levels[n] >> 1)
        if parents.size != levels[n - 1].size or not (parents == levels[n - 1]).all():
            return False
    return True


def _read_tree(text: str) -> tuple[DyadicTree, list[str]]:
    """Parse dyadic-tree v1 text, refused at its first bad line: the bodies
    above a bad level label are read before it is named.  The decoded
    levels become the tree, checked in place: a dump is valid exactly when
    its deepest level is strictly increasing inside the grid and each level
    above is the dedupe of the one below shifted right (validate() runs only
    to word a refusal).  A measure file's "mass " lines come back unread."""
    text = _fold_crlf(text)
    (depth, span), start = _read_header(text, "dyadic-tree", ("depth", "span"))
    bodies: dict[int, str] = {}
    mass_lines = []
    for ln in text[start:].split("\n"):
        if ln.startswith("mass "):
            mass_lines.append(ln)
        elif ln.strip(" \t"):
            head, _, rest = ln.partition(":")
            try:
                n = _plain_int(head)
            except ValueError as exc:
                _decode_levels(bodies, span)
                raise FormatError(f"bad level line: {_clip(repr(ln))}") from exc
            if not 0 <= n <= depth or n in bodies:
                _decode_levels(bodies, span)
                raise FormatError(f"unexpected level {n}")
            bodies[n] = rest
    decoded = _decode_levels(bodies, span)
    if len(decoded) <= depth:
        missing = [n for n in range(depth + 1) if n not in decoded]
        raise FormatError(f"missing levels {missing}")
    levels = [decoded[n] for n in range(depth + 1)]
    tree = DyadicTree.__new__(DyadicTree)
    tree._set(depth, span, levels)
    if not _is_saturation(levels, span << depth):
        raise FormatError("invalid tree: " + "; ".join(validate(tree)[:5]))
    return tree, mass_lines


def loads_tree(text: str) -> DyadicTree:
    """Parse dyadic-tree v1 text, by _read_tree; mass lines are skipped."""
    return _read_tree(text)[0]


def load_tree(path) -> DyadicTree:
    return loads_tree(_read_text(path))


def dumps_measure(mu: TreeMeasure) -> str:
    """Tree format plus one "mass <level> <index> <mass>" line per cell.

    Masses are written with 17 significant digits, enough to round-trip
    binary64 exactly.
    """
    parts = [dumps_tree(mu.tree)]
    for n, w in enumerate(mu.masses):
        for pos, j in enumerate(mu.tree.array(n).tolist()):
            parts.append(f"mass {n} {j} {w[pos]:.17g}\n")
    return "".join(parts)


def loads_measure(text: str) -> TreeMeasure:
    """Parse dumps_measure text: a tree file, read by _read_tree, whose walk
    returns its "mass <level> <index> <mass>" lines, one a cell, split at
    blanks (spaces, tabs).  Lines break at newlines, a \\r before one dropped;
    level and index follow the number rule (_plain_int: plain digits by
    int(), others by _token_ints), and float() reads the mass."""
    tree, lines = _read_tree(text)
    given: dict[tuple[int, int], float] = {}
    for ln in lines:
        try:
            _, level, index, mass = _FIELD.findall(ln)
            key, mass = (_plain_int(level), _plain_int(index)), float(mass)
        except ValueError as exc:
            raise FormatError(f"bad mass line: {_clip(repr(ln))}") from exc
        if key in given:
            raise FormatError(f"duplicate mass for cell {key}")
        given[key] = mass
    masses = []
    for n in range(tree.max_depth + 1):
        try:
            masses.append([given.pop((n, j)) for j in tree.array(n).tolist()])
        except KeyError as exc:
            raise FormatError(f"missing mass for a level-{n} cell") from exc
    if given:
        raise FormatError(f"mass lines for unoccupied cells: {sorted(given)[:3]}")
    return TreeMeasure(tree, masses)


# -- grid files -----------------------------------------------------------


def dumps_grid(f: GridSetD) -> str:
    """The grid-set v1 text of f: one line per cell, by _decimal_text."""
    body = _decimal_text(f.array().ravel(), " " * (f.dimension - 1) + "\n")
    return "".join((f"grid-set v1 d={f.dimension} depth={f.depth} span={f.span}\n", body, "\n" if body else ""))


def loads_grid(text: str) -> GridSetD:
    """Parse grid-set v1 text, by the grammar above: after the header,
    every line that is not blank holds d numbers inside the grid.  The
    decimal kernel reads the body in blocks of whole lines; what it or a
    check refuses, only _refuse_grid words.  Rows in strictly increasing
    order, as dumps_grid writes them, are kept as they are; others are
    sorted and deduplicated."""
    text = _fold_crlf(text)
    (d, depth, span), start = _read_header(text, "grid-set", ("d", "depth", "span"))
    if d not in (1, 2, 3):
        raise FormatError(f"dimension {d} not in {{1, 2, 3}}")
    limit = span << depth
    values = []
    for got in _number_blocks(text, " ", start):
        if got is None or not ((got[1] == 0) | (got[1] == d)).all() or got[0].max(initial=0) >= limit:
            _refuse_grid(text[start:].split("\n"), d, limit)
        values.append(got[0])
    rows = np.concatenate(values).reshape(-1, d)
    return GridSetD._trusted(d, depth, span, rows if _increasing_rows(rows) else _distinct_rows(rows))


def _refuse_grid(lines: list[str], d: int, limit: int) -> NoReturn:
    """Raise the FormatError for body lines loads_grid refused: the first
    line without d tokens, else the first token that is not a number, else
    the least cell outside the grid."""
    lines = [ln for ln in lines if ln.strip(" \t")]
    rows = [_FIELD.findall(ln) for ln in lines]
    for ln, parts in zip(lines, rows):
        if len(parts) != d:
            raise FormatError(f"expected {d} coordinates: {_clip(repr(ln))}")
    outside = [cell for cell in (tuple(_token_ints(parts)) for parts in rows) if any(not 0 <= c < limit for c in cell)]
    raise FormatError(f"cell {_clip(str(min(outside)))} outside the {limit}^d grid")


def load_grid(path) -> GridSetD:
    return loads_grid(_read_text(path))


def load_any(path) -> DyadicTree | GridSetD:
    """A tree or grid file, by the loader its header's first word names."""
    text = _fold_crlf(_read_text(path))
    line = _HEADER.match(text)[1]
    word = _FIELD.search(line)
    load = {"dyadic-tree": loads_tree, "grid-set": loads_grid}.get(word and word[0])
    if load is None:
        raise FormatError(f"{path}: unrecognized header {line.strip()!r}")
    return load(text)
