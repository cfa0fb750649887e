"""Output checks: fingerprints against recorded references, numpy oracles.

A job returns its outputs as a list of (tag, kind, value) entries.  The
fingerprint splits them into an exact part, hashed with SHA-256, and a float
part compared to within FLOAT_TOL:

- ``tree``: every level as an int64 array, with depth and span;
- ``grid``: dimension, depth, span and the cells as an int64 array;
- ``json``: any JSON-like value (report ``to_json()`` output, counts, flags);
  ints, strings, bools and None are exact, floats go to the float part;
- ``measure``: the measure's tree, exact, and its masses as ``reals``;
- ``bytes``, ``file``: bytes, or a file's bytes, exact; ``jsonfile``: a
  JSON file, split like ``json``;
- ``reals``: a float sequence, kept as count (exact) plus sum, position-
  weighted sum, min and max, so one changed element moves the fingerprint.

The references were recorded once, at the commit that added the benchmark,
by ``python3 perfbench/run.py --record-refs``.  The oracles recompute exact
outputs on a sample of jobs with plain numpy, independently of dimlab.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

FLOAT_TOL = 1e-9
# A run checks every job against its reference and every ORACLE_EVERY-th
# job against the numpy oracles too.
ORACLE_EVERY = 4
# Bitmap dedupe of outer sums works on blocks of at most this many pairs.
_BLOCK_PAIRS = 1 << 18


def _walk(value, h, floats: list) -> None:
    if isinstance(value, dict):
        h.update(b"{")
        for key in sorted(value):
            h.update(json.dumps(key).encode())
            _walk(value[key], h, floats)
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _walk(item, h, floats)
        h.update(b"]")
    elif isinstance(value, (float, np.floating)):
        h.update(b"f")
        floats.append(float(value))
    else:
        if isinstance(value, np.integer):
            value = int(value)
        h.update(json.dumps(value).encode())


def _reals_summary(values) -> list[float]:
    a = np.asarray(values, dtype=np.float64)
    if a.size == 0:
        return []
    w = 1.0 + np.arange(a.size) % 7
    return [float(a.sum()), float((a * w).sum()), float(a.min()), float(a.max())]


def fingerprint(out) -> dict:
    """{"exact": sha256 hex, "floats": [...]} for a job's output entries."""
    h = hashlib.sha256()
    floats: list[float] = []
    for tag, kind, value in out:
        h.update(f"<{tag}:{kind}>".encode())
        if kind == "tree":
            h.update(f"{value.max_depth},{value.span}".encode())
            for level in value.levels:
                h.update(np.asarray(level, dtype=np.int64).tobytes())
                h.update(b"|")
        elif kind == "grid":
            h.update(f"{value.dimension},{value.depth},{value.span}".encode())
            h.update(np.asarray(value.cells, dtype=np.int64).reshape(-1, value.dimension).tobytes())
        elif kind == "measure":
            out_tree = [("tree", "tree", value.tree)]
            sub = fingerprint(out_tree)
            h.update(sub["exact"].encode())
            floats.extend(_reals_summary(np.concatenate([np.asarray(w) for w in value.masses])))
        elif kind == "json":
            _walk(value, h, floats)
        elif kind == "jsonfile":
            with open(value, "r", encoding="utf-8") as fh:
                _walk(json.load(fh), h, floats)
        elif kind == "bytes":
            h.update(value)
        elif kind == "file":
            with open(value, "rb") as fh:
                h.update(fh.read())
        elif kind == "reals":
            h.update(str(len(value)).encode())
            floats.extend(_reals_summary(value))
        else:
            raise ValueError(f"unknown output kind {kind!r}")
    return {"exact": h.hexdigest(), "floats": floats}


def compare(got: dict, want: dict | None) -> list[str]:
    """Problems found comparing a fingerprint with its reference."""
    if want is None:
        return ["no recorded reference"]
    problems = []
    if got["exact"] != want["exact"]:
        problems.append("exact outputs differ from the reference digest")
    if len(got["floats"]) != len(want["floats"]):
        problems.append(f"{len(got['floats'])} float outputs, reference has {len(want['floats'])}")
    else:
        for i, (a, b) in enumerate(zip(got["floats"], want["floats"])):
            if not (math.isfinite(a) and abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))):
                problems.append(f"float output {i} is {a!r}, reference {b!r}")
                break
    return problems


# -- numpy oracles -------------------------------------------------------


def dedupe_sorted(a: np.ndarray) -> np.ndarray:
    """Unique values of an already sorted array."""
    if a.size == 0:
        return a
    return a[np.r_[True, a[1:] != a[:-1]]]


def saturation_problems(tree) -> list[str]:
    """Each level must be the sorted dedupe of the level below shifted by one."""
    problems = []
    deep = np.asarray(tree.levels[tree.max_depth], dtype=np.int64)
    if deep.size and np.any(np.diff(deep) <= 0):
        problems.append("deepest level not strictly increasing")
    for n in range(tree.max_depth, 0, -1):
        parents = dedupe_sorted(np.asarray(tree.levels[n], dtype=np.int64) >> 1)
        if not np.array_equal(parents, np.asarray(tree.levels[n - 1], dtype=np.int64)):
            problems.append(f"level {n - 1} is not the parent set of level {n}")
            break
    return problems


def outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted distinct {i + j}: np.add.outer blocks deduped through a bitmap."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    hit = np.zeros(int(a[-1] + b[-1]) + 1, dtype=bool)
    rows = max(1, _BLOCK_PAIRS // b.size)
    for start in range(0, a.size, rows):
        hit[np.add.outer(a[start : start + rows], b).ravel()] = True
    return np.nonzero(hit)[0].astype(np.int64)


def outer_difference(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Sorted distinct {i - j} shifted by offset = max - min, and the offset."""
    a = np.asarray(a, dtype=np.int64)
    if a.size == 0:
        return np.empty(0, dtype=np.int64), 0
    offset = int(a[-1] - a[0])
    return outer_sum(a - a[0], (offset - (a - a[0]))[::-1].copy()), offset


def iterated_outer_sum(a: np.ndarray, k: int) -> np.ndarray:
    part = np.asarray(a, dtype=np.int64)
    for _ in range(k - 1):
        part = outer_sum(part, a)
    return part


def leaves_problems(tree, want: np.ndarray, what: str) -> list[str]:
    """The tree's deepest level must equal `want`, and the tree be saturated."""
    got = np.asarray(tree.levels[tree.max_depth], dtype=np.int64)
    problems = [] if np.array_equal(got, want) else [f"{what}: leaves differ from the numpy oracle"]
    return problems + saturation_problems(tree)
