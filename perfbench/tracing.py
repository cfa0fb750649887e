"""The dimlab calls a job makes, either plain or wrapped in spans.

Jobs never call dimlab directly: they call the attributes of an `Api`.  The
plain `Api` hands out the library functions themselves, so an untraced run
pays nothing.  The traced `Api` wraps each function in a span recorder.

A span is (job, id, parent, name, start_ns, end_ns, ok).  Each job opens one
root span named ``job``; every library call the job makes is a child of it.
Spans are recorded only around the calls the benchmark makes, so they are
inclusive: `index_sumset` includes the `from_leaves` it runs internally.
Spans stay in memory and are written once, when the run ends.

Per-layer metrics are derived from the spans plus a few counts taken at the
same boundaries (cells in and out, pairs, bytes).  The counts are taken after
the span has closed, so they never inflate a span's duration.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

# Operand density above which the seed commit's sumset kernel switches from
# the pair set-merge to the bit-grid shift-or.  The benchmark classifies
# calls itself, so the split stays comparable when the library changes.
DENSITY_CUT = 1.0 / 64.0

LAYERS = ("dyadic", "measures", "generators", "arithmetic", "dimension", "cli")


def _total_cells(tree) -> int:
    return sum(len(level) for level in tree.levels)


def _kind(obj, dl) -> str:
    return "tree" if isinstance(obj, dl.DyadicTree) else "grid"


def _cli_outputs(argv) -> list[str]:
    out = []
    for flag in ("--out", "--report", "--json"):
        if flag in argv:
            out.append(argv[argv.index(flag) + 1])
    return out


def _calls(dl):
    """attribute -> (span name or name(args), function, counter or None).

    A counter is called as counter(counts, result, *args) after the span
    closes and adds to the named per-layer counts.
    """

    def leaves_cells(c, tree, depth, span, leaves):
        c["dyadic.from_leaves.leaves_in"] += len(leaves)
        c["dyadic.from_leaves.cells_out"] += _total_cells(tree)

    def text_bytes(name):
        def count(c, out, arg):
            c[name] += len(out if isinstance(out, str) else arg)
        return count

    def profile_vertices(c, prof, mu, *rest):
        c["measures.scale_profile.vertices"] += sum(len(mu.tree.levels[s.k]) for s in prof.levels)

    def gen_cells(name):
        def count(c, tree, *args):
            c[f"generators.{name}.cells_out"] += _total_cells(tree)
        return count

    def sumset(c, result, a, b, level):
        na, nb = len(a.levels[level]), len(b.levels[level])
        c["arithmetic.index_sumset.pairs"] += na * nb
        c["arithmetic.index_sumset.cells_out"] += result[1].count_exact
        dense = na / a.capacity(level) > DENSITY_CUT or nb / b.capacity(level) > DENSITY_CUT
        c["arithmetic.index_sumset.dense_calls" if dense else "arithmetic.index_sumset.sparse_calls"] += 1

    def iterated(c, tree, a, k, level):
        # Fold-by-fold kernels form at most (k - 1) |A| |kA| pairs.
        c["arithmetic.iterated_sumset.pairs"] += (k - 1) * len(a.levels[level]) * len(tree.levels[level])

    def difference(c, result, a, level):
        c["arithmetic.difference_set.pairs"] += len(a.levels[level]) ** 2

    def distances(c, tree, grid):
        c["arithmetic.distance_set.pairs"] += len(grid.cells) ** 2
        c["arithmetic.distance_set.cells_out"] += len(tree.levels[tree.max_depth])

    def grid_bytes(c, out, arg):
        c["arithmetic.grid_io.bytes"] += len(out if isinstance(out, str) else arg)

    def cli(c, code, argv):
        sub = argv[0]
        if code != 0:
            c[f"cli.main.{sub}.nonzero_exits"] += 1
            c["cli.failed"] += 1
        c[f"cli.main.{sub}.bytes_out"] += sum(
            os.path.getsize(p) for p in _cli_outputs(argv) if os.path.exists(p)
        )

    from dimlab import cli as dl_cli

    return {
        "from_leaves": ("dyadic.from_leaves", dl.DyadicTree.from_leaves, leaves_cells),
        "dumps_tree": ("dyadic.dumps_tree", dl.dumps_tree, text_bytes("dyadic.dumps_tree.bytes")),
        "loads_tree": ("dyadic.loads_tree", dl.loads_tree, text_bytes("dyadic.loads_tree.bytes")),
        "descendant_count": ("dyadic.query", dl.descendant_count, None),
        "is_full_branching": ("dyadic.query", dl.is_full_branching, None),
        "subtree": ("dyadic.query", dl.subtree, None),
        "counting_measure": ("measures.build", dl.counting_measure, None),
        "from_leaf_masses": ("measures.build", dl.from_leaf_masses, None),
        "splitting_measure": ("measures.build", dl.splitting_measure, None),
        "scale_profile": ("measures.scale_profile", dl.scale_profile, profile_vertices),
        "covering_bounds_check": ("measures.covering_bounds_check", dl.covering_bounds_check, None),
        "local_entropy": ("measures.local", dl.local_entropy, None),
        "classify_local": ("measures.local", dl.classify_local, None),
        "mass": ("measures.local", lambda mu, v: mu.mass(v), None),
        "entropy": ("measures.entropy", dl.entropy, None),
        "restrict_renormalize": ("measures.restrict", dl.restrict_renormalize, None),
        "ifs_attractor": ("generators.ifs_attractor", dl.ifs_attractor, gen_cells("ifs_attractor")),
        "moran_tree": ("generators.moran_tree", dl.moran_tree, gen_cells("moran_tree")),
        "reciprocal_tree": ("generators.reciprocal_tree", dl.reciprocal_tree, gen_cells("reciprocal_tree")),
        "extract_moran_subset": (
            "generators.extract_moran_subset", dl.extract_moran_subset, gen_cells("extract_moran_subset")
        ),
        "index_sumset": ("arithmetic.index_sumset", dl.index_sumset, sumset),
        "iterated_sumset": ("arithmetic.iterated_sumset", dl.iterated_sumset, iterated),
        "difference_set": ("arithmetic.difference_set", dl.difference_set, difference),
        "grid_product": ("arithmetic.grid_product", dl.grid_product, None),
        "distance_set": ("arithmetic.distance_set", dl.distance_set, distances),
        "dumps_grid": ("arithmetic.grid_io", dl.dumps_grid, grid_bytes),
        "loads_grid": ("arithmetic.grid_io", dl.loads_grid, grid_bytes),
        "box_estimate": (
            lambda obj, *a: f"dimension.box_estimate.{_kind(obj, dl)}", dl.box_estimate, None
        ),
        "assouad_estimate": (
            lambda obj, *a: f"dimension.local_estimate.{_kind(obj, dl)}", dl.assouad_estimate, None
        ),
        "lower_estimate": (
            lambda obj, *a: f"dimension.local_estimate.{_kind(obj, dl)}", dl.lower_estimate, None
        ),
        "growth_experiment": ("dimension.growth_experiment", dl.growth_experiment, None),
        "cli_main": (lambda argv: f"cli.main.{argv[0]}", dl_cli.main, cli),
    }


class Api:
    """Namespace of the dimlab calls jobs make; traced when given a Tracer."""

    def __init__(self, dl, tracer: "Tracer | None" = None):
        for attr, (name, fn, count) in _calls(dl).items():
            setattr(self, attr, fn if tracer is None else tracer.wrap(name, fn, count))


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._job = -1
        self._root = -1
        self._job_start = 0

    def begin_job(self, job: int) -> None:
        self._job = job
        self._root = len(self.spans)
        self.spans.append(None)  # the root span is filled in by end_job
        self._job_start = time.perf_counter_ns()

    def end_job(self, ok: bool) -> None:
        self.spans[self._root] = (self._job, self._root, -1, "job", self._job_start, time.perf_counter_ns(), ok)

    def wrap(self, name, fn, count):
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter_ns

        def call(*args):
            label = name(*args) if callable(name) else name
            start = clock()
            try:
                out = fn(*args)
            except Exception:
                spans.append((self._job, len(spans), self._root, label, start, clock(), False))
                counts[label.split(".", 1)[0] + ".failed"] += 1
                raise
            spans.append((self._job, len(spans), self._root, label, start, clock(), True))
            if count is not None:
                count(counts, out, *args)
            return out

        return call

    def write(self, path: str) -> None:
        """One tab-separated line per span: job id parent name start_ns end_ns ok."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("job\tid\tparent\tname\tstart_ns\tend_ns\tok\n")
            for span in self.spans:
                if span is not None:
                    fh.write("\t".join(str(int(x)) if isinstance(x, bool) else str(x) for x in span) + "\n")

    def layer_metrics(self, names, untraced_s: float, traced_s: float) -> dict[str, float]:
        """Resolve each per-layer metric name from the spans and counts."""
        busy: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        job_s = 0.0
        for span in self.spans:
            if span is None:
                continue
            _, _, parent, label, start, end, _ = span
            secs = (end - start) * 1e-9
            if parent < 0:
                job_s += secs
                continue
            calls[label] += 1
            busy[label] += secs
            # No wrapped call runs inside another, so a call's self time is
            # its whole span; the job's own self time is benchmark glue.
            busy[label.split(".", 1)[0] + ".self"] += secs
        covered = sum(busy[f"{layer}.self"] for layer in LAYERS)
        c = self.counts
        pairs = c["arithmetic.index_sumset.pairs"]
        derived = {
            "trace.job_s": job_s,
            "trace.covered_frac": covered / job_s if job_s else 0.0,
            "trace_overhead_frac": 1.0 - untraced_s / traced_s if traced_s else 0.0,
            "arithmetic.sumset_yield": c["arithmetic.index_sumset.cells_out"] / pairs if pairs else 0.0,
        }
        out = {}
        for name in names:
            if name in derived:
                out[name] = derived[name]
            elif name.endswith("_busy_s") and not name.endswith(".busy_s"):
                head, _, tail = name.rpartition(".")
                out[name] = busy[f"{head}.{tail[: -len('_busy_s')]}"]
            elif name.endswith(".busy_s"):
                out[name] = busy[name[: -len(".busy_s")]]
            elif name.endswith(".self_s"):
                out[name] = busy[name[: -len("_s")]]
            elif name.endswith(".calls"):
                out[name] = calls[name[: -len(".calls")]]
            else:
                out[name] = c[name]
        return out
