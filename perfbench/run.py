#!/usr/bin/env python3
"""dimlab benchmark: closed-loop job streams with checked outputs.

Run from the repository root.  One workload, one run:

    python3 perfbench/run.py --workload entropy-sweep --seed 1 --seconds 20 --trace 0

measures the workload for --seconds and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics of BENCHMARK.json;
--trace 1 runs every job twice, plain and traced, and reports the per-layer
metrics, including trace_overhead_frac.  Lines before the last describe the
machine and list every metric by name with its unit.  The run exits 1 when
an output check fails.

Every workload in turn, printing each metric by name and unit and exiting
non-zero when any output check fails:

    python3 perfbench/run.py --all --seed 1 [--trace 1]

Re-record the reference outputs (only at a commit whose outputs are known
good; every later run is checked against them):

    python3 perfbench/run.py --record-refs
"""

from __future__ import annotations

import os
import sys

THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Single-client jobs: one BLAS/OpenMP thread, set before numpy is imported.
for _var in THREAD_VARS:
    os.environ[_var] = THREADS
# The CLI reads its default cell budget from the environment.
os.environ.pop("DIMLAB_BUDGET_CELLS", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFS = os.path.join(HERE, "refs.json")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_dimlab():
    """Import dimlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dimlab", "__init__.py")):
        raise BenchError(f"no dimlab package under {SRC}; run from the repository root")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dimlab

    if os.path.dirname(os.path.dirname(os.path.abspath(dimlab.__file__))) != SRC:
        raise BenchError(f"imported dimlab from {dimlab.__file__}, not from {SRC}")
    return dimlab


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("no BENCHMARK.json in the working directory")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def load_refs() -> dict:
    if not os.path.isfile(REFS):
        raise BenchError(f"no reference outputs at {REFS}")
    with open(REFS, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def quantile(values: list[float], q: int) -> float:
    """The q-th decile of values (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[q - 1]


# -- host speed ----------------------------------------------------------

# This shared 2-core host runs the same code up to a third slower for
# seconds at a time, and its average speed drifts over minutes, so raw
# timings of identical runs spread by 10-20%.  A fixed probe of pure-Python
# and numpy work is timed right before and right after every job.  Each job's
# time is scaled by PROBE_REF_S over the median probe within WINDOW_S of the
# job (at least MIN_PROBES probes), so it reads as seconds on this host when it runs the probe in
# PROBE_REF_S.  The probe touches no dimlab code and runs with the garbage
# collector off, so no program change can move it.  Unadjusted figures are
# printed too.
PROBE_REF_S = 0.8e-3
WINDOW_S = 1.0
MIN_PROBES = 8


class HostSpeed:
    """Timed probe samples over a run."""

    def __init__(self):
        import numpy as np

        self._data = np.random.default_rng(0).integers(0, 1 << 20, 4096)
        self.times: list[float] = []
        self.probes: list[float] = []

    def probe(self) -> float:
        import numpy as np

        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0
            for i in range(2000):
                acc += i * i
            tuple(np.unique(np.sort(self._data) >> 4)[:1000].tolist())
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.times.append(t0)
        self.probes.append(elapsed)
        return elapsed

    def factor(self, start: float, end: float) -> float:
        """PROBE_REF_S over the median probe taken within WINDOW_S of
        [start, end], widened to the MIN_PROBES nearest probes if fewer."""
        times = self.times
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        return PROBE_REF_S / statistics.median(self.probes[lo:hi])


# -- set-up probes -------------------------------------------------------


def setup_probe(workload_name: str) -> tuple[float, float]:
    """Seconds for import dimlab plus the workload's program set-up, in this
    (fresh) interpreter, raw and host-adjusted; the benchmark's own input
    generation is left out."""
    t0 = time.perf_counter()
    dl = import_dimlab()
    from tracing import Api

    api = Api(dl)
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload_name]
    inputs = wl.setup_inputs()
    t2 = time.perf_counter()
    wl.setup(api, inputs)
    t3 = time.perf_counter()
    host = HostSpeed()
    for _ in range(15):
        host.probe()
    elapsed = (t1 - t0) + (t3 - t2)
    return elapsed, elapsed * host.factor(t3, t3)


def measure_setup(workload_name: str) -> tuple[float, float]:
    """Median set-up seconds over fresh interpreters: (raw, host-adjusted)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload_name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(t[0] for t in times), statistics.median(t[1] for t in times)


# -- one workload run ----------------------------------------------------


class Run:
    """One measured run of a workload: jobs, their timings and checks."""

    def __init__(self, name: str, trace: bool):
        from tracing import Api, Tracer
        from workloads import WORKLOADS

        self.wl = WORKLOADS[name]
        self.refs = load_refs().get(name, {})
        dl = import_dimlab()
        self.plain = Api(dl)
        self.state = self.wl.setup(self.plain, self.wl.setup_inputs())
        self.tracer = Tracer() if trace else None
        self.traced = Api(dl, self.tracer) if trace else None
        self.host = HostSpeed()
        self.jobs: list[tuple[float, float]] = []  # (start, seconds), plain side
        self.traced_s = 0.0
        self.attempted = 0
        self.failed = 0

    def measure(self, seed: int, seconds: float, workroot: str) -> None:
        """Run the prefix jobs, then whole rounds until `seconds` have passed."""
        gc.collect()
        job = 0
        try:
            for key in self.wl.prefix:
                self.job(key, job, os.path.join(workroot, f"job{job}"), timed=False)
                job += 1
            deadline = time.perf_counter() + seconds
            for keys in self.wl.rounds(seed):
                if time.perf_counter() >= deadline:
                    break
                for key in keys:
                    self.job(key, job, os.path.join(workroot, f"job{job}"))
                    job += 1
        finally:
            shutil.rmtree(workroot, ignore_errors=True)

    def job(self, key: str, job: int, workdir: str, timed: bool = True) -> None:
        """Prepare, run and check one job; when tracing, run it plain and
        traced, alternating which goes first.  Untimed jobs are checked and
        counted but stay out of the latency figures."""
        from checks import ORACLE_EVERY, compare, fingerprint

        inputs = self.wl.prepare(key, self.state, workdir)
        problems: list[str] = []
        sides = [False, True] if self.tracer is not None else [False]
        if job % 2:
            sides.reverse()
        for traced in sides:
            if traced:
                self.tracer.begin_job(job)
            else:
                self.host.probe()
            start = time.perf_counter()
            try:
                out, err = self.wl.run(self.traced if traced else self.plain, self.state, key, inputs), None
            except Exception as exc:  # a failed job is counted, and the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.end_job(err is None)
                self.traced_s += elapsed if timed else 0.0
            else:
                self.host.probe()
                if timed:
                    self.jobs.append((start, elapsed))
            if err is not None:
                problems.append(err)
                continue
            problems += compare(fingerprint(out), self.refs.get(key))
            if job % ORACLE_EVERY == 0:
                problems += self.wl.oracle(key, inputs, out)
        if os.path.isdir(workdir):
            shutil.rmtree(workdir)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                sys.stderr.write(f"perfbench: job {job} ({key}) failed: {'; '.join(problems)}\n")

    def end_to_end(self, setup: tuple[float, float]) -> tuple[dict, dict]:
        """(host-adjusted, unadjusted) end-to-end metrics."""
        raw = [t for _, t in self.jobs]
        adjusted = [t * self.host.factor(s, s + t) for s, t in self.jobs]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out = []
        for lat, setup_s in ((adjusted, setup[1]), (raw, setup[0])):
            out.append({
                "jobs_per_s": len(lat) / sum(lat),
                "job_p50_ms": statistics.median(lat) * 1e3,
                "job_p90_ms": (quantile(lat, 9) if len(lat) > 1 else lat[0]) * 1e3,
                "peak_rss_mb": rss,
                "setup_s": setup_s,
            })
        return out[0], out[1]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    spec = load_spec()
    import_dimlab()
    setup = None if trace else measure_setup(name)
    run = Run(name, trace)
    run.measure(seed, seconds, os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}"))

    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} "
          f"jobs {run.attempted} failed {run.failed}")
    if not run.jobs:
        raise BenchError("no job completed")
    if trace:
        metrics = spec["per_layer"]
        values = run.tracer.layer_metrics([m["name"] for m in metrics], sum(t for _, t in run.jobs), run.traced_s)
        run.tracer.write(os.path.join(OUT_DIR, f"spans-{name}.tsv"))
    else:
        metrics = spec["end_to_end"]
        values, raw = run.end_to_end(setup)
        n = len(run.jobs)
        print(f"job latency samples {n}, {n - int(0.9 * n)} beyond the 90th percentile")
        print("unadjusted " + " ".join(f"{m['name']}={raw[m['name']]:.6g}" for m in metrics))
    units = {m["name"]: m["unit"] for m in metrics}
    values = {m: values[m] for m in units}
    for metric, value in values.items():
        print(f"metric {metric} {value:.6g} {units[metric]}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if run.failed == 0 else 1


# -- every workload ------------------------------------------------------


def run_all(seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    status = 0
    print("machine " + json.dumps(machine(), sort_keys=True))
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S + seconds,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}"
              f" failed_frac={result['failed'] / result['attempted']:.4g}")
        for metric, body in result["metrics"].items():
            print(f"  {name} {metric} {body['value']:.6g} {body['unit']}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


# -- references ----------------------------------------------------------


def record_refs(only: str | None) -> int:
    from checks import fingerprint
    from tracing import Api
    from workloads import WORKLOADS

    dl = import_dimlab()
    api = Api(dl)
    data = {"workloads": {}}
    if os.path.isfile(REFS):
        with open(REFS, encoding="utf-8") as fh:
            data = json.load(fh)
    status = 0
    for name, wl in WORKLOADS.items():
        if only and name != only:
            continue
        state = wl.setup(api, wl.setup_inputs())
        table = {}
        t0 = time.perf_counter()
        for i, key in enumerate(sorted(wl.catalog())):
            workdir = os.path.join(OUT_DIR, f"record-{name}-{i}")
            inputs = wl.prepare(key, state, workdir)
            out = wl.run(api, state, key, inputs)
            problems = wl.oracle(key, inputs, out)
            if problems:
                sys.stderr.write(f"perfbench: {name} {key}: {'; '.join(problems)}\n")
                status = 1
            table[key] = fingerprint(out)
            shutil.rmtree(workdir, ignore_errors=True)
        data["workloads"][name] = table
        print(f"{name}: {len(table)} items recorded in {time.perf_counter() - t0:.1f}s")
    if status == 0:
        with open(REFS, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--record-refs", action="store_true", help="re-record reference outputs")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        from workloads import WORKLOADS

        if args.workload is not None and args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
        if args.setup_probe:
            print(json.dumps(setup_probe(args.workload)))
            return 0
        if args.record_refs:
            return record_refs(args.workload)
        seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
        if args.all:
            return run_all(args.seed, seconds, bool(args.trace))
        if args.workload is None:
            raise BenchError("give --workload NAME, --all or --record-refs")
        return run_workload(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
