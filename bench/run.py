"""Benchmark of the qincompat library, driven through its public API.

    python3 bench/run.py --workload random-checks --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
With ``--trace 0`` the run is untraced and reports the end-to-end metrics;
with ``--trace 1`` it runs each group of a fixed list of calls untraced and
then under the span recorder, and reports the per-layer metrics.  Every result is
checked against its reference.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record, and in traced runs the spans, are written to ``.bench_out/``.
"""
from __future__ import annotations

import time

_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import bootstrap  # pins BLAS threads before numpy loads

import numpy as np

import layers
import spans
import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = bootstrap.ROOT / ".bench_out"
SETUP_PROBES = 6
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
# An untraced run starts no pass after this many times --seconds, so that a
# seed with many iteration-cap tails still ends in time.
DEADLINE_FACTOR = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs a few small calls, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def setup_probe_times(args) -> list[float]:
    """Set-up time of fresh processes: library import plus input generation."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, str(args.seed),
           str(args.seconds), args.size]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


class Raised(str):
    """Traceback of a call that raised, kept in place of its result."""


def run_pass(groups, rec=None):
    """Run one pass; return ``[(call key, seconds)]`` and the results per group."""
    call_times, results = [], []
    for group in groups:
        out = []
        for label, thunk in group.calls:
            if rec is not None:
                rec.call += 1
            t0 = time.perf_counter()
            try:
                out.append(thunk())
            except Exception:  # a call that raises is a failed, wrong call
                out.append(Raised(traceback.format_exc()))
            call_times.append((f"{group.kind}/{label}", time.perf_counter() - t0))
        results.append(out)
    return call_times, results


def pass_time(call_times, passes: int) -> float:
    """Time of one pass: each call's median over the passes, times its count per pass.

    Fixed lists repeat the same calls, so this is a robust pass time.  In
    ``random-checks`` every round draws new problems; the median per call
    position stays within one cluster of similar problems, where the median
    of whole rounds would mix feasible and infeasible draws.
    """
    by_key: dict[str, list] = {}
    for key, seconds in call_times:
        by_key.setdefault(key, []).append(seconds)
    return sum(statistics.median(v) * len(v) for v in by_key.values()) / passes


class Tally:
    """Call outcomes across passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []

    def check(self, groups, results):
        for group, out in zip(groups, results):
            self.attempted += len(out)
            raised = [workloads.Failure(i, r.strip().splitlines()[-1], True)
                      for i, r in enumerate(out) if isinstance(r, Raised)]
            failures = raised or group.check(out)
            self.failed += len({f.call for f in failures})
            self.wrong += len({f.call for f in failures if f.wrong})
            self.failures.extend({"group": group.kind, "call": group.calls[f.call][0],
                                  "reason": f.reason, "wrong": f.wrong} for f in failures)


def tail(call_ms: list[float]):
    """Highest listed percentile with at least ten calls beyond it (nearest rank)."""
    n = len(call_ms)
    ordered = sorted(call_ms)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return {"percentile": p, "value_ms": ordered[rank - 1], "calls": n, "beyond": n - rank}
    return None


def blas_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()}


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                getattr(lib, name).restype = ctypes.c_int
                return getattr(lib, name)()
    return None


def cpu_model() -> str:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        q = bootstrap.import_library()
    except bootstrap.LibraryMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return bootstrap.EXIT_NO_LIBRARY
    plan = workloads.build(args.workload, q, args.seed, args.seconds, args.size == "tiny")
    setup_main = time.perf_counter() - _START

    tally = Tally()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
    }
    # figures printed and recorded but not bounded in BENCHMARK.json: on fixed
    # lists of 4-10 distinct calls, or a call mix with two clusters, their
    # run-to-run spread exceeds the largest bound the benchmark may set
    printed = {}
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace == 0:
        setup = [setup_main] + setup_probe_times(args)
        call_times, passes = [], 0
        deadline = time.perf_counter() + DEADLINE_FACTOR * args.seconds
        for groups in plan.passes:
            times, results = run_pass(groups)
            call_times.extend(times)
            passes += 1
            tally.check(groups, results)
            if time.perf_counter() > deadline:
                break
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (pass_time(call_times, passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        call_ms = [t * 1000 for _, t in call_times]
        printed["call_p50_ms"] = (statistics.median(call_ms), f"ms (median of {len(call_ms)} calls)")
        call_tail = tail(call_ms)
        if call_tail is not None:
            printed["call_tail_ms"] = (call_tail["value_ms"],
                                       f"ms (p{call_tail['percentile']:g} of {call_tail['calls']} "
                                       f"calls, {call_tail['beyond']} beyond)")
        meta["samples"] = {"setup_s": len(setup), "passes": passes, "call_p50_ms": len(call_ms)}
        meta["setup_samples_s"] = setup
        meta["total_s"] = sum(call_ms) / 1000
        meta["call_tail"] = call_tail
    else:
        # each group runs untraced and then traced, back to back, so that both
        # sides of trace.overhead_frac see the same state of the host
        fixed = plan.passes[:plan.trace_passes]
        rec = spans.Recorder()
        plain, traced = [], []
        for groups in fixed:
            for group in groups:
                times, results = run_pass([group])
                plain.extend(times)
                tally.check([group], results)
                patcher = layers.instrument(q, rec)
                try:
                    times, results = run_pass([group], rec)
                finally:
                    patcher.restore()
                traced.extend(times)
                tally.check([group], results)
        metrics = layers.layer_metrics(rec)
        metrics["trace.overhead_frac"] = (
            pass_time(traced, len(fixed)) / pass_time(plain, len(fixed)) - 1.0, "fraction")
        meta["samples"] = {"passes": len(fixed), "spans": len(rec.spans)}
        rec.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    printed["failed_frac"] = (tally.failed / tally.attempted,
                              f"fraction ({tally.failed} of {tally.attempted} calls)")

    meta["failures"] = tally.failures
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "metrics": metrics, "printed": printed}, fh, indent=1)

    for name, (value, unit) in list(metrics.items()) + list(printed.items()):
        print(f"{name:36s} {value:.6g} {unit}")
    for failure in tally.failures[:20]:
        print(f"failure: {failure}")
    meta_line = {k: v for k, v in meta.items() if k not in ("failures", "setup_samples_s")}
    print("meta " + json.dumps(meta_line))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
