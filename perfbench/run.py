"""Run one eps-planner benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-wide --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. The
workload runs in this process as a closed loop with one client for
--seconds, every output is checked, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones in BENCHMARK.json, timed
with no tracing, and each request's latency is divided by the time of
a reference kernel (calibration.py) run beside it; with --trace 1 they are the per-layer ones, from passes
over a fixed request list with the tracer installed. The line before it
holds the run record: environment, inputs, the per-class latencies and
the checks' details. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

# pinned before numpy is first imported; OpenBLAS would default to nproc
BLAS_THREADS = 1
# set-up runs at least SETUP_REPEATS times, and cheap ones repeat until
# SETUP_MIN_S is spent, so that their median is steady too
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
# requests of each class a timed run makes at least, past --seconds
MIN_PER_CLASS = 3
# traced runs repeat at least this many (untraced, traced) pass pairs
MIN_TRACE_PAIRS = 2
# failure messages shown on standard error; all failures are counted
SHOWN_FAILURES = 5

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def pin_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # the CLI reads its default seed from here; requests always pass --seed
    os.environ.pop("EPS_PLANNER_SEED", None)


def import_package():
    """Import eps_planner from this checkout's sources, or exit with 1."""
    init = os.path.join(SRC, "eps_planner", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: {init} not found; run from the root of an eps-planner checkout")
    sys.path.insert(0, SRC)
    import eps_planner

    if os.path.realpath(eps_planner.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported eps_planner from {eps_planner.__file__}, not {init}")
    # the tracer patches these modules, so load all of them up front
    import eps_planner.cli  # noqa: F401
    import eps_planner.experiments  # noqa: F401

    return eps_planner


def _openblas_threads(package) -> int | None:
    """Thread count of the OpenBLAS a numpy or scipy wheel bundles, if any."""
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, package.__name__ + ".libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_vendor": vendor,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_numpy": _openblas_threads(numpy),
        "blas_threads_scipy": _openblas_threads(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


@dataclass
class Outcome:
    index: int
    cls: str
    seconds: float
    output: object
    error: str | None


def timed_request(wl, state, seed: int, i: int) -> Outcome:
    cls, thunk = wl.request(state, seed, i)
    t0 = time.perf_counter()
    try:
        output, error = thunk(), None
    except Exception as exc:  # a failed request is counted, and the loop goes on
        output, error = None, f"{type(exc).__name__}: {exc}"
    return Outcome(i, cls, time.perf_counter() - t0, output, error)


def check_outcomes(wl, state, seed: int, outcomes) -> list[str]:
    """Untimed output checks; returns one message per failed request."""
    from workloads import CheckFailed

    failures = []
    for o in outcomes:
        if o.error is not None:
            failures.append(f"request {o.index} ({o.cls}) raised {o.error}")
            continue
        try:
            wl.check(state, seed, o.index, o.output)
        except CheckFailed as exc:
            failures.append(f"request {o.index} ({o.cls}): {exc}")
        except Exception as exc:  # the check itself broke: still a failed request
            failures.append(f"request {o.index} ({o.cls}) check raised {type(exc).__name__}: {exc}")
    return failures


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def by_class(wl, outcomes, value) -> dict:
    out = {c: [] for c in wl.classes}
    for o in outcomes:
        if o.error is None:
            out[o.cls].append(value(o))
    return out


def class_summary(lat: dict, ref: dict) -> dict:
    """Per-class sample count, minimum, median and, from 100 samples on,
    the 90th percentile: the highest one with ten samples beyond it; and
    the median latency in reference-kernel units."""
    out = {}
    for cls, xs in lat.items():
        entry = {"n": len(xs), "min_s": min(xs) if xs else None,
                 "p50_s": statistics.median(xs) if xs else None,
                 "p50_ref": statistics.median(ref[cls]) if ref[cls] else None}
        if len(xs) >= 100:
            entry["p90_s"] = statistics.quantiles(xs, n=10)[-1]
        out[cls] = entry
    return out


def seconds_of(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_timed(wl, seed: int, seconds: float, workdir: str):
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or (
        sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPEATS
    ):
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_s.append(time.perf_counter() - t0)

    kernel = wl.reference()
    kernel()  # warm-up
    # kernel run i comes just before request i, and run i + 1 just after it
    kernel_s = [seconds_of(kernel)]
    outcomes, counts = [], dict.fromkeys(wl.classes, 0)
    start, i = time.perf_counter(), 0
    while True:
        o = timed_request(wl, state, seed, i)
        kernel_s.append(seconds_of(kernel))
        outcomes.append(o)
        counts[o.cls] += 1
        i += 1
        if time.perf_counter() - start >= seconds and min(counts.values()) >= MIN_PER_CLASS:
            break
    failures = check_outcomes(wl, state, seed, outcomes)

    lat = by_class(wl, outcomes, lambda o: o.seconds)
    ref = by_class(
        wl, outcomes, lambda o: o.seconds / (0.5 * (kernel_s[o.index] + kernel_s[o.index + 1]))
    )
    rss = peak_rss_mb()
    # latency over the reference kernel's time beside it: the host's speed
    # swings for longer than a run, and this ratio does not swing with it
    metrics = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "round_ref": {"value": sum(statistics.median(xs) for xs in ref.values() if xs),
                      "unit": "ref"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    named = {k: {"value": v, "unit": "s"} for k, v in wl.named_metrics(lat).items()}
    named["round_p50_s"] = {
        "value": sum(statistics.median(xs) for xs in lat.values() if xs), "unit": "s",
    }
    named["round_min_s"] = {"value": sum(min(xs) for xs in lat.values() if xs), "unit": "s"}
    named["failed_frac"] = {
        "value": len(failures) / len(outcomes), "unit": "ratio",
        "failed": len(failures), "attempted": len(outcomes),
    }
    record = {
        "setup_s_samples": setup_s,
        "kernel_s": {"n": len(kernel_s), "min_s": min(kernel_s),
                     "p50_s": statistics.median(kernel_s), "max_s": max(kernel_s)},
        "classes": class_summary(lat, ref),
        "workload_metrics": named,
        "checks": wl.notes(state),
    }
    return metrics, len(outcomes), failures, [], record


def run_traced(wl, seed: int, seconds: float, workdir: str):
    from tracer import Tracer, metric_unit

    with Tracer() as tracer:
        state = wl.setup(seed, workdir)
    setup_trace = tracer.trace

    pairs, failures, problems, attempted = [], [], [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain = [timed_request(wl, state, seed, i) for i in wl.trace_pass]
        wall_plain = time.perf_counter() - t0
        with Tracer() as tracer:
            missed = tracer.missed_bindings()
            t0 = time.perf_counter()
            traced = [timed_request(wl, state, seed, i) for i in wl.trace_pass]
            wall_traced = time.perf_counter() - t0
        if missed:
            problems.append(f"tracer left bindings unwrapped: {missed}")
        # both passes rerun the same requests, so check each before the next
        failures += check_outcomes(wl, state, seed, plain + traced)
        attempted += len(plain) + len(traced)
        pairs.append((wall_plain, wall_traced, tracer.trace))
        if time.perf_counter() - start >= seconds and len(pairs) >= MIN_TRACE_PAIRS:
            break

    counts = [tr.work_counts() for _, _, tr in pairs]
    if any(c != counts[0] for c in counts):
        problems.append("work counters differ between identical traced passes")
    times = [tr.self_times() for _, _, tr in pairs]
    metrics = dict(counts[0])
    for key in times[0]:
        metrics[key] = statistics.median(t[key] for t in times)
    metrics["data.gen_synthetic.self_s"] = setup_trace.stats("data.gen_synthetic").self_s
    wall = statistics.median(w for _, w, _ in pairs)
    wall_plain = statistics.median(w for w, _, _ in pairs)
    metrics["trace.wall_s"] = wall
    metrics["trace.remainder_s"] = wall - metrics["trace.layers_self_s"]
    metrics["trace.overhead_frac"] = wall / wall_plain - 1.0
    metrics = {k: {"value": v, "unit": metric_unit(k)} for k, v in metrics.items()}
    record = {
        "passes": len(pairs),
        "pass_requests": list(wl.trace_pass),
        "coverage": {
            "wall_s": wall,
            "layers_self_s": metrics["trace.layers_self_s"]["value"],
            "remainder_s": metrics["trace.remainder_s"]["value"],
        },
        "checks": wl.notes(state),
    }
    return metrics, attempted, failures, problems, record


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("plan-wide", "tables-sgd", "cli-ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = run_traced if args.trace else run_timed
        metrics, attempted, failures, problems, record = run(
            wl, args.seed, args.seconds, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(os.path.dirname(workdir))

    # a failed request is counted in "failed"; a broken counter or tracer
    # is a problem of the run itself, which makes the run not correct
    for msg in problems + failures[:SHOWN_FAILURES]:
        print(f"perfbench: {msg}", file=sys.stderr)
    info = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": wl.inputs(), "environment": environment(),
        "problems": problems, **record,
    }
    if args.trace:
        c = record["coverage"]
        print(f"coverage {wl.name}: wall {c['wall_s']:.4f} s per pass, named layers "
              f"{c['layers_self_s']:.4f} s, untraced remainder {c['remainder_s']:.4f} s")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
