"""Run one amfem benchmark workload and print its metrics.

    python3 bench/run.py --workload adapt_lshape --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run measures set-up (importing
the package plus ``benchmark(name).make()``, median of several fresh
processes), then repeats the driver call until ``--seconds`` are used up,
checking every call's outputs, and reports the end-to-end metrics listed in
BENCHMARK.json.  With ``--trace 1`` it makes one untraced and one traced
driver call and reports the per-layer metrics; the spans go to
``.bench_out/``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 6       # half before the driver calls, half after

_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, %r)
import amfem
from amfem.verify import benchmark
benchmark(%r).make()
print(repr(time.perf_counter() - t0))
"""


def _cap_threads():
    """Cap the BLAS/OpenMP thread variables at nproc (unset means nproc);
    must run before numpy is imported."""
    for var in THREAD_VARS:
        try:
            n = int(os.environ.get(var, NPROC))
        except ValueError:
            n = NPROC
        os.environ[var] = str(min(max(n, 1), NPROC))
    return {var: int(os.environ[var]) for var in THREAD_VARS}


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _setup_seconds(benchmark_name, n):
    """``n`` timings of import plus make() in a fresh interpreter each; an
    untimed probe first fills the bytecode and file caches."""
    code = _PROBE % (SRC, benchmark_name)
    times = []
    for i in range(n + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def quartiles(values):
    """First and third quartile; both are the value itself for one value."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def timed_run(workload, params, reference, seconds):
    """End-to-end metrics: driver calls until the time is used up."""
    from workloads import attempt

    # set-up is sampled on both sides of the driver calls, because the
    # machine's speed drifts over tens of seconds
    setup = _setup_seconds(workload.benchmark, SETUP_SAMPLES // 2)
    attempts = []
    start = time.perf_counter()
    while True:
        attempts.append(attempt(workload, params, reference))
        # stop before a call that would end past the deadline
        if time.perf_counter() - start + attempts[-1].wall_s > seconds:
            break
    setup += _setup_seconds(workload.benchmark, SETUP_SAMPLES // 2)
    walls = [a.wall_s for a in attempts]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_mb}
    samples = {"wall_s": walls, "setup_s": setup, "peak_rss_mb": [peak_mb]}
    return attempts, metrics, samples


def traced_run(workload, params, reference, run_id):
    """Per-layer metrics from one traced driver call, plus the untraced
    call that the tracing overhead is measured against."""
    from spans import Tracer
    from workloads import attempt

    plain = attempt(workload, params, reference)
    tracer = Tracer(run_id)
    traced = attempt(workload, params, reference, tracer)
    metrics = tracer.layer_metrics(traced.wall_s)
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, run_id + "_spans.csv"), "w") as fh:
        fh.write(tracer.to_csv())
    return [plain, traced], metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for need in (os.path.join(SRC, "amfem", "__init__.py"), spec_path):
        if not os.path.isfile(need):
            print("error: %s is missing; run from the root of a source "
                  "checkout" % need, file=sys.stderr)
            return 2
    with open(spec_path) as fh:
        spec = json.load(fh)

    threads = _cap_threads()
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy
    import amfem
    from workloads import WORKLOADS, load_reference

    if not os.path.abspath(amfem.__file__).startswith(SRC + os.sep):
        print("error: amfem imported from %s, not %s" % (amfem.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    params = workload.params(args.seed)
    reference = load_reference().get(args.workload)
    run_id = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    env = {"nproc": NPROC, "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__,
           "threads": threads, "commit": _git_commit()}
    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d params %s"
          % (args.workload, args.seed, json.dumps(params, sort_keys=True)))

    if args.trace:
        attempts, metrics, samples = traced_run(workload, params, reference,
                                                run_id)
        listed = spec["per_layer"]
    else:
        attempts, metrics, samples = timed_run(workload, params, reference,
                                               args.seconds)
        listed = spec["end_to_end"]

    failed = sum(1 for a in attempts if a.problems)
    for i, a in enumerate(attempts):
        for problem in a.problems:
            print("FAIL call %d: %s" % (i, problem), file=sys.stderr)
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in listed}
    for name, entry in result.items():
        line = "%-36s %14.6g %-6s" % (name, entry["value"], entry["unit"])
        if name in samples:
            q1, q3 = quartiles(samples[name])
            line += " median of %d (q1 %.6g, q3 %.6g)" % (
                len(samples[name]), q1, q3)
        print(line)
    print("%-36s %14.6g %-6s %d failed of %d calls"
          % ("fail_ratio", failed / len(attempts), "ratio", failed,
             len(attempts)))

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, run_id + ".json"), "w") as fh:
        json.dump({"env": env, "params": params, "metrics": result,
                   "samples": samples,
                   "problems": [a.problems for a in attempts],
                   "outputs": [a.outputs for a in attempts]},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(attempts),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
