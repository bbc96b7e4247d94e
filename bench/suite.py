"""Run every workload of the benchmark on several seeds and summarize.

    python3 bench/suite.py [--workloads NAME ...] [--seeds 0 1 ... 9]
                           [--trace 0|1] [--out FILE]

Each run is one ``bench/run.py`` process with BENCHMARK.json's run_seconds;
runs go one at a time.  For every workload it prints fail_ratio (failed
over attempted driver calls, all runs together) and, per metric, the
median over the runs and the distance between the first and third quartile
(statistics.quantiles with n=4) as a share of the median, next to the
metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from run import ROOT, quartiles


def run_once(workload, seed, seconds, trace):
    """The result line of one run, and the run's elapsed seconds."""
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("%s failed:\n%s" % (" ".join(cmd), proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workloads:
        runs = []
        elapsed = []
        for seed in args.seeds:
            res, took = run_once(workload, seed, spec["run_seconds"],
                                 args.trace)
            runs.append(res)
            elapsed.append(took)
            print("%s seed %d took %.1f s correct=%s %s" % (
                workload, seed, took, res["correct"],
                " ".join("%s=%.6g" % (k, v["value"])
                         for k, v in res["metrics"].items())), flush=True)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        summary[workload] = {"seeds": args.seeds, "metrics": {},
                             "failed": failed, "attempted": attempted,
                             "run_elapsed_s": elapsed}
        print("  %-34s %.6g (%d of %d driver calls)"
              % ("fail_ratio", failed / attempted, failed, attempted))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            summary[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "unit": runs[0]["metrics"][name]["unit"], "values": vals}
            bound = bounds.get(name) if not args.trace else None
            print("  %-34s median %12.6g  spread %.4f%s" % (
                name, med, spread,
                "  (bound %.2f)" % bound if bound is not None else ""),
                flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
