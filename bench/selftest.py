"""Fast self-test of the benchmark harness on a tiny adapt_lshape variant.

    python3 bench/selftest.py

Runs the adaptive loop on lshape_sing at epsilon=0.2 (a few thousand
triangles) and checks that spans nest inside one driver span, that the
per-layer self times plus trace.unattributed_s add up to the traced wall
time, that the counts repeat exactly between two traced runs, that the
wrappers are gone after a traced call, and that outputs differing from the
reference count as a failed run.  Prints one line per failed check and
exits with 1 if there is any.
"""
import copy
import sys

from run import SRC

sys.path.insert(0, SRC)
import scipy.sparse.linalg as spla  # noqa: E402

from amfem import assembly, mesh  # noqa: E402
from spans import COUNT_METRICS, SELF_TIME_METRIC, Tracer  # noqa: E402
from workloads import WORKLOADS, attempt  # noqa: E402

TINY = {"epsilon": 0.2, "theta": 0.3}
WORKLOAD = WORKLOADS["adapt_lshape"]
# layers the adaptive loop must pass through
USED = ("mesh.refine_s", "mesh.rebuild_s", "mesh.ancestor_map_s",
        "assembly.factor_s", "assembly.assemble_s", "assembly.solve_checks_s",
        "assembly.error_sigma_s", "estimator.estimate_s",
        "estimator.oscillation_s", "sources.f_s", "adapt.dorfler_mark_s",
        "adapt.driver_self_s", "fespace.prolongate_s")

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL %s" % what)


def traced_attempt(run_id):
    tracer = Tracer(run_id)
    run = attempt(WORKLOAD, TINY, tracer=tracer)
    expect(not run.problems, "%s: traced run has problems %s"
           % (run_id, run.problems))
    return tracer, run


def check_spans(tracer, wall):
    spans = tracer.spans
    roots = [s for s in spans if s.parent < 0]
    expect(len(roots) == 1 and roots[0].name == "adapt.amfem",
           "one driver span at the root, got %s" % [s.name for s in roots])
    for s in spans:
        expect(s.run == tracer.run_id, "span %d has run id %r" % (s.id, s.run))
        if s.parent >= 0:
            p = spans[s.parent]
            expect(p.start <= s.start <= s.end <= p.end,
                   "span %d (%s) lies outside its parent %d (%s)"
                   % (s.id, s.name, p.id, p.name))
    own = tracer.self_times()
    expect(min(own) >= 0.0, "a negative self time: %r" % min(own))
    root = roots[0]
    expect(abs(sum(own) - (root.end - root.start)) <= 1e-9 * len(spans),
           "self times do not partition the driver span")
    metrics = tracer.layer_metrics(wall)
    attributed = sum(metrics[m] for m in set(SELF_TIME_METRIC.values()))
    expect(abs(attributed + metrics["trace.unattributed_s"] - wall) <= 1e-9,
           "self times plus unattributed %.9f differ from wall %.9f"
           % (attributed + metrics["trace.unattributed_s"], wall))
    expect(0.0 <= metrics["trace.unattributed_s"] <= 0.05 * wall,
           "unattributed %.6f s of %.6f s"
           % (metrics["trace.unattributed_s"], wall))
    for name in USED:
        expect(metrics[name] > 0.0, "no time recorded for %s" % name)
    return metrics


def main():
    first, run1 = traced_attempt("selftest_1")
    second, run2 = traced_attempt("selftest_2")
    expect(assembly.spla is spla and "traced" not in repr(mesh.Mesh.__init__),
           "wrappers still installed after the traced call")
    m1 = check_spans(first, run1.wall_s)
    m2 = check_spans(second, run2.wall_s)
    for name in COUNT_METRICS + ("mesh.bisections_per_marked_edge",
                                 "assembly.fill_ratio"):
        expect(m1[name] == m2[name], "%s differs between traced runs: %r vs %r"
               % (name, m1[name], m2[name]))
    expect(m1["assembly.solves"] == run1.outputs["iterations"],
           "one solve per iteration")

    reference = {"params": dict(TINY), "outputs": run1.outputs}
    ok = attempt(WORKLOAD, TINY, reference)
    expect(not ok.problems, "the run's own reference fails: %s" % ok.problems)
    for key, wrong in (("nT", run1.outputs["nT"] + 1),
                       ("eta2", run1.outputs["eta2"] * (1 + 1e-9))):
        bad = copy.deepcopy(reference)
        bad["outputs"][key] = wrong
        run = attempt(WORKLOAD, TINY, bad)
        expect(any(key in p for p in run.problems),
               "a wrong reference %s passes" % key)
    print("selftest: %d failed checks, %d spans per traced run, wall %.3f s"
          % (len(failures), len(first.spans), run1.wall_s))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
