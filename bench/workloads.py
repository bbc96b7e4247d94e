"""The benchmark's workloads, their seeded inputs and their output checks.

Seed 0 is the canonical input of each workload.  Any other seed draws each
jittered parameter uniformly from canonical * (1 +- band), so a claim can be
re-checked on an input nobody tuned for.  The bands are narrow on purpose:
the final mesh size, and with it the run time, must stay close to the
canonical run's, or run-to-run spread would hide the changes the benchmark
is meant to show.
"""
from __future__ import annotations

import dataclasses
import gc
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from amfem import adapt, verify
from amfem.fespace import RTSpace, div_matrix
from amfem.sources import FunctionSource

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
CONSERVATION_TOL = 1e-10
REL_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    # the driver call alone: (mesh0, problem, params) -> (history, final
    # solution or None, final mesh)
    run: Callable
    canonical: dict
    bands: dict          # parameter -> relative half-width of its jitter

    def params(self, seed):
        if seed == 0:
            return dict(self.canonical)
        rng = np.random.default_rng(seed)
        out = dict(self.canonical)
        for key, band in sorted(self.bands.items()):
            out[key] = self.canonical[key] * (1.0 + band * rng.uniform(-1, 1))
        return out


def _adapt_lshape(mesh0, problem, p):
    mesh, sol, hist = adapt.amfem(
        mesh0, problem, adapt.AdaptParams(epsilon=p["epsilon"],
                                          theta=p["theta"]), monitors=True)
    return hist, sol, mesh


def _uniform_lshape(mesh0, problem, p):
    # uniform_study returns the history only; keep its last solution so
    # that the conservation of the final solution can be checked
    last = []
    solve_poisson = verify.solve_poisson

    def keep_last(mesh, spec):
        last[:] = [solve_poisson(mesh, spec)]
        return last[0]

    verify.solve_poisson = keep_last
    try:
        hist = verify.uniform_study(mesh0, problem, p["rounds"])
    finally:
        verify.solve_poisson = solve_poisson
    return hist, last[0], last[0].mesh


def _approx_smooth(mesh0, problem, p):
    mesh, hist = adapt.approx(problem.f, mesh0, p["epsilon"],
                              theta_osc=p["theta_osc"])
    return hist, None, mesh


WORKLOADS = {w.name: w for w in (
    Workload("adapt_lshape", "lshape_sing", _adapt_lshape,
             {"epsilon": 0.04, "theta": 0.3}, {"epsilon": 0.001, "theta": 0.001}),
    Workload("uniform_lshape", "lshape_sing", _uniform_lshape,
             {"rounds": 7}, {}),
    Workload("approx_smooth", "smooth_square", _approx_smooth,
             {"epsilon": 5e-4, "theta_osc": 0.5},
             {"epsilon": 0.001, "theta_osc": 0.001}),
)}


# -- outputs and their checks -------------------------------------------------

def conservation_defect(sol, f):
    """max over triangles of |div sigma_h - f_T| relative to the fluxes
    summed, recomputed from the public space and source API."""
    mesh = sol.mesh
    B = div_matrix(RTSpace(mesh))
    sig = sol.sigma.values
    rhs = FunctionSource(f).cell_integrals(mesh)
    scale = 1.0 + np.abs(rhs) + abs(B) @ np.abs(sig)
    return float(np.max(np.abs(B @ sig - rhs) / scale))


def _num(x):
    x = float(x)
    return None if math.isnan(x) else x


def outputs(hist, sol, mesh, f):
    """What a run is judged on; ``f`` is the untraced load callable."""
    last = hist.records[-1]
    out = {"status": hist.status, "iterations": len(hist.records),
           "nT": int(last.nT), "nE": int(last.nE),
           "nT_ladder": [int(r.nT) for r in hist.records],
           "eta2": _num(last.eta2), "osc2": _num(last.osc2),
           "err": _num(last.err)}
    if sol is not None:
        out["defect"] = conservation_defect(sol, f)
    else:
        out["osc2_recomputed"] = float(
            (mesh.tri_h ** 2 * FunctionSource(f).cell_osc2(mesh)).sum())
    return out


def _close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= REL_TOL * abs(b)


def check(out, params, reference=None):
    """List of problems with a run's outputs; empty when they are right.
    ``reference`` holds the canonical outputs and applies only to a run on
    the canonical parameters."""
    problems = []
    if out["status"] != "tol":
        problems.append("status %r, expected 'tol'" % out["status"])
    if "defect" in out and not out["defect"] <= CONSERVATION_TOL:
        problems.append("conservation defect %.3e > %.0e"
                        % (out["defect"], CONSERVATION_TOL))
    if "osc2_recomputed" in out:
        if not _close(out["osc2_recomputed"], out["osc2"]):
            problems.append("osc2 %r but recomputed %r"
                            % (out["osc2"], out["osc2_recomputed"]))
        if not math.sqrt(out["osc2"]) <= params["epsilon"]:
            problems.append("sqrt(osc2) %.6g above epsilon %.6g"
                            % (math.sqrt(out["osc2"]), params["epsilon"]))
    elif "epsilon" in params and not math.sqrt(out["eta2"]) < params["epsilon"]:
        problems.append("sqrt(eta2) %.6g not below epsilon %.6g"
                        % (math.sqrt(out["eta2"]), params["epsilon"]))
    if reference is not None and reference["params"] == params:
        ref = reference["outputs"]
        for key in ("status", "iterations", "nT", "nE", "nT_ladder"):
            if out[key] != ref[key]:
                problems.append("%s %r, reference %r" % (key, out[key], ref[key]))
        for key in ("eta2", "osc2", "err"):
            if not _close(out[key], ref[key]):
                problems.append("%s %r, reference %r" % (key, out[key], ref[key]))
    return problems


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# -- one attempt ----------------------------------------------------------------

@dataclass
class Attempt:
    wall_s: float
    outputs: dict
    problems: list


def attempt(workload, params, reference=None, tracer=None):
    """Make the inputs, time the driver call alone, then check its outputs.
    With a tracer, the layers are wrapped for the driver call only."""
    mesh0, problem = verify.benchmark(workload.benchmark).make()
    f = problem.f
    if tracer is not None:
        problem = dataclasses.replace(problem, f=tracer.wrap_load(f))
        tracer.install()
    gc.collect()
    t0 = time.perf_counter()
    try:
        result = workload.run(mesh0, problem, params)
    except Exception as exc:    # a failed run is counted, not fatal
        return Attempt(time.perf_counter() - t0, {},
                       ["raised %s: %s" % (type(exc).__name__, exc)])
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    out = outputs(*result, f)
    del result
    return Attempt(wall, out, check(out, params, reference))
