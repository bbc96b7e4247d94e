"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines with the measured values.  The expensive runs (uniform rate
studies, the singular adaptive run) are shared between criteria through
module-scoped fixtures, so the whole gate stays within the per-criterion
time budgets asserted below.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from amfem.adapt import AdaptParams, amfem, approx
from amfem.assembly import (CONSERVATION_TOL, ProblemSpec, solve_poisson,
                            as_source)
from amfem.mesh import uniform_refine
from amfem.verify import (benchmark, check_commuting, check_helmholtz,
                          check_pythagoras, check_quasiorth, check_stability,
                          fit_points, fit_rate, uniform_study,
                          _helmholtz_meshes)


def report(num, label, ok, detail):
    line = "criterion %2d (%s): %s  %s" % (num, label,
                                           "PASS" if ok else "FAIL", detail)
    print(line)
    return line


@pytest.fixture(scope="module")
def smooth_study():
    """Uniform ladder on the smooth benchmark, finest mesh ~2e4 triangles."""
    mesh0, problem = benchmark("smooth_square").make()
    t0 = time.perf_counter()
    hist = uniform_study(mesh0, problem, rounds=7)
    return hist, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lshape_uniform():
    mesh0, problem = benchmark("lshape_sing").make()
    t0 = time.perf_counter()
    hist = uniform_study(mesh0, problem, rounds=7)
    return hist, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lshape_adaptive():
    """Adaptive run on the singular benchmark, driven to ~5e4+ triangles."""
    mesh0, problem = benchmark("lshape_sing").make()
    params = AdaptParams(epsilon=0.04, theta=0.3, max_iters=200,
                         max_triangles=120000)
    t0 = time.perf_counter()
    mesh, sol, hist = amfem(mesh0, problem, params, monitors=True)
    return mesh, sol, hist, time.perf_counter() - t0


@pytest.fixture(scope="module")
def checker_adaptive():
    mesh0, problem = benchmark("checker_const").make()
    params = AdaptParams(epsilon=0.02, theta=0.3, max_iters=200,
                         max_triangles=120000)
    mesh, sol, hist = amfem(mesh0, problem, params, monitors=True)
    return mesh, sol, hist


def test_criterion_01_conservation(lshape_adaptive, checker_adaptive):
    # The solver enforces the elementwise conservation identity on every
    # solve and refuses to return otherwise; here we sweep the benchmarks
    # across depths, including the deep adaptive meshes, and report the
    # worst defect actually observed.
    assert CONSERVATION_TOL == 1e-10
    defects = []
    for name, rounds in (("smooth_square", (0, 2, 4)),
                         ("checker_const", (0, 1, 3)),
                         ("lshape_sing", (0, 2))):
        mesh0, problem = benchmark(name).make()
        for r in rounds:
            mesh = uniform_refine(mesh0, r) if r else mesh0
            defects.append(solve_poisson(mesh, problem).conservation_defect)
    defects.append(lshape_adaptive[1].conservation_defect)
    defects.append(checker_adaptive[1].conservation_defect)
    worst = max(defects)
    ok = worst <= 1e-10
    line = report(1, "conservation", ok,
                  "max defect %.3e <= 1e-10 over %d solves (adaptive meshes "
                  "up to %d triangles)" % (worst, len(defects),
                                           lshape_adaptive[0].nt))
    assert ok, line


def test_criterion_02_pythagoras():
    t0 = time.perf_counter()
    res = check_pythagoras()[0]
    dt = time.perf_counter() - t0
    ok = res.passed and dt < 10.0
    line = report(2, "three-mesh pythagoras", ok,
                  "relative defect %.3e <= 1e-8, %.1fs < 10s"
                  % (res.value, dt))
    assert ok, line


def test_criterion_03_commuting():
    t0 = time.perf_counter()
    results = check_commuting()
    dt = time.perf_counter() - t0
    worst = max(r.value for r in results)
    ok = all(r.passed for r in results) and dt < 1.0
    line = report(3, "commuting diagram", ok,
                  "max residual %.3e <= 1e-12 over %d fields, %.2fs < 1s"
                  % (worst, len(results), dt))
    assert ok, line


def test_criterion_04_helmholtz():
    t0 = time.perf_counter()
    meshes = _helmholtz_meshes()
    results = []
    for mesh in meshes:
        results.extend(check_helmholtz(mesh, seed=0))
    dt = time.perf_counter() - t0
    dims_ok = all(r.passed for r in results if r.check.endswith(".dims"))
    worst = max(r.value for r in results if not r.check.endswith(".dims"))
    ok = dims_ok and all(r.passed for r in results) and dt < 10.0
    line = report(4, "discrete helmholtz", ok,
                  "dims exact on %d meshes, worst residual %.3e <= 1e-10, "
                  "%.1fs < 10s" % (len(meshes), worst, dt))
    assert ok, line


def test_criterion_05_smooth_rate(smooth_study):
    hist, dt = smooth_study
    s = fit_rate(hist, "err", tail=4)
    ok = 0.45 <= s <= 0.55 and dt < 60.0
    line = report(5, "smooth uniform rate", ok,
                  "s = %.4f in [0.45, 0.55] (finest %d triangles), "
                  "%.1fs < 60s" % (s, int(hist.column("nT")[-1]), dt))
    assert ok, line


def test_criterion_06_singular_gap(lshape_uniform, lshape_adaptive):
    hist_u, dt_u = lshape_uniform
    mesh, _, hist_a, dt_a = lshape_adaptive
    s_u = fit_rate(hist_u, "err", tail=4)
    nT = hist_a.column("nT").astype(float)
    err = hist_a.column("err")
    keep = nT >= nT.max() / 40.0
    s_a = fit_points(nT[keep], err[keep])
    gap = s_a - s_u
    dt = dt_u + dt_a
    ok = (0.28 <= s_u <= 0.40 and 0.45 <= s_a <= 0.60
          and gap >= 0.1 and dt < 300.0)
    line = report(6, "singular rate gap", ok,
                  "uniform s = %.4f in [0.28, 0.40], adaptive s = %.4f in "
                  "[0.45, 0.60] (%d triangles, status %s), gap %.3f >= 0.1, "
                  "%.1fs < 300s" % (s_u, s_a, mesh.nt, hist_a.status,
                                    gap, dt))
    assert ok, line


def test_criterion_07_local_bound(lshape_adaptive, checker_adaptive):
    # Edges lost in one refinement step never exceed three times the
    # triangle increase; the loop asserts this internally, and the monitor
    # trail lets us re-verify it iteration by iteration here.
    worst = -1.0
    total = 0
    for hist in (lshape_adaptive[2], checker_adaptive[2]):
        n_gone = hist.monitors["n_gone"]
        nT = hist.column("nT")
        assert len(n_gone) == len(nT) - 1
        for i, g in enumerate(n_gone):
            dT = int(nT[i + 1] - nT[i])
            assert g <= 3 * dT
            worst = max(worst, g / (3.0 * dT))
        total += len(n_gone)
    ok = worst <= 1.0
    line = report(7, "combinatorial local bound", ok,
                  "n_gone <= 3*dT at all %d iterations, max share %.3f"
                  % (total, worst))
    assert ok, line


def test_criterion_08_estimator_decay(checker_adaptive):
    _, _, hist = checker_adaptive
    eta2 = hist.column("eta2")
    decays = bool(np.all(np.diff(eta2[1:]) < 0.0))
    gamma = hist.gamma_hat()
    ok = decays and gamma < 0.95
    line = report(8, "estimator decay", ok,
                  "eta2 strictly decreasing for k >= 1 over %d iterations, "
                  "gamma_hat = %.3f < 0.95" % (len(eta2), gamma))
    assert ok, line


def test_criterion_09_bounded_monitors(smooth_study, lshape_adaptive):
    stab = check_stability()[0].value
    quasi = check_quasiorth()[0].value
    upper = lshape_adaptive[2].monitors["upper_ratio"]
    upper_max = float(np.max(upper))
    hist, _ = smooth_study
    eta2 = hist.column("eta2")[-4:]
    err2 = hist.column("err")[-4:] ** 2
    eff = err2 / eta2
    eff_drift = float(eff.max() / eff.min())
    values = [stab, quasi, upper_max]
    ok = (all(np.isfinite(v) for v in values + [eff_drift])
          and np.all(np.isfinite(upper))
          and max(values) <= 10.0 and eff_drift <= 3.0)
    line = report(9, "bounded-ratio monitors", ok,
                  "stability %.3f, quasiorth %.4f, local upper max %.3f "
                  "(all <= 10); effectivity err2/eta2 in [%.4f, %.4f], "
                  "drift %.4f <= 3" % (stab, quasi, upper_max,
                                       eff.min(), eff.max(), eff_drift))
    assert ok, line


def test_criterion_10_oscillation_rate():
    mesh0, problem = benchmark("smooth_square").make()
    t0 = time.perf_counter()
    mesh, hist = approx(problem.f, uniform_refine(mesh0, 2), epsilon=2e-3)
    dt = time.perf_counter() - t0
    slope = -fit_rate(hist, "osc", tail=max(4, len(hist.records) - 2))
    ok = hist.status == "tol" and slope <= -0.9 and dt < 30.0
    line = report(10, "oscillation approximation", ok,
                  "status %s, osc slope %.3f <= -0.9 (%d triangles), "
                  "%.1fs < 30s" % (hist.status, slope, mesh.nt, dt))
    assert ok, line


def test_criterion_11_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        res = subprocess.run(
            [sys.executable, "-m", "amfem.cli", "check", "--seed", "7",
             "--out", str(out)],
            capture_output=True, text=True, env=dict(os.environ))
        assert res.returncode == 0, res.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir()
                   if p.name.startswith("check_"))
    assert names, "no report CSVs written"
    same = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
               for n in names)
    ok = same
    line = report(11, "determinism", ok,
                  "two seeded runs byte-identical across %d report CSVs"
                  % len(names))
    assert ok, line
