import csv

import numpy as np
import pytest

from amfem.adapt import ConvergenceHistory
from amfem.assembly import ProblemSpec
from amfem.fespace import RTSpace, div_matrix
from amfem.mesh import uniform_refine
from amfem.verify import (SUITES, CheckResult, benchmark, benchmark_names,
                          check_helmholtz, fit_points, fit_rate,
                          helmholtz_split, lshape_f, lshape_mesh, lshape_sigma,
                          run_suite, smooth_f, smooth_sigma, suite_csv,
                          suite_draws, uniform_study, unit_square_mesh)


def smooth_u(x, y):
    """The exact potential of ``smooth_square``."""
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def lshape_u(x, y):
    """The exact potential of ``lshape_sing``, (1-x^2)(1-y^2) r^(2/3)
    sin(2 theta/3) with theta in [0, 2 pi)."""
    th = np.arctan2(y, x)
    th = np.where(th < 0.0, th + 2.0 * np.pi, th)
    return ((1.0 - x * x) * (1.0 - y * y) * np.hypot(x, y) ** (2.0 / 3.0)
            * np.sin(2.0 * th / 3.0))


def interior_lshape_points(rng, n):
    pts = []
    while len(pts) < n:
        x, y = rng.uniform(-0.97, 0.97, 2)
        if x > 0.03 and y < -0.03:
            continue                      # removed quadrant
        if np.hypot(x, y) < 0.05:
            continue                      # singular corner
        if x > 0 and abs(y) < 0.03:
            continue                      # next to the branch cut
        if abs(x) < 0.03 and y < 0:
            continue
        pts.append((x, y))
    return np.array(pts)


def test_smooth_solution_identities():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, 50)
    y = rng.uniform(0.0, 1.0, 50)
    lap = -2.0 * np.pi ** 2 * smooth_u(x, y)
    assert np.allclose(-lap, smooth_f(x, y), atol=1e-12)
    h = 1e-6
    gx = (smooth_u(x + h, y) - smooth_u(x - h, y)) / (2.0 * h)
    gy = (smooth_u(x, y + h) - smooth_u(x, y - h)) / (2.0 * h)
    sx, sy = smooth_sigma(x, y)
    assert np.max(np.abs(sx + gx)) < 1e-8
    assert np.max(np.abs(sy + gy)) < 1e-8


def test_lshape_f_matches_fd_laplacian():
    rng = np.random.default_rng(2)
    pts = interior_lshape_points(rng, 20)
    h = 1e-5
    x, y = pts[:, 0], pts[:, 1]
    lap = (lshape_u(x + h, y) + lshape_u(x - h, y) + lshape_u(x, y + h)
           + lshape_u(x, y - h) - 4.0 * lshape_u(x, y)) / h ** 2
    assert np.max(np.abs(-lap - lshape_f(x, y))) < 5e-5


def test_lshape_sigma_matches_fd_gradient():
    rng = np.random.default_rng(3)
    pts = interior_lshape_points(rng, 20)
    h = 1e-6
    x, y = pts[:, 0], pts[:, 1]
    gx = (lshape_u(x + h, y) - lshape_u(x - h, y)) / (2.0 * h)
    gy = (lshape_u(x, y + h) - lshape_u(x, y - h)) / (2.0 * h)
    sx, sy = lshape_sigma(x, y)
    assert np.max(np.abs(sx + gx)) < 1e-6
    assert np.max(np.abs(sy + gy)) < 1e-6


def test_lshape_u_vanishes_on_boundary():
    t = np.linspace(0.0, 1.0, 41)
    segs = [
        ((0.0, 0.0), (1.0, 0.0)),       # reentrant edge along +x
        ((0.0, 0.0), (0.0, -1.0)),      # reentrant edge along -y
        ((1.0, 0.0), (1.0, 1.0)),
        ((1.0, 1.0), (-1.0, 1.0)),
        ((-1.0, 1.0), (-1.0, -1.0)),
        ((-1.0, -1.0), (0.0, -1.0)),
    ]
    for (x0, y0), (x1, y1) in segs:
        x = x0 + t * (x1 - x0)
        y = y0 + t * (y1 - y0)
        assert np.max(np.abs(lshape_u(x, y))) < 1e-13


def test_benchmark_registry():
    names = benchmark_names()
    assert set(names) == {"smooth_square", "lshape_sing", "checker_const"}
    b = benchmark("SMOOTH_SQUARE")        # case-insensitive
    m1, p1 = b.make()
    m2, p2 = b.make()
    assert m1 is not m2                   # factories give fresh meshes
    assert p1.sigma_exact is not None
    with pytest.raises(KeyError):
        benchmark("no_such_benchmark")


def test_checker_benchmark_source_is_p0():
    m, prob = benchmark("checker_const").make()
    vals = prob.f.cell_means(m)
    assert sorted(vals.tolist()) == [-1.0, 1.0]
    assert prob.sigma_exact is None


def test_fit_rate_recovers_synthetic_slope():
    h = ConvergenceHistory()
    for k in range(6):
        n = 4 * 2 ** k
        h.add(k=k, stage="amfem", nT=n, nE=n, eta2=(3.0 * n ** -0.5) ** 2,
              osc2=0.0, err=3.0 * n ** -0.5, n_marked=0, n_bisected=0,
              wall_ms=0.0)
    s = fit_rate(h, "err")
    assert type(s) is float and s == pytest.approx(0.5, abs=1e-12)
    assert fit_rate(h, "eta") == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("tail", [1, 0, -1])
def test_fit_rate_rejects_a_tail_below_two(tail):
    mesh0, prob = benchmark("smooth_square").make()
    hist = uniform_study(mesh0, prob, 3)
    with pytest.raises(ValueError, match="tail must be at least 2"):
        fit_rate(hist, "eta", tail=tail)
    # a tail fits the last records
    ns, eta = hist.column("nT"), np.sqrt(hist.column("eta2"))
    assert fit_rate(hist, "eta", tail=2) == fit_points(ns[-2:], eta[-2:])


def test_fit_points_requires_two_points():
    with pytest.raises(ValueError):
        fit_points([10.0], [1.0])


def test_fit_rate_tail_window():
    ns = [2, 4, 8, 16, 32, 64]
    errs = [100.0, 100.0, 8.0, 4.0, 2.0, 1.0]   # clean rate only in the tail
    s = fit_points(ns[-4:], errs[-4:])
    assert type(s) is float and s == pytest.approx(1.0, abs=1e-12)


def test_uniform_study_structure():
    mesh0, prob = benchmark("smooth_square").make()
    hist = uniform_study(mesh0, prob, 3)
    assert len(hist.records) == 4
    assert np.array_equal(hist.column("nT"), [2, 8, 32, 128])
    assert all(r.stage == "uniform" for r in hist.records)
    # the two-triangle start is preasymptotic; decay is clean from there on
    errs = hist.column("err")
    assert np.all(np.diff(errs[1:]) < 0)


def test_helmholtz_split_reconstructs():
    m = uniform_refine(unit_square_mesh(), 2)
    rng = np.random.default_rng(11)
    sigma = rng.standard_normal((3, m.ne))
    psi, phi, curl_part, grad_part = helmholtz_split(RTSpace(m), sigma)
    assert psi.shape == (3, m.nv) and phi.shape == (3, m.nt)
    assert curl_part.shape == grad_part.shape == (3, m.ne)
    assert np.max(np.abs(curl_part + grad_part - sigma)) < 1e-10
    # the curl part is the curl of psi, the gradient part carries all of
    # the divergence
    a, b = m.edge_verts.T
    assert np.max(np.abs(curl_part - (psi[:, b] - psi[:, a]))) < 1e-13
    B = div_matrix(RTSpace(m))
    assert np.max(np.abs(B @ (grad_part - sigma).T)) < 1e-10
    # dimensions: ne = (nv - 1) + nt
    assert m.ne == (m.nv - 1) + m.nt


def test_check_helmholtz_clean_on_square():
    results = check_helmholtz(uniform_refine(unit_square_mesh()), seed=3)
    assert all(r.passed for r in results)


def test_check_helmholtz_factors_the_cr_matrix_once(monkeypatch):
    """One Crouzeix-Raviart and one P1 factorization per call, both through
    ``assembly.spla``, and one recovery, with its residual and conservation
    checks, per field.  The Crouzeix-Raviart factor is of the multipliers
    the elimination passes leave: 3 of the 40 on this mesh."""
    from types import SimpleNamespace
    from amfem import assembly, verify
    from amfem.fespace import RTSpace
    factored, recovered = [], []
    splu, recover = assembly.spla.splu, verify.recover

    def counting_splu(A, *args, **kwargs):
        factored.append(A.shape)
        return splu(A, *args, **kwargs)

    def counting_recover(cond, rhs_u):
        recovered.append(rhs_u)
        return recover(cond, rhs_u)

    mesh = uniform_refine(unit_square_mesh(), 2)
    n = assembly.condense(RTSpace(mesh)).lu.shape[0]
    monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=counting_splu))
    monkeypatch.setattr(verify, "recover", counting_recover)
    results = check_helmholtz(mesh)
    assert all(r.passed for r in results)
    assert len(recovered) == 11
    assert np.count_nonzero(~mesh.edge_boundary) == 40
    assert factored == [(n, n), (mesh.nv - 1, mesh.nv - 1)] == [
        (3, 3), (24, 24)]


def test_all_suites_pass():
    for name in sorted(SUITES):
        results = run_suite(name, seed=7)
        bad = [r.check for r in results if not r.passed]
        assert not bad, "failed checks in %s: %s" % (name, bad)


def test_suite_csv_deterministic_and_parsable():
    # the helmholtz names hold a comma, so only csv quoting keeps them whole
    for suite in ("marking", "helmholtz"):
        results = run_suite(suite, seed=7)
        a = suite_csv(results)
        assert a == suite_csv(run_suite(suite, seed=7))
        rows = list(csv.reader(a.splitlines()))
        assert rows[0] == ["check", "value", "threshold", "pass"]
        assert all(len(row) == 4 for row in rows)
        assert [row[0] for row in rows[1:]] == [r.check for r in results]
        for check, value, threshold, ok in rows[1:]:
            float(value), float(threshold)
            assert ok in ("0", "1")


def test_suite_seed_changes_recorded_values():
    a = suite_csv(run_suite("helmholtz", seed=1))
    b = suite_csv(run_suite("helmholtz", seed=2))
    assert a != b                # seed row differs even if checks all pass


def test_seeded_suites_lead_with_their_seed():
    assert [n for n in sorted(SUITES) if suite_draws(n)] == [
        "estimator", "helmholtz", "marking"]
    assert run_suite("marking", seed=4)[0] == CheckResult(
        "marking.seed", 4.0, 4.0, True)


@pytest.mark.parametrize("suite", ["approx", "identities", "mesh"])
def test_suites_that_draw_nothing_ignore_the_seed(suite):
    assert not suite_draws(suite)
    a = suite_csv(run_suite(suite, seed=0))
    assert a == suite_csv(run_suite(suite, seed=1))
    assert "seed" not in a


def test_uniform_study_rejects_negative_rounds():
    mesh0, prob = benchmark("smooth_square").make()
    with pytest.raises(ValueError, match="rounds must be nonnegative"):
        uniform_study(mesh0, prob, -1)


def test_uniform_study_evaluates_load_once_per_mesh():
    mesh0, prob = benchmark("smooth_square").make()
    calls = []

    def load(x, y):
        calls.append(x.size)
        return smooth_f(x, y)

    hist = uniform_study(mesh0, ProblemSpec(f=load, sigma_exact=smooth_sigma),
                         3)
    assert calls == [6 * r.nT for r in hist.records]


def test_uniform_study_wall_ms_covers_the_whole_round(monkeypatch):
    import time
    from amfem import verify
    real = verify.uniform_refine

    def slow_refine(mesh, rounds=1):
        time.sleep(0.05)
        return real(mesh, rounds)

    monkeypatch.setattr(verify, "uniform_refine", slow_refine)
    mesh0, prob = benchmark("smooth_square").make()
    hist = uniform_study(mesh0, prob, 2)
    assert all(r.wall_ms >= 50.0 for r in hist.records[1:])
