"""Benchmarks, convergence-rate fitting, and structural check suites.

Benchmarks ship with closed-form data: a smooth sine load on the unit
square, a corner singularity on the L-shaped domain (cut off smoothly away
from the corner so the load has a closed form too), and a piecewise
constant checkerboard load whose oscillation is exactly zero on every mesh.

The check suites re-derive the key structural identities numerically
(discrete Helmholtz decomposition, nested-solution orthogonality, the
commuting projection/interpolation diagram, estimator scaling, marking
minimality) and report one pass/fail row per check.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .adapt import (AdaptParams, ConvergenceHistory, MarkSet, amfem, approx,
                    dorfler_mark, osc_mark, _coarse_dev2, _coarse_osc2,
                    _patch_pos)
from .assembly import (ProblemSpec, SaddleSystem, error_sigma, solve,
                       solve_poisson)
from .estimator import EstimatorReport, estimate, indicator_edges
from .fespace import (DofVector, RTSpace, P0Space, curl_p1, div_matrix,
                      div_rt, interpolate_rt, l2_project, prolongate,
                      rt_mass_matrix)
from .mesh import load_mesh, triangle_angles, uniform_refine
from .sources import P0Source, as_source

__all__ = ["Benchmark", "RateFit", "CheckResult", "fit_rate", "fit_points",
           "benchmark", "benchmark_names", "unit_square_mesh", "lshape_mesh",
           "uniform_study", "check_helmholtz", "check_identities",
           "run_suite", "suite_csv", "SUITES"]


# -- meshes ----------------------------------------------------------------

_SQUARE = """\
amfemmesh 1
4 2
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
0 1 2 -
0 2 3 -
"""

_LSHAPE = """\
amfemmesh 1
8 6
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
-1.0 1.0
-1.0 0.0
-1.0 -1.0
0.0 -1.0
0 1 2 -
0 2 3 -
0 3 4 -
0 4 5 -
0 5 6 -
0 6 7 -
"""


def unit_square_mesh():
    return load_mesh(_SQUARE)


def lshape_mesh():
    return load_mesh(_LSHAPE)


# -- closed-form benchmark data ---------------------------------------------

def smooth_u(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def smooth_f(x, y):
    return 2.0 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)


def smooth_sigma(x, y):
    return (-np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
            -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y))


def _polar(x, y):
    r = np.hypot(x, y)
    th = np.arctan2(y, x)
    th = np.where(th < 0.0, th + 2.0 * np.pi, th)
    return r, th


def _sing_grad(r, th):
    """Gradient of S = r^(2/3) sin(2 theta / 3), which is harmonic away from
    the origin.  Returned as Cartesian components, zero at the origin (the
    actual r^(-1/3) blow-up there is integrable)."""
    pos = r > 0.0
    rr = np.where(pos, r, 1.0)
    amp = np.where(pos, (2.0 / 3.0) * rr ** (-1.0 / 3.0), 0.0)
    return -amp * np.sin(th / 3.0), amp * np.cos(th / 3.0)


def lshape_u(x, y):
    """(1-x^2)(1-y^2) r^(2/3) sin(2 theta/3) on the L-shaped domain; vanishes
    on the outer square and on both edges meeting the reentrant corner."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r, th = _polar(x, y)
    return (1.0 - x * x) * (1.0 - y * y) * r ** (2.0 / 3.0) * np.sin(
        2.0 * th / 3.0)


def lshape_f(x, y):
    """Closed-form -Laplacian of lshape_u.  The singular factor S is
    harmonic, so f = -lap(Phi) S - 2 grad(Phi).grad(S); it blows up like
    r^(-1/3) at the corner but stays square integrable."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r, th = _polar(x, y)
    S = r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0)
    Sx, Sy = _sing_grad(r, th)
    phix = -2.0 * x * (1.0 - y * y)
    phiy = -2.0 * y * (1.0 - x * x)
    lap_phi = -2.0 * (1.0 - y * y) - 2.0 * (1.0 - x * x)
    return -lap_phi * S - 2.0 * (phix * Sx + phiy * Sy)


def lshape_sigma(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r, th = _polar(x, y)
    S = r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0)
    Sx, Sy = _sing_grad(r, th)
    phi = (1.0 - x * x) * (1.0 - y * y)
    phix = -2.0 * x * (1.0 - y * y)
    phiy = -2.0 * y * (1.0 - x * x)
    return -(phix * S + phi * Sx), -(phiy * S + phi * Sy)


@dataclass(frozen=True)
class Benchmark:
    """Named problem: a factory producing a fresh (mesh0, ProblemSpec)
    pair."""
    name: str
    factory: object

    def make(self):
        return self.factory()


def _make_smooth():
    return unit_square_mesh(), ProblemSpec(
        f=smooth_f, sigma_exact=smooth_sigma, name="smooth_square")


def _make_lshape():
    return lshape_mesh(), ProblemSpec(
        f=lshape_f, sigma_exact=lshape_sigma, name="lshape_sing")


def _make_checker():
    mesh = unit_square_mesh()
    vals = np.where(np.arange(mesh.nt) % 2 == 0, 1.0, -1.0)
    return mesh, ProblemSpec(f=P0Source(mesh, vals), name="checker_const")


_BENCHMARKS = {
    "smooth_square": Benchmark("smooth_square", _make_smooth),
    "lshape_sing": Benchmark("lshape_sing", _make_lshape),
    "checker_const": Benchmark("checker_const", _make_checker),
}


def benchmark_names():
    return sorted(_BENCHMARKS)


def benchmark(name):
    key = name.strip().lower()
    if key not in _BENCHMARKS:
        raise KeyError("unknown benchmark %r (have: %s)"
                       % (name, ", ".join(benchmark_names())))
    return _BENCHMARKS[key]


# -- rate fitting ------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float
    n_points: int

    @property
    def s(self):
        return -self.slope


def fit_points(ns, values):
    """Least-squares slope of log(values) against log(ns)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (ns > 0) & (values > 0) & np.isfinite(values)
    ns, values = ns[keep], values[keep]
    if len(ns) < 2:
        raise ValueError("rate fit needs at least two usable points")
    A = np.column_stack([np.log(ns), np.ones(len(ns))])
    coef, res, _, _ = np.linalg.lstsq(A, np.log(values), rcond=None)
    residual = float(np.sqrt(res[0])) if res.size else 0.0
    return RateFit(float(coef[0]), float(coef[1]), residual, len(ns))


_FIELDS = {"err": ("err", False), "eta": ("eta2", True), "osc": ("osc2", True)}


def fit_rate(history: ConvergenceHistory, field="err", tail=4):
    """Rate fit over the last ``tail`` history records; ``field`` is one of
    err, eta, osc (the squared history columns are square-rooted)."""
    if field not in _FIELDS:
        raise ValueError("field must be one of %s" % sorted(_FIELDS))
    col, squared = _FIELDS[field]
    ns = history.column("nT").astype(float)
    vals = history.column(col).astype(float)
    if squared:
        vals = np.sqrt(np.maximum(vals, 0.0))
    keep = np.isfinite(vals) & (vals > 0)
    ns, vals = ns[keep], vals[keep]
    if tail is not None and tail < len(ns):
        ns, vals = ns[-tail:], vals[-tail:]
    return fit_points(ns, vals)


def uniform_study(mesh0, problem, rounds):
    """Solve/estimate on a ladder of uniform refinements of mesh0.  A row's
    wall_ms is its whole round: refine, solve, estimate and error."""
    hist = ConvergenceHistory(status="tol")
    src = as_source(problem.f)
    problem = replace(problem, f=src)   # one load evaluation per mesh
    mesh = mesh0
    for k in range(rounds + 1):
        t0 = time.perf_counter()
        if k > 0:
            mesh = uniform_refine(mesh, 1)
        sol = solve_poisson(mesh, problem)
        report = estimate(sol, src)
        err = (error_sigma(sol, problem.sigma_exact)
               if problem.sigma_exact is not None else float("nan"))
        hist.add(k=k, stage="uniform", nT=mesh.nt, nE=mesh.ne,
                 eta2=report.eta2_total, osc2=report.osc2_total, err=err,
                 n_marked=0, n_bisected=0,
                 wall_ms=(time.perf_counter() - t0) * 1e3)
    return hist


# -- check plumbing ----------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    check: str
    value: float
    threshold: float
    passed: bool


def _leq(name, value, threshold):
    return CheckResult(name, float(value), float(threshold),
                       bool(value <= threshold))


def suite_csv(results):
    lines = ["check,value,threshold,pass"]
    for r in results:
        lines.append("%s,%s,%s,%d" % (r.check, repr(float(r.value)),
                                      repr(float(r.threshold)), int(r.passed)))
    return "\n".join(lines) + "\n"


# -- discrete Helmholtz decomposition ----------------------------------------

def _curl_matrix(mesh):
    ne, nv = mesh.ne, mesh.nv
    rows = np.repeat(np.arange(ne), 2)
    cols = mesh.edge_verts.ravel()
    vals = np.tile([-1.0, 1.0], ne)
    return sp.coo_matrix((vals, (rows, cols)), shape=(ne, nv)).tocsr()


def helmholtz_split(sigma: DofVector):
    """Split a flux field into curl(P1) + grad_h(P0) parts; returns
    (psi, phi, curl_part, grad_part) as typed dof vectors."""
    mesh = sigma.mesh
    space = RTSpace(mesh)
    M = rt_mass_matrix(space)
    B = div_matrix(space)
    # the gradient part is the mixed solution with load div sigma and no
    # boundary data; its potential is phi = -u
    sol = solve(SaddleSystem(space, M, B, np.zeros(mesh.ne), B @ sigma.values))
    g = sol.sigma.values
    phi = -sol.u.values
    c = sigma.values - g
    C = _curl_matrix(mesh)
    L = (C.T @ M @ C).tocsc()
    keep = np.arange(1, mesh.nv)        # pin one vertex; kernel is constants
    rhs_psi = (C.T @ (M @ c))[keep]
    psi = np.zeros(mesh.nv)
    psi[keep] = spla.splu(L[keep][:, keep]).solve(rhs_psi)
    return (DofVector("P1", psi, mesh), DofVector("P0", phi, mesh),
            DofVector("RT", C @ psi, mesh), DofVector("RT", g, mesh))


def check_helmholtz(mesh, seed=0, nvec=10):
    """Dimension identity plus seeded decomposition checks on one mesh."""
    tag = "helmholtz[nv=%d,nt=%d]" % (mesh.nv, mesh.nt)
    out = [CheckResult("%s.dims" % tag,
                       float(mesh.ne - (mesh.nv - 1) - mesh.nt), 0.0,
                       mesh.ne == (mesh.nv - 1) + mesh.nt)]
    rng = np.random.default_rng(seed)
    space = RTSpace(mesh)
    M = rt_mass_matrix(space)
    worst_rec = worst_orth = 0.0
    for _ in range(nvec):
        sigma = DofVector("RT", rng.standard_normal(mesh.ne), mesh)
        _, _, cpart, gpart = helmholtz_split(sigma)
        nrm = np.sqrt(sigma.values @ (M @ sigma.values))
        resid = cpart.values + gpart.values - sigma.values
        worst_rec = max(worst_rec,
                        np.sqrt(max(resid @ (M @ resid), 0.0)) / nrm)
        nc = np.sqrt(max(cpart.values @ (M @ cpart.values), 0.0))
        ng = np.sqrt(max(gpart.values @ (M @ gpart.values), 0.0))
        if nc > 0 and ng > 0:
            worst_orth = max(worst_orth,
                             abs(cpart.values @ (M @ gpart.values))
                             / (nc * ng))
    out.append(_leq("%s.reconstruction" % tag, worst_rec, 1e-10))
    out.append(_leq("%s.orthogonality" % tag, worst_orth, 1e-10))
    # a pure rotational field must come back with no gradient part
    psi0 = DofVector("P1", rng.standard_normal(mesh.nv), mesh)
    curl0 = curl_p1(psi0)
    _, _, _, g0 = helmholtz_split(curl0)
    n0 = np.sqrt(curl0.values @ (M @ curl0.values))
    out.append(_leq("%s.curl_pure" % tag,
                    np.sqrt(max(g0.values @ (M @ g0.values), 0.0)) / n0,
                    1e-10))
    return out


def _helmholtz_meshes(seed=0):
    sq = unit_square_mesh()
    meshes = [sq, uniform_refine(sq, 2)]
    mesh0, problem = benchmark("lshape_sing").make()
    meshes.append(mesh0)
    for iters in (6, 12):
        m, _, _ = amfem(mesh0, problem,
                        AdaptParams(epsilon=1e-9, theta=0.3, max_iters=iters))
        meshes.append(m)
    return meshes


# -- structural identity checks ----------------------------------------------

def _l2norm2(mesh, values):
    M = rt_mass_matrix(RTSpace(mesh))
    return float(values @ (M @ values))


def check_pythagoras(seed=0):
    """Nested three-mesh identity |s_l - s_H|^2 = |s_l - s_h|^2 + |s_h - s_H|^2
    for the checkerboard load (zero oscillation at every level)."""
    mesh_H, problem = benchmark("checker_const").make()
    mesh_h = uniform_refine(mesh_H, 1)
    mesh_l = uniform_refine(mesh_h, 2)
    sols = [solve_poisson(m, problem) for m in (mesh_H, mesh_h, mesh_l)]
    on_l = [prolongate(s.sigma, mesh_l).values for s in sols[:2]]
    on_l.append(sols[2].sigma.values)
    e2 = _l2norm2(mesh_l, on_l[2] - on_l[0])
    a2 = _l2norm2(mesh_l, on_l[2] - on_l[1])
    b2 = _l2norm2(mesh_l, on_l[1] - on_l[0])
    defect = abs(e2 - a2 - b2) / e2
    return [_leq("identities.pythagoras", defect, 1e-8)]


_COMMUTING_FIELDS = (
    ("x2_0", lambda x, y: (x ** 2, 0.0 * y), lambda x, y: 2.0 * x),
    ("x2_xy", lambda x, y: (x ** 2, x * y), lambda x, y: 3.0 * x),
    ("mix", lambda x, y: (x + y ** 2, x * y), lambda x, y: 1.0 + x),
)


def check_commuting(seed=0):
    """Projection of the divergence equals the divergence of the
    interpolant, field by field, triangle by triangle."""
    mesh = uniform_refine(unit_square_mesh(), 3)
    space = RTSpace(mesh)
    p0 = P0Space(mesh)
    out = []
    for name, tau, dtau in _COMMUTING_FIELDS:
        lhs = l2_project(dtau, p0).values
        rhs = div_rt(space, interpolate_rt(tau, space))
        out.append(_leq("identities.commuting.%s" % name,
                        np.max(np.abs(lhs - rhs)), 1e-12))
    return out


def check_stability(seed=0):
    """Same fine mesh, data f versus its coarse projection: the solution
    shift is controlled by the oscillation of f over the coarse mesh."""
    mesh_H = uniform_refine(unit_square_mesh(), 2)
    mesh_h = uniform_refine(mesh_H, 2)
    _, problem = benchmark("smooth_square").make()
    src = as_source(problem.f)
    f_H = P0Source(mesh_H, src.cell_means(mesh_H))
    s1 = solve_poisson(mesh_h, problem)
    s2 = solve_poisson(mesh_h, ProblemSpec(f=f_H))
    shift = np.sqrt(_l2norm2(mesh_h, s1.sigma.values - s2.sigma.values))
    osc = np.sqrt(_coarse_osc2(src, mesh_h, mesh_H))
    return [_leq("identities.stability_ratio", shift / osc, 10.0)]


def check_quasiorth(seed=0):
    """Cosine of the angle between consecutive corrections, normalized by
    the oscillation share: bounded for nested solves."""
    mesh_H = uniform_refine(unit_square_mesh(), 2)
    mesh_h = uniform_refine(mesh_H, 1)
    mesh_r = uniform_refine(mesh_h, 2)
    _, problem = benchmark("smooth_square").make()
    src = as_source(problem.f)
    sH = solve_poisson(mesh_H, problem)
    sh = solve_poisson(mesh_h, problem)
    sr = solve_poisson(mesh_r, problem)
    a = sr.sigma.values - prolongate(sh.sigma, mesh_r).values
    b = (prolongate(sh.sigma, mesh_r).values
         - prolongate(sH.sigma, mesh_r).values)
    M = rt_mass_matrix(RTSpace(mesh_r))
    inner = abs(float(a @ (M @ b)))
    na = np.sqrt(float(a @ (M @ a)))
    osc = np.sqrt(float((mesh_H.tri_h ** 2 * src.cell_osc2(mesh_H)).sum()))
    return [_leq("identities.quasiorth_ratio", inner / (na * osc), 10.0)]


def check_projection_gap(seed=0):
    """Reported ratio |u_h - Q_H u_h| / (H_T |sigma_h|) per coarse triangle
    (the Poincare-type bound the nested analysis leans on)."""
    mesh_H = uniform_refine(unit_square_mesh(), 2)
    mesh_h = uniform_refine(mesh_H, 2)
    _, problem = benchmark("smooth_square").make()
    sol = solve_poisson(mesh_h, problem)
    anc, num2 = _coarse_dev2(sol.u.values, mesh_h, mesh_H)
    a0, cc = sol.affine()
    bary, w = quadrature.tri_rule(2)
    pts = quadrature.tri_points(mesh_h.points[mesh_h.tri_verts[mesh_h.live]],
                                bary)
    sig2 = ((a0[:, None, 0] + cc[:, None] * pts[..., 0]) ** 2
            + (a0[:, None, 1] + cc[:, None] * pts[..., 1]) ** 2)
    den2 = np.bincount(anc, weights=(sig2 @ w) * mesh_h.tri_area,
                       minlength=mesh_H.nt)
    ok = den2 > 0
    ratio = np.sqrt(num2[ok]) / (mesh_H.tri_h[ok] * np.sqrt(den2[ok]))
    return [_leq("identities.projection_gap_ratio", float(ratio.max()), 10.0)]


def check_identities(seed=0):
    out = []
    out.extend(check_pythagoras(seed))
    out.extend(check_commuting(seed))
    out.extend(check_stability(seed))
    out.extend(check_quasiorth(seed))
    out.extend(check_projection_gap(seed))
    return out


# -- estimator checks ---------------------------------------------------------

def check_estimator(seed=0):
    rng = np.random.default_rng(seed)
    out = []
    mesh = uniform_refine(unit_square_mesh(), 2)

    # triangle inequality of the total indicator over random fields
    worst = 0.0
    for _ in range(10):
        v1 = rng.standard_normal(mesh.ne)
        v2 = rng.standard_normal(mesh.ne)
        e12 = np.sqrt(indicator_edges(DofVector("RT", v1 + v2, mesh)).sum())
        e1 = np.sqrt(indicator_edges(DofVector("RT", v1, mesh)).sum())
        e2 = np.sqrt(indicator_edges(DofVector("RT", v2, mesh)).sum())
        worst = max(worst, (e12 - e1 - e2) / (e1 + e2))
    out.append(_leq("estimator.continuity_defect", worst, 1e-12))

    # constant field: only boundary edges with tangent along the field count
    const = interpolate_rt(lambda x, y: (np.ones_like(x), np.zeros_like(y)),
                           RTSpace(unit_square_mesh()))
    eta2 = indicator_edges(const)
    out.append(_leq("estimator.boundary_closed_form",
                    abs(eta2.sum() - 2.0), 1e-12))

    # refinement halves the squared indicator of the carried-over field
    _, problem = benchmark("smooth_square").make()
    sol = solve_poisson(mesh, problem)
    fine = uniform_refine(mesh, 1)
    carried = prolongate(sol.sigma, fine)
    r = indicator_edges(carried).sum() / indicator_edges(sol.sigma).sum()
    out.append(_leq("estimator.halving_defect", abs(r - 0.5), 1e-12))
    return out


# -- marking checks ------------------------------------------------------------

def _dorfler_bruteforce(eta2, theta):
    """Minimum cardinality over all subsets reaching the theta fraction."""
    n = len(eta2)
    total = eta2.sum()
    best = n
    for mask in range(1, 1 << n):
        s = sum(eta2[i] for i in range(n) if mask >> i & 1)
        if s >= theta * total:
            best = min(best, bin(mask).count("1"))
    return best


def check_marking(seed=0):
    rng = np.random.default_rng(seed)
    mesh = unit_square_mesh()
    out = []
    worst_card = 0
    worst_min = 0.0
    for trial in range(8):
        eta2 = rng.uniform(0.0, 1.0, mesh.ne) ** 2
        theta = float(rng.uniform(0.2, 0.95))
        report = EstimatorReport(mesh, eta2, np.zeros(mesh.nt))
        ms = dorfler_mark(report, theta)
        worst_card = max(worst_card,
                         len(ms) - _dorfler_bruteforce(eta2, theta))
        kept = eta2[ms.edges].sum()
        if len(ms) > 1:
            drop = (kept - eta2[ms.edges[-1]]) / eta2.sum()
            worst_min = max(worst_min, drop - theta)
        if kept / eta2.sum() < theta:
            worst_min = max(worst_min, 1.0)
    out.append(_leq("marking.excess_cardinality", float(worst_card), 0.0))
    out.append(_leq("marking.minimality_defect", worst_min, 0.0))

    eta2 = np.array([9.0, 4.0, 1.0, 1.0, 1.0])
    ms = dorfler_mark(EstimatorReport(mesh, eta2, np.zeros(mesh.nt)), 0.5)
    out.append(CheckResult("marking.halfset", float(len(ms)), 1.0,
                           list(ms.edges) == [0]))

    # oscillation cover: greedy enlargement reaches the requested share
    m2 = uniform_refine(mesh, 2)
    rng2 = np.random.default_rng(seed + 1)
    osc2 = rng2.uniform(0.0, 1.0, m2.nt)
    rep = EstimatorReport(m2, np.zeros(m2.ne), osc2)
    ms = osc_mark(rep, 0.7, MarkSet(np.empty(0, dtype=np.int64)), m2)
    patch = _patch_pos(m2)[ms.edges]
    share = osc2[np.unique(patch[patch >= 0])].sum() / osc2.sum()
    out.append(CheckResult("marking.osc_cover", float(share), 0.49,
                           share >= 0.49))
    return out


# -- mesh checks ----------------------------------------------------------------

def check_mesh(seed=0):
    out = []
    # every generation-5 descendant of an initial triangle is similar to
    # one of its earlier descendants; three uniform rounds bisect every
    # triangle six times, so the genealogy holds generations 0 to 6
    worst = 0.0
    for mesh in (unit_square_mesh(), lshape_mesh()):
        fine = uniform_refine(mesh, 3)
        gen = fine.tri_gen
        root = np.arange(len(gen))
        for g in range(1, gen.max() + 1):
            at = gen == g
            root[at] = root[fine.tri_parent[at]]
        angles = triangle_angles(fine.points[fine.tri_verts])
        for t in mesh.live:
            earlier = angles[(root == t) & (gen < 5)]
            last = angles[(root == t) & (gen == 5)]
            gap = np.abs(last[:, None] - earlier[None]).max(axis=2).min(axis=1)
            worst = max(worst, gap.max())
    out.append(_leq("mesh.similarity_classes", worst, 1e-9))

    # refinement complexity: triangles created vs patches marked
    mesh0, problem = benchmark("lshape_sing").make()
    _, _, hist = amfem(mesh0, problem,
                       AdaptParams(epsilon=1e-9, theta=0.3, max_iters=14),
                       monitors=True)
    created = hist.records[-1].nT - hist.records[0].nT
    marked = sum(hist.monitors["n_patch"])
    out.append(_leq("mesh.complexity_ratio", created / marked, 20.0))
    return out


# -- approx checks -----------------------------------------------------------------

def check_approx(seed=0):
    out = []
    mesh0, problem = benchmark("smooth_square").make()
    mesh, hist = approx(problem.f, uniform_refine(mesh0, 2), epsilon=2e-3)
    fit = fit_rate(hist, "osc", tail=max(4, len(hist.records) - 2))
    out.append(_leq("approx.osc_slope", fit.slope, -0.9))
    out.append(CheckResult("approx.status_tol", 1.0, 1.0,
                           hist.status == "tol"))

    meshc, problemc = benchmark("checker_const").make()
    same, hist2 = approx(problemc.f, meshc, epsilon=1e-12)
    out.append(CheckResult("approx.pc_noop", float(same.nt), float(meshc.nt),
                           same is meshc and len(hist2.records) == 1))
    return out


def suite_helmholtz(seed=0):
    out = []
    for mesh in _helmholtz_meshes(seed):
        out.extend(check_helmholtz(mesh, seed=seed))
    return out


SUITES = {
    "mesh": check_mesh,
    "helmholtz": suite_helmholtz,
    "identities": check_identities,
    "estimator": check_estimator,
    "marking": check_marking,
    "approx": check_approx,
}


def run_suite(name, seed=0):
    if name not in SUITES:
        raise KeyError("unknown suite %r (have: %s)"
                       % (name, ", ".join(sorted(SUITES))))
    results = [CheckResult("%s.seed" % name, float(seed), float(seed), True)]
    results.extend(SUITES[name](seed=seed))
    return results
