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

import csv
import inspect
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from .adapt import (AdaptParams, ConvergenceHistory, amfem, approx,
                    dorfler_mark, osc_mark, _coarse_dev2, _coarse_osc2)
from . import assembly
from .assembly import (ProblemSpec, _quad_norm2_diff, condense, error_sigma,
                       recover, solve_poisson)
from .estimator import estimate, indicator_edges, oscillation
from .fespace import (DofVector, RTSpace, div_matrix, interpolate_rt,
                      prolongate)
from .mesh import load_mesh, triangle_angles, uniform_refine
from .sources import P0Source, as_source

__all__ = ["Benchmark", "CheckResult", "fit_rate", "fit_points", "benchmark",
           "benchmark_names", "unit_square_mesh", "lshape_mesh",
           "uniform_study", "check_helmholtz", "check_identities",
           "run_suite", "suite_draws", "suite_csv", "SUITES"]


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


def _lshape_factors(x, y):
    """The cutoff Phi = (1-x^2)(1-y^2) with its gradient and Laplacian, and
    the singular factor S = r^(2/3) sin(2 theta/3) with its gradient."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r, th = _polar(x, y)
    return ((1.0 - x * x) * (1.0 - y * y),
            (-2.0 * x * (1.0 - y * y), -2.0 * y * (1.0 - x * x)),
            -2.0 * (1.0 - y * y) - 2.0 * (1.0 - x * x),
            r ** (2.0 / 3.0) * np.sin(2.0 * th / 3.0), _sing_grad(r, th))


def lshape_f(x, y):
    """Closed-form -Laplacian of u = (1-x^2)(1-y^2) r^(2/3) sin(2 theta/3),
    which vanishes on the outer square and on both edges meeting the
    reentrant corner of the L-shaped domain.  The singular factor S is
    harmonic, so f = -lap(Phi) S - 2 grad(Phi).grad(S); it blows up like
    r^(-1/3) at the corner but stays square integrable."""
    _, (phix, phiy), lap_phi, S, (Sx, Sy) = _lshape_factors(x, y)
    return -lap_phi * S - 2.0 * (phix * Sx + phiy * Sy)


def lshape_sigma(x, y):
    phi, (phix, phiy), _, S, (Sx, Sy) = _lshape_factors(x, y)
    return -(phix * S + phi * Sx), -(phiy * S + phi * Sy)


@dataclass(frozen=True)
class Benchmark:
    """A factory producing a fresh (mesh0, ProblemSpec) pair."""
    factory: object

    def make(self):
        return self.factory()


def _make_smooth():
    return unit_square_mesh(), ProblemSpec(f=smooth_f,
                                           sigma_exact=smooth_sigma)


def _make_lshape():
    return lshape_mesh(), ProblemSpec(f=lshape_f, sigma_exact=lshape_sigma)


def _make_checker():
    mesh = unit_square_mesh()
    vals = np.where(np.arange(mesh.nt) % 2 == 0, 1.0, -1.0)
    return mesh, ProblemSpec(f=P0Source(mesh, vals))


_BENCHMARKS = {
    "smooth_square": Benchmark(_make_smooth),
    "lshape_sing": Benchmark(_make_lshape),
    "checker_const": Benchmark(_make_checker),
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

def fit_points(ns, values):
    """The rate s of values ~ ns^-s: minus the least-squares slope of
    log(values) against log(ns)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (ns > 0) & (values > 0) & np.isfinite(values)
    ns, values = ns[keep], values[keep]
    if len(ns) < 2:
        raise ValueError("rate fit needs at least two usable points")
    A = np.column_stack([np.log(ns), np.ones(len(ns))])
    coef = np.linalg.lstsq(A, np.log(values), rcond=None)[0]
    return -float(coef[0])


_FIELDS = {"err": ("err", False), "eta": ("eta2", True), "osc": ("osc2", True)}


def fit_rate(history: ConvergenceHistory, field="err", tail=4):
    """The rate s (``fit_points``) over the last ``tail`` usable history
    records, at least 2; ``field`` is one of err, eta, osc (the squared
    history columns are square-rooted)."""
    if field not in _FIELDS:
        raise ValueError("field must be one of %s" % sorted(_FIELDS))
    if not tail >= 2:
        raise ValueError("tail must be at least 2, got %r" % (tail,))
    col, squared = _FIELDS[field]
    ns = history.column("nT").astype(float)
    vals = history.column(col).astype(float)
    if squared:
        vals = np.sqrt(np.maximum(vals, 0.0))
    keep = np.isfinite(vals) & (vals > 0)
    return fit_points(ns[keep][-tail:], vals[keep][-tail:])


def uniform_study(mesh0, problem, rounds):
    """Solve/estimate on a ladder of uniform refinements of mesh0.  A row's
    wall_ms is its whole round: refine, solve, estimate and error.  Each
    round drops the previous round's mesh, solution and report before it
    solves, so that its factorization holds only its own mesh."""
    if rounds < 0:
        raise ValueError("rounds must be nonnegative")
    hist = ConvergenceHistory(status="tol")
    src = as_source(problem.f)
    problem = replace(problem, f=src)   # one load evaluation per mesh
    mesh = mesh0
    for k in range(rounds + 1):
        t0 = time.perf_counter()
        if k > 0:
            sol = report = None
            mesh = uniform_refine(mesh, 1)
        sol = solve_poisson(mesh, problem)
        report = estimate(sol, src)
        hist.add(k=k, stage="uniform", nT=mesh.nt, nE=mesh.ne,
                 eta2=report.eta2_total, osc2=report.osc2_total,
                 err=error_sigma(sol, problem.sigma_exact),
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
    buf = io.StringIO()    # csv quotes the names that hold a comma
    csv.writer(buf, lineterminator="\n").writerows(
        [("check", "value", "threshold", "pass")]
        + [(r.check, repr(float(r.value)), repr(float(r.threshold)),
            int(r.passed)) for r in results])
    return buf.getvalue()


# -- discrete Helmholtz decomposition ----------------------------------------

def helmholtz_split(space, fields):
    """Split each row of ``fields`` (k, ne) into the curl of a P1 field plus
    the discrete gradient of a P0 field; returns (psi, phi, curl_part,
    grad_part) as arrays of shapes (k, nv), (k, nt), (k, ne) and (k, ne).
    One Crouzeix-Raviart and one P1 factorization serve all rows.  On a
    triangle the curl of vertex i's hat function is e_i / (2|T|), so the P1
    stiffness is Q_T / 4 and a flux tau loads vertex i with
    e_i . integral of tau / (2|T|)."""
    import scipy.sparse as sp
    mesh, B = space.mesh, div_matrix(space)
    # the gradient part is the mixed solution with load div sigma; its
    # potential is phi = -u.  Every row's recovery runs the solver's
    # residual and conservation checks, against the space's local masses.
    cond = condense(space)
    sols = [recover(cond, B @ v) for v in fields]
    grad = np.array([sol.sigma.values for sol in sols])
    phi = -np.array([sol.u.values for sol in sols])
    # local vertex i is opposite local edge i; the integral of tau over T
    # is sum_j s_j tau_j (c - P_j) / 2 for the centroid c
    V, P = mesh.tri_verts[mesh.live], space.opp_coords()
    e = P[:, [2, 0, 1]] - P[:, [1, 2, 0]]
    tau = (fields - grad)[:, mesh.tri_edge] * mesh.tri_sign
    integral = np.einsum("kti,tix->ktx", tau, P.mean(axis=1)[:, None] - P) / 2
    load = np.zeros((mesh.nv, len(fields)))
    np.add.at(load, V, np.einsum("tix,ktx->tik", e, integral)
              / (2.0 * mesh.tri_area[:, None, None]))
    # psi = 0 at vertex 0 pins the kernel of the curl, the constants
    K = sp.coo_matrix(((space.element_blocks() / 4.0).ravel(),
                       (np.repeat(V, 3, axis=1).ravel(),
                        np.tile(V, (1, 3)).ravel())),
                      shape=(mesh.nv, mesh.nv)).tocsc()[1:, 1:]
    psi = np.pad(assembly.spla.splu(K).solve(load[1:]).T, ((0, 0), (1, 0)))
    a, b = mesh.edge_verts.T
    return psi, phi, psi[:, b] - psi[:, a], grad


def check_helmholtz(mesh, seed=0):
    """Dimension identity plus the split of ten seeded fields and a curl."""
    tag = "helmholtz[nv=%d,nt=%d]" % (mesh.nv, mesh.nt)
    out = [CheckResult("%s.dims" % tag,
                       float(mesh.ne - (mesh.nv - 1) - mesh.nt), 0.0,
                       mesh.ne == (mesh.nv - 1) + mesh.nt)]
    rng = np.random.default_rng(seed)
    space = RTSpace(mesh)
    sigma = rng.standard_normal((10, mesh.ne))
    # a pure rotational field must come back with no gradient part
    psi0 = rng.standard_normal(mesh.nv)
    curl0 = psi0[mesh.edge_verts[:, 1]] - psi0[mesh.edge_verts[:, 0]]
    _, _, cpart, gpart = helmholtz_split(space, np.vstack([sigma, curl0]))

    def norm(a):
        return np.sqrt(np.maximum(space.mass_inner(a, a), 0.0))

    c, g = cpart[:-1], gpart[:-1]     # the last row is curl0's
    nc, ng = norm(c), norm(g)
    both = (nc > 0) & (ng > 0)
    rec = norm(c + g - sigma) / norm(sigma)
    orth = np.abs(space.mass_inner(c, g))[both] / (nc * ng)[both]
    out.append(_leq("%s.reconstruction" % tag, rec.max(initial=0.0), 1e-10))
    out.append(_leq("%s.orthogonality" % tag, orth.max(initial=0.0), 1e-10))
    out.append(_leq("%s.curl_pure" % tag,
                    norm(gpart[-1:])[0] / norm(curl0[None])[0], 1e-10))
    return out


def _helmholtz_meshes():
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

def check_pythagoras():
    """Nested three-mesh identity |s_l - s_H|^2 = |s_l - s_h|^2 + |s_h - s_H|^2
    for the checkerboard load (zero oscillation at every level)."""
    mesh_H, problem = benchmark("checker_const").make()
    mesh_h = uniform_refine(mesh_H, 1)
    mesh_l = uniform_refine(mesh_h, 2)
    sH, sh, sl = (solve_poisson(m, problem) for m in (mesh_H, mesh_h, mesh_l))

    def dist2(coarse, fine):
        d = fine.sigma.values - prolongate(coarse.sigma, fine.mesh).values
        return fine.space.mass_inner(d, d)

    e2, a2, b2 = dist2(sH, sl), dist2(sh, sl), dist2(sH, sh)
    defect = abs(e2 - a2 - b2) / e2
    return [_leq("identities.pythagoras", defect, 1e-8)]


_COMMUTING_FIELDS = (
    ("x2_0", lambda x, y: (x ** 2, 0.0 * y), lambda x, y: 2.0 * x),
    ("x2_xy", lambda x, y: (x ** 2, x * y), lambda x, y: 3.0 * x),
    ("mix", lambda x, y: (x + y ** 2, x * y), lambda x, y: 1.0 + x),
)


def check_commuting():
    """Projection of the divergence equals the divergence of the
    interpolant, field by field, triangle by triangle."""
    mesh = uniform_refine(unit_square_mesh(), 3)
    space = RTSpace(mesh)
    B = div_matrix(space)
    out = []
    for name, tau, dtau in _COMMUTING_FIELDS:
        lhs = as_source(dtau).cell_means(mesh)
        rhs = B @ interpolate_rt(tau, space).values / mesh.tri_area
        out.append(_leq("identities.commuting.%s" % name,
                        np.max(np.abs(lhs - rhs)), 1e-12))
    return out


def check_stability():
    """Same fine mesh, data f versus its coarse projection: the solution
    shift is controlled by the oscillation of f over the coarse mesh."""
    mesh_H = uniform_refine(unit_square_mesh(), 2)
    mesh_h = uniform_refine(mesh_H, 2)
    _, problem = benchmark("smooth_square").make()
    src = as_source(problem.f)
    f_H = P0Source(mesh_H, src.cell_means(mesh_H))
    s1 = solve_poisson(mesh_h, problem)
    s2 = solve_poisson(mesh_h, ProblemSpec(f=f_H))
    d = s1.sigma.values - s2.sigma.values
    shift = np.sqrt(s1.space.mass_inner(d, d))
    osc = np.sqrt(_coarse_osc2(src, mesh_h, mesh_H))
    return [_leq("identities.stability_ratio", shift / osc, 10.0)]


def check_quasiorth():
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
    on_r = prolongate(sh.sigma, mesh_r).values
    a = sr.sigma.values - on_r
    b = on_r - prolongate(sH.sigma, mesh_r).values
    inner = abs(float(sr.space.mass_inner(a, b)))
    na = np.sqrt(float(sr.space.mass_inner(a, a)))
    osc = np.sqrt(float(oscillation(src, mesh_H).sum()))
    return [_leq("identities.quasiorth_ratio", inner / (na * osc), 10.0)]


def check_projection_gap():
    """Reported ratio |u_h - Q_H u_h| / (H_T |sigma_h|) per coarse triangle
    (the Poincare-type bound the nested analysis leans on)."""
    mesh_H = uniform_refine(unit_square_mesh(), 2)
    mesh_h = uniform_refine(mesh_H, 2)
    _, problem = benchmark("smooth_square").make()
    sol = solve_poisson(mesh_h, problem)
    anc, num2 = _coarse_dev2(sol.u.values, mesh_h, mesh_H)
    a0, cc = sol.affine()
    sig2 = _quad_norm2_diff(sol.space, a0, cc, lambda x, y: (0.0 * x, 0.0 * y))
    den2 = np.bincount(anc, weights=sig2, minlength=mesh_H.nt)
    ok = den2 > 0
    ratio = np.sqrt(num2[ok]) / (mesh_H.tri_h[ok] * np.sqrt(den2[ok]))
    return [_leq("identities.projection_gap_ratio", float(ratio.max()), 10.0)]


def check_identities():
    """The identity checks, which draw no random numbers."""
    return (check_pythagoras() + check_commuting() + check_stability()
            + check_quasiorth() + check_projection_gap())


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
        ms = dorfler_mark(eta2, theta)
        worst_card = max(worst_card,
                         len(ms) - _dorfler_bruteforce(eta2, theta))
        kept = eta2[ms].sum()
        if len(ms) > 1:
            drop = (kept - eta2[ms[-1]]) / eta2.sum()
            worst_min = max(worst_min, drop - theta)
        if kept / eta2.sum() < theta:
            worst_min = max(worst_min, 1.0)
    out.append(_leq("marking.excess_cardinality", float(worst_card), 0.0))
    out.append(_leq("marking.minimality_defect", worst_min, 0.0))

    eta2 = np.array([9.0, 4.0, 1.0, 1.0, 1.0])
    ms = dorfler_mark(eta2, 0.5)
    out.append(CheckResult("marking.halfset", float(len(ms)), 1.0,
                           ms.tolist() == [0]))

    # oscillation cover: greedy enlargement reaches the requested share
    m2 = uniform_refine(mesh, 2)
    rng2 = np.random.default_rng(seed + 1)
    osc2 = rng2.uniform(0.0, 1.0, m2.nt)
    ms = osc_mark(m2, osc2, 0.7)
    patch = m2.edge_tri[ms]
    share = osc2[np.unique(patch[patch >= 0])].sum() / osc2.sum()
    out.append(CheckResult("marking.osc_cover", float(share), 0.49,
                           share >= 0.49))
    return out


# -- mesh checks ----------------------------------------------------------------

def check_mesh():
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

def check_approx():
    out = []
    mesh0, problem = benchmark("smooth_square").make()
    mesh, hist = approx(problem.f, uniform_refine(mesh0, 2), epsilon=2e-3)
    s = fit_rate(hist, "osc", tail=max(4, len(hist.records) - 2))
    out.append(_leq("approx.osc_slope", -s, -0.9))
    out.append(CheckResult("approx.status_tol", 1.0, 1.0,
                           hist.status == "tol"))

    meshc, problemc = benchmark("checker_const").make()
    same, hist2 = approx(problemc.f, meshc, epsilon=1e-12)
    out.append(CheckResult("approx.pc_noop", float(same.nt), float(meshc.nt),
                           same is meshc and len(hist2.records) == 1))
    return out


def suite_helmholtz(seed=0):
    out = []
    for mesh in _helmholtz_meshes():
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


def suite_draws(name):
    """Whether suite ``name`` draws random numbers: only those take a
    seed."""
    return "seed" in inspect.signature(SUITES[name]).parameters


def run_suite(name, seed=0):
    """The results of suite ``name``, led by a row recording the seed when
    the suite draws random numbers."""
    if name not in SUITES:
        raise KeyError("unknown suite %r (have: %s)"
                       % (name, ", ".join(sorted(SUITES))))
    if not suite_draws(name):
        return SUITES[name]()
    return ([CheckResult("%s.seed" % name, float(seed), float(seed), True)]
            + SUITES[name](seed=seed))
