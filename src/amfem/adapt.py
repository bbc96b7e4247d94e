"""Marking strategies and the adaptive refinement drivers.

The main loop alternates solve / estimate / mark / refine.  Edges are
marked by Doerfler's criterion on the squared edge indicators; when the
data oscillation decays slower than a geometric target mu^k the marked set
is enlarged until the oscillation carried by the marked patches covers a
theta_tilde fraction.  Refinement bisects every triangle of each marked
edge's patch until the edge itself has split.

``approx`` is the data-approximation counterpart: it ignores the solution
entirely and drives only the oscillation below a tolerance, greedily
marking the edges whose patches carry the most oscillation.  ``two_stage``
chains both: approximate the data on a mesh of its own, project f onto
piecewise constants there, then run the adaptive loop on the projected
data, whose oscillation is exactly zero on every descendant mesh.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .assembly import ProblemSpec, error_sigma, solve_poisson
from .estimator import EstimatorReport, estimate, oscillation
from .fespace import prolongate, rt_mass_matrix
from .mesh import Mesh, ancestor_map, refine_edges
from .sources import P0Source, as_source

__all__ = ["AdaptParams", "MarkSet", "HistoryRecord", "ConvergenceHistory",
           "dorfler_mark", "osc_mark", "amfem", "approx", "two_stage"]

HISTORY_COLUMNS = ("k", "stage", "nT", "nE", "eta2", "osc2", "err",
                   "n_marked", "n_bisected", "wall_ms")


@dataclass
class AdaptParams:
    epsilon: float = 1e-3
    theta: float = 0.3
    theta_tilde: float = 0.5
    mu: float = 0.7
    max_iters: int = 60
    max_triangles: int = 300000

    def validate(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1], got %r" % self.theta)
        if not 0.0 <= self.theta_tilde <= 1.0:
            raise ValueError("theta_tilde must lie in [0, 1]")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.epsilon <= 0 or self.max_iters < 0 or self.max_triangles < 1:
            raise ValueError("bad stopping parameters")
        return self


@dataclass
class MarkSet:
    """Marked edge ids, ordered by decreasing indicator; ``achieved`` is the
    indicator fraction the set carries."""
    edges: np.ndarray
    achieved: float = 0.0

    def __len__(self):
        return len(self.edges)

    def __iter__(self):
        return iter(self.edges)


@dataclass
class HistoryRecord:
    k: int
    stage: str
    nT: int
    nE: int
    eta2: float
    osc2: float
    err: float
    n_marked: int
    n_bisected: int
    wall_ms: float


@dataclass
class ConvergenceHistory:
    records: list = field(default_factory=list)
    status: str = ""
    monitors: dict = field(default_factory=dict)

    def add(self, **kw):
        self.records.append(HistoryRecord(**kw))

    def column(self, name):
        return np.array([getattr(r, name) for r in self.records])

    def gamma_hat(self, stage=None):
        """Observed contraction factor of eta: geometric mean of the ratios
        eta_{k+1} / eta_k over consecutive records."""
        recs = [r for r in self.records if stage is None or r.stage == stage]
        ratios = [recs[i + 1].eta2 / recs[i].eta2 for i in range(len(recs) - 1)
                  if recs[i].eta2 > 0 and recs[i + 1].eta2 > 0]
        if not ratios:
            return float("nan")
        return float(np.exp(0.5 * np.mean(np.log(ratios))))

    def to_csv(self):
        lines = [",".join(HISTORY_COLUMNS)]
        for r in self.records:
            lines.append(",".join([
                "%d" % r.k, r.stage, "%d" % r.nT, "%d" % r.nE,
                repr(float(r.eta2)), repr(float(r.osc2)), repr(float(r.err)),
                "%d" % r.n_marked, "%d" % r.n_bisected,
                "%.3f" % r.wall_ms]))
        return "\n".join(lines) + "\n"

    def extend(self, other):
        self.records.extend(other.records)
        if other.status:
            self.status = other.status
        for key, vals in other.monitors.items():
            self.monitors.setdefault(key, []).extend(vals)
        return self


def dorfler_mark(report: EstimatorReport, theta: float) -> MarkSet:
    """Smallest descending-prefix edge set carrying at least a theta
    fraction of the total squared indicator (ties by ascending edge id)."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1], got %r" % theta)
    eta2 = report.eta2_edges
    total = eta2.sum()
    if total <= 0.0:
        return MarkSet(np.empty(0, dtype=np.int64), 0.0)
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    n = int(np.searchsorted(csum, theta * total)) + 1
    n = min(n, len(order))
    return MarkSet(order[:n].astype(np.int64), float(csum[n - 1] / total))


def _patch_pos(mesh):
    """(ne, 2) live positions of the triangles on either side of each edge,
    -1 where there is none: the last slot of an array padded by one."""
    return np.where(mesh.edge_tri >= 0, mesh.live_pos[mesh.edge_tri], -1)


def osc_mark(report: EstimatorReport, theta_tilde: float,
             existing: MarkSet | None = None,
             mesh: Mesh | None = None) -> MarkSet:
    """Enlarge a marked set until the triangles of its edge patches carry a
    theta_tilde fraction of the squared oscillation.  Greedy: repeatedly add
    the edge contributing the most uncovered oscillation (ties by id)."""
    if not 0.0 <= theta_tilde <= 1.0:
        raise ValueError("theta_tilde must lie in [0, 1]")
    if existing is None:
        existing = MarkSet(np.empty(0, dtype=np.int64), 0.0)
    if mesh is None:
        mesh = report.mesh
    osc2 = report.osc2_tris
    total = osc2.sum()
    chosen = np.array(existing.edges, dtype=np.int64)
    pos = _patch_pos(mesh)
    covered_tri = np.zeros(mesh.nt + 1, dtype=bool)
    covered_tri[pos[chosen]] = True
    covered = osc2[covered_tri[:-1]].sum()
    target = theta_tilde ** 2 * total
    if theta_tilde == 0.0 or total <= 0.0 or covered >= target:
        return MarkSet(chosen, existing.achieved)

    # gain of an edge: the oscillation of its patch triangles not yet
    # covered, summed left then right; recomputed when popped, since
    # entries go stale as triangles get covered
    side = np.append(osc2, 0.0)[pos]
    free = np.where(covered_tri[pos], 0.0, side)
    gain = free[:, 0] + free[:, 1]
    ids = np.flatnonzero(gain > 0)      # marked edges have no gain left
    heap = list(zip((-gain[ids]).tolist(), ids.tolist()))
    heapq.heapify(heap)
    picks = []
    while covered < target and heap:
        negg, eid = heapq.heappop(heap)
        left, right = pos[eid]
        g = ((0.0 if covered_tri[left] else side[eid, 0])
             + (0.0 if covered_tri[right] else side[eid, 1]))
        if g <= 0:
            continue
        if -negg > g and heap and -heap[0][0] > g:
            heapq.heappush(heap, (-g, eid))   # stale entry, re-rank
            continue
        picks.append(eid)
        covered_tri[[left, right]] = True
        covered += g
    if covered < target:
        raise AssertionError("could not cover the oscillation target")
    return MarkSet(np.append(chosen, picks).astype(np.int64),
                   existing.achieved)


def _combinatorial_check(coarse, fine):
    """Edges of the coarse mesh that are gone in the fine one; their count
    is bounded by 3x the triangle increase (a property of bisection that
    the discrete upper bound relies on)."""
    nv = fine.nv
    coarse_keys = coarse.edge_verts[:, 0] * nv + coarse.edge_verts[:, 1]
    fine_keys = fine.edge_verts[:, 0] * nv + fine.edge_verts[:, 1]
    gone = np.flatnonzero(~np.isin(coarse_keys, fine_keys, assume_unique=True))
    bound = 3 * (fine.nt - coarse.nt)
    if len(gone) > bound:
        raise AssertionError("%d edges vanished but only %d triangles were "
                             "created" % (len(gone), fine.nt - coarse.nt))
    return gone


def _coarse_dev2(vals, fine, coarse):
    """Per coarse triangle, the squared L2 distance of a fine P0 field to
    its coarse means; also the coarse position of every fine triangle."""
    anc = coarse.live_pos[ancestor_map(fine, coarse)]
    area = fine.tri_area
    cmean = (np.bincount(anc, weights=vals * area, minlength=coarse.nt)
             / coarse.tri_area)
    return anc, np.bincount(anc, weights=(vals - cmean[anc]) ** 2 * area,
                            minlength=coarse.nt)


def _coarse_osc2(src, fine, coarse):
    """Squared oscillation of the fine cell means over the coarse mesh."""
    dev = _coarse_dev2(src.cell_means(fine), fine, coarse)[1]
    return float((coarse.tri_h ** 2 * dev).sum())


def _stop(hist, converged, k, mesh, max_iters, max_triangles):
    """Whether a loop ends at step k; sets the history's status if so."""
    if converged:
        hist.status = "tol"
    elif k >= max_iters or mesh.nt >= max_triangles:
        hist.status = "capped"
    return bool(hist.status)


def amfem(mesh0: Mesh, problem: ProblemSpec, params: AdaptParams,
          monitors: bool = False):
    """Adaptive loop: returns (mesh, solution, history).

    Stops when the total estimator drops below epsilon, or when the
    iteration/triangle caps are hit (status 'tol' vs 'capped').
    """
    params.validate()
    if problem.g is not None:
        raise ValueError("the adaptive loop requires homogeneous boundary "
                         "values; solve with g directly instead")
    src = as_source(problem.f)
    problem = replace(problem, f=src)   # one load evaluation per mesh
    hist = ConvergenceHistory()
    hist.monitors = {"upper_ratio": [], "n_gone": [], "n_patch": []}
    mesh = mesh0
    osc0 = None
    prev = None     # (mesh, flux, report) of the previous step
    k = 0
    while True:
        t0 = time.perf_counter()
        sol = solve_poisson(mesh, problem)
        report = estimate(sol, src)
        err = (error_sigma(sol, problem.sigma_exact)
               if problem.sigma_exact is not None else float("nan"))
        eta2 = report.eta2_total
        osc2 = report.osc2_total
        if osc0 is None:
            osc0 = np.sqrt(osc2)

        if monitors and prev is not None:
            pmesh, psigma, preport = prev
            gone = _combinatorial_check(pmesh, mesh)
            hist.monitors["n_gone"].append(len(gone))
            d = sol.sigma.values - prolongate(psigma, mesh).values
            num = float(d @ (rt_mass_matrix(sol.space) @ d))
            den = float(preport.eta2_edges[gone].sum()) + _coarse_osc2(
                src, mesh, pmesh)
            hist.monitors["upper_ratio"].append(
                num / den if den > 0 else float("nan"))
        elif prev is not None:
            _combinatorial_check(prev[0], mesh)

        done = _stop(hist, np.sqrt(eta2) < params.epsilon, k, mesh,
                     params.max_iters, params.max_triangles)
        marked, bisected = (), ()
        if not done:
            marked = dorfler_mark(report, params.theta)
            if np.sqrt(osc2) > osc0 * params.mu ** k:
                marked = osc_mark(report, params.theta_tilde, marked, mesh)
            patch = _patch_pos(mesh)[marked.edges]
            hist.monitors["n_patch"].append(len(np.unique(patch[patch >= 0])))
            new_mesh, bisected = refine_edges(mesh, marked)
        hist.add(k=k, stage="amfem", nT=mesh.nt, nE=mesh.ne, eta2=eta2,
                 osc2=osc2, err=err, n_marked=len(marked),
                 n_bisected=len(bisected),
                 wall_ms=(time.perf_counter() - t0) * 1e3)
        if done:
            return mesh, sol, hist
        prev = (mesh, sol.sigma, report)
        mesh = new_mesh
        k += 1


def approx(f, mesh0: Mesh, epsilon: float, theta_osc: float = 0.5,
           max_iters: int = 100, max_triangles: int = 300000):
    """Greedy data approximation: refine until the total oscillation of f
    drops below epsilon.  Returns (mesh, history)."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if not 0.0 < theta_osc <= 1.0:
        raise ValueError("theta_osc must lie in (0, 1]")
    src = as_source(f)
    hist = ConvergenceHistory()
    mesh = mesh0
    k = 0
    while True:
        t0 = time.perf_counter()
        osc2_tris = oscillation(src, mesh)
        osc2 = float(osc2_tris.sum())
        done = _stop(hist, np.sqrt(osc2) <= epsilon, k, mesh, max_iters,
                     max_triangles)
        marked, bisected = (), ()
        if not done:
            report = EstimatorReport(mesh, np.zeros(mesh.ne), osc2_tris)
            marked = osc_mark(report, theta_osc, mesh=mesh)
            new_mesh, bisected = refine_edges(mesh, marked)
        hist.add(k=k, stage="approx", nT=mesh.nt, nE=mesh.ne,
                 eta2=float("nan"), osc2=osc2, err=float("nan"),
                 n_marked=len(marked), n_bisected=len(bisected),
                 wall_ms=(time.perf_counter() - t0) * 1e3)
        if done:
            return mesh, hist
        mesh = new_mesh
        k += 1


def two_stage(f, mesh0: Mesh, epsilon: float, params: AdaptParams,
              monitors: bool = False):
    """Data approximation to epsilon/2, then the adaptive loop on the
    projected piecewise-constant data to epsilon/2.  Returns
    (mesh, solution, history) with stage-tagged records."""
    src = as_source(f)
    mesh_h, hist = approx(src, mesh0, 0.5 * epsilon,
                          max_triangles=params.max_triangles)
    fh = P0Source(mesh_h, src.cell_means(mesh_h))
    stage2 = replace(params, epsilon=0.5 * epsilon, theta_tilde=0.0, mu=1.0)
    problem = ProblemSpec(f=fh, name="two_stage")
    mesh, sol, hist2 = amfem(mesh_h, problem, stage2, monitors=monitors)
    hist.extend(hist2)
    return mesh, sol, hist
