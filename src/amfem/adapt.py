"""Marking strategies and the adaptive refinement drivers.

The main loop alternates solve / estimate / mark / refine.  Edges are
marked by Doerfler's criterion on the squared edge indicators; when the
data oscillation decays slower than a geometric target mu^k the marked set
is enlarged until the oscillation carried by the marked patches covers a
theta_tilde fraction.  A set of marks is an int64 array of edge ids.
Refinement bisects every triangle of each marked edge's patch until the
edge itself has split.

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
from .estimator import estimate, oscillation
from .fespace import prolongate
from .mesh import Mesh, _edge_key, ancestor_map, refine_edges
from .sources import P0Source, as_source

__all__ = ["AdaptParams", "HistoryRecord", "ConvergenceHistory",
           "dorfler_mark", "osc_mark", "amfem", "approx", "two_stage",
           "two_stage_settings"]

APPROX_MAX_ITERS = 100     # the iteration cap of ``approx``

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
        if not 0.0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if not (self.max_iters >= 0 and self.max_triangles >= 1):
            raise ValueError("bad stopping parameters")
        return self


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

    def gamma_hat(self):
        """Observed contraction factor of eta: geometric mean of the ratios
        eta_{k+1} / eta_k over consecutive records."""
        recs = self.records
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
        return self


def _indicators(values, name):
    """``values`` as a float array, every value finite and nonnegative."""
    values = np.asarray(values, dtype=float)
    if not np.all((values >= 0.0) & (values < np.inf)):    # NaN fails both
        raise ValueError("%s must be finite and nonnegative" % name)
    return values


def dorfler_mark(eta2, theta: float) -> np.ndarray:
    """The smallest descending-prefix set of edge ids carrying at least a
    theta fraction of the total squared indicator ``eta2``, in decreasing
    indicator order (ties by ascending edge id)."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1], got %r" % theta)
    eta2 = _indicators(eta2, "eta2")
    total = eta2.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    n = int(np.searchsorted(csum, theta * total)) + 1
    return order[:min(n, len(order))].astype(np.int64)


def osc_mark(mesh: Mesh, osc2, theta_tilde: float,
             marked=None) -> np.ndarray:
    """Enlarge the edge ids ``marked`` until the triangles of their patches
    carry theta_tilde**2 of the squared oscillation ``osc2`` (per live
    position); returns ``marked`` followed by the picks.  Greedy:
    repeatedly add the edge contributing the most uncovered oscillation
    (ties by id).  When no edge has a gain left, every triangle with
    positive oscillation is covered, and the set stands even if the sum
    of the picks falls a few ulps short of the target (theta_tilde = 1).

    An initial ``(-gain, id)`` key leaves the heap only when popped, so the
    initial keys still in it come out in sorted order.  The heap is
    therefore exactly a sorted stream of the initial keys merged with a
    small heap of the re-ranked (stale) entries."""
    if not 0.0 <= theta_tilde <= 1.0:
        raise ValueError("theta_tilde must lie in [0, 1]")
    osc2 = _indicators(osc2, "osc2")
    total = osc2.sum()
    chosen = np.array([] if marked is None else marked, dtype=np.int64)
    # -1 in edge_tri, no triangle, is the last slot of arrays padded by one
    pos = mesh.edge_tri
    covered_tri = np.zeros(mesh.nt + 1, dtype=bool)
    covered_tri[pos[chosen]] = True
    covered = osc2[covered_tri[:-1]].sum()
    target = theta_tilde ** 2 * total
    if theta_tilde == 0.0 or total <= 0.0 or covered >= target:
        return chosen

    # gain of an edge: the oscillation of its patch triangles not yet
    # covered, summed left then right; recomputed when popped, since
    # entries go stale as triangles get covered
    side = np.append(osc2, 0.0)[pos]
    free = np.where(covered_tri[pos], 0.0, side)
    gain = free[:, 0] + free[:, 1]
    ids = np.flatnonzero(gain > 0)      # marked edges have no gain left
    order = ids[np.argsort(-gain[ids], kind="stable")]
    # the stream, converted to Python lists in blocks that double in size:
    # (-gain, id, left pos, right pos, left osc2, right osc2) per entry
    stream = [[], [], [], [], [], []]
    head = 0

    def fill():
        """Whether the stream has an entry at ``head``."""
        done = len(stream[0])
        if head < done:
            return True
        if done == order.size:
            return False
        take = order[done:2 * done + 1]
        for col, arr in zip(stream, (-gain[take], take, pos[take, 0],
                                     pos[take, 1], side[take, 0],
                                     side[take, 1])):
            col += arr.tolist()
        return True

    keys, eids, lefts, rights, lsides, rsides = stream
    stale = []      # heap of re-ranked entries, same layout as the stream
    cov = bytearray(covered_tri.view(np.uint8))
    picks = []
    while covered < target:
        if fill() and not (stale and stale[0] < (keys[head], eids[head])):
            entry = (keys[head], eids[head], lefts[head], rights[head],
                     lsides[head], rsides[head])
            head += 1
        elif stale:
            entry = heapq.heappop(stale)
        else:
            break
        negg, eid, left, right, lside, rside = entry
        g = (0.0 if cov[left] else lside) + (0.0 if cov[right] else rside)
        if g <= 0:
            continue
        if -negg > g:
            # the next key is the smaller of the stream head and the top
            # of the stale heap
            nxt = keys[head] if fill() else None
            if stale and (nxt is None or stale[0][0] < nxt):
                nxt = stale[0][0]
            if nxt is not None and -nxt > g:
                heapq.heappush(stale, (-g, eid, left, right, lside, rside))
                continue
        picks.append(eid)
        cov[left] = cov[right] = 1
        covered += g
    if covered < target and np.any(osc2[~np.frombuffer(cov, bool)[:-1]] > 0):
        raise AssertionError("could not cover the oscillation target")
    return np.append(chosen, picks).astype(np.int64)


def _combinatorial_check(coarse, fine):
    """Edges of the coarse mesh that are gone in the fine one; their count
    is bounded by 3x the triangle increase (a property of bisection that
    the discrete upper bound relies on)."""
    coarse_keys = _edge_key(coarse.edge_verts[:, 0], coarse.edge_verts[:, 1])
    fine_keys = _edge_key(fine.edge_verts[:, 0], fine.edge_verts[:, 1])
    gone = np.flatnonzero(~np.isin(coarse_keys, fine_keys, assume_unique=True))
    bound = 3 * (fine.nt - coarse.nt)
    if len(gone) > bound:
        raise AssertionError("%d edges vanished but only %d triangles were "
                             "created" % (len(gone), fine.nt - coarse.nt))
    return gone


def _coarse_dev2(vals, fine, coarse):
    """Per coarse triangle, the squared L2 distance of a fine P0 field to
    its coarse means; also the coarse position of every fine triangle."""
    anc = ancestor_map(fine, coarse)
    area = fine.tri_area
    cmean = (np.bincount(anc, weights=vals * area, minlength=coarse.nt)
             / coarse.tri_area)
    return anc, np.bincount(anc, weights=(vals - cmean[anc]) ** 2 * area,
                            minlength=coarse.nt)


def _coarse_osc2(src, fine, coarse):
    """Squared oscillation of the fine cell means over the coarse mesh."""
    dev = _coarse_dev2(src.cell_means(fine), fine, coarse)[1]
    return float((coarse.tri_h ** 2 * dev).sum())


def _transfer_monitors(hist, prev, mesh, src, monitors):
    """The lost-edge check between the previous step ``prev`` = (mesh,
    flux, report, marked) and ``mesh``, and with ``monitors`` every monitor
    that needs no solution on ``mesh``: records n_gone and n_patch and
    returns upper_ratio's inputs, the previous flux prolongated onto
    ``mesh`` and the ratio's denominator.  Returns None without
    ``monitors``."""
    pmesh, psigma, preport, pmarked = prev
    gone = _combinatorial_check(pmesh, mesh)
    if not monitors:
        return None
    hist.monitors["n_gone"].append(len(gone))
    patch = pmesh.edge_tri[pmarked]
    hist.monitors["n_patch"].append(len(np.unique(patch[patch >= 0])))
    den = (float(preport.eta2_edges[gone].sum())
           + _coarse_osc2(src, mesh, pmesh))
    return prolongate(psigma, mesh).values, den


def _upper_ratio(sol, coarse, den):
    """The localized discrete upper bound's ratio |sigma - coarse|_M^2 /
    den, with the new flux and the local masses of ``sol``'s space."""
    d = sol.sigma.values - coarse
    num = float(sol.space.mass_inner(d, d))
    return num / den if den > 0 else float("nan")


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

    The lost-edge check and every monitor that needs only the previous
    step and the new mesh run before the new solve; then nothing of the
    previous step is alive when the solve factors, which sets the memory
    peak.  Only upper_ratio's numerator waits for the new flux.
    """
    params.validate()
    src = as_source(problem.f)
    problem = replace(problem, f=src)   # one load evaluation per mesh
    hist = ConvergenceHistory()
    hist.monitors = {"upper_ratio": [], "n_gone": [], "n_patch": []}
    mesh = mesh0
    osc0 = None
    prev = None     # (mesh, flux, report, marked) of the previous step
    k = 0
    while True:
        t0 = time.perf_counter()
        upper = None
        if prev is not None:
            upper = _transfer_monitors(hist, prev, mesh, src, monitors)
            prev = None
        sol = solve_poisson(mesh, problem)
        report = estimate(sol, src)
        err = error_sigma(sol, problem.sigma_exact)
        eta2 = report.eta2_total
        osc2 = report.osc2_total
        if osc0 is None:
            osc0 = np.sqrt(osc2)
        if upper is not None:
            hist.monitors["upper_ratio"].append(_upper_ratio(sol, *upper))

        done = _stop(hist, np.sqrt(eta2) < params.epsilon, k, mesh,
                     params.max_iters, params.max_triangles)
        marked, bisected = (), ()
        if not done:
            marked = dorfler_mark(report.eta2_edges, params.theta)
            if np.sqrt(osc2) > osc0 * params.mu ** k:
                marked = osc_mark(mesh, report.osc2_tris, params.theta_tilde,
                                  marked)
            new_mesh, bisected = refine_edges(mesh, marked)
        hist.add(k=k, stage="amfem", nT=mesh.nt, nE=mesh.ne, eta2=eta2,
                 osc2=osc2, err=err, n_marked=len(marked),
                 n_bisected=len(bisected),
                 wall_ms=(time.perf_counter() - t0) * 1e3)
        if done:
            return mesh, sol, hist
        prev = (mesh, sol.sigma, report, marked)
        # from here on only prev holds the step, until the next solve
        mesh, sol, report = new_mesh, None, None
        k += 1


def approx(f, mesh0: Mesh, epsilon: float, theta_osc: float = 0.5,
           max_triangles: int = 300000):
    """Greedy data approximation: refine until the total oscillation of f
    drops below epsilon.  Returns (mesh, history)."""
    if not 0.0 <= epsilon < np.inf:
        raise ValueError("epsilon must be finite and nonnegative")
    if not 0.0 < theta_osc <= 1.0:
        raise ValueError("theta_osc must lie in (0, 1]")
    if not max_triangles >= 1:      # NaN fails
        raise ValueError("max_triangles must be at least 1")
    src = as_source(f)
    hist = ConvergenceHistory()
    mesh = mesh0
    k = 0
    while True:
        t0 = time.perf_counter()
        osc2_tris = oscillation(src, mesh)
        osc2 = float(osc2_tris.sum())
        done = _stop(hist, np.sqrt(osc2) <= epsilon, k, mesh,
                     APPROX_MAX_ITERS, max_triangles)
        marked, bisected = (), ()
        if not done:
            marked = osc_mark(mesh, osc2_tris, theta_osc)
            new_mesh, bisected = refine_edges(mesh, marked)
        hist.add(k=k, stage="approx", nT=mesh.nt, nE=mesh.ne,
                 eta2=float("nan"), osc2=osc2, err=float("nan"),
                 n_marked=len(marked), n_bisected=len(bisected),
                 wall_ms=(time.perf_counter() - t0) * 1e3)
        if done:
            return mesh, hist
        mesh = new_mesh
        k += 1


def two_stage_settings(epsilon: float):
    """The keywords ``two_stage`` sets for each stage: for the stage-1
    ``approx`` call, whose other keywords keep their defaults, and over the
    fields of ``params`` in the stage-2 loop.  Each stage gets half the
    tolerance.  Stage 2's data is piecewise constant, with zero oscillation
    on every mesh, so its loop never marks for oscillation."""
    return {"epsilon": 0.5 * epsilon}, {"epsilon": 0.5 * epsilon}


def two_stage(f, mesh0: Mesh, params: AdaptParams):
    """Data approximation to params.epsilon/2, then the adaptive loop on
    the projected piecewise-constant data to params.epsilon/2.  Returns
    (mesh, solution, history) with stage-tagged records."""
    params.validate()
    stage1, stage2 = two_stage_settings(params.epsilon)
    src = as_source(f)
    mesh_h, hist = approx(src, mesh0, max_triangles=params.max_triangles,
                          **stage1)
    fh = P0Source(mesh_h, src.cell_means(mesh_h))
    mesh, sol, hist2 = amfem(mesh_h, ProblemSpec(f=fh),
                             replace(params, **stage2))
    hist.extend(hist2)
    return mesh, sol, hist
