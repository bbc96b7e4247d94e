"""Mixed assembly and its solution by hybridization.

The discrete problem pairs the flux space with piecewise constants:

    (sigma, tau) - (div tau, u) = -<g, tau . n>   for all tau
    (div sigma, v)              = (f, v)          for all v

``assemble`` returns its blocks unreduced: the mass matrix M, the
divergence matrix B and the two right-hand sides.  ``solve`` does not
factor the indefinite [[M, -B^T], [B, 0]].  It breaks the normal continuity
of the flux, eliminates each triangle's three local fluxes and its value of
u, and is left with one multiplier per interior edge.  For RT0-P0 the
condensed matrix is the Crouzeix-Raviart stiffness matrix, which is
symmetric positive definite (Arnold & Brezzi, M2AN 19, 1985; Marini,
SINUM 22, 1985).  With e_i = P_{i+2} - P_{i+1} the edge vector opposite
local vertex i, s = tri_sign, |T| = tri_area and f_T = rhs_u[T]:

    Q_T[i, j] = e_i . e_j / |T|                  (element block)
    r_T,i     = s_T,i rhs_sigma[E]   on one triangle of each edge, else 0
    S lambda  = sum_T (Q_T r_T + f_T / 3)        (interior edges only)
    c_T,i     = lambda_E on interior edges, 0 on boundary edges
    sigma_T   = Q_T (r_T - c_T) + f_T / 3,       sigma_E = s_T,i sigma_T,i
    u_T       = f_T sum_i |e_i|^2 / (144 |T|) - mean_i (r_T - c_T)_i

These closed forms are the inverse of the local block [[M_T, -1], [1, 0]],
so (sigma, u) is the solution of the unreduced system to roundoff.  It is
checked against the unreduced blocks after every solve: the residual of
both block rows, and div sigma = (cell mean of f) elementwise.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .fespace import (DofVector, RTSpace, div_matrix, prolongate, rt_affine,
                      rt_mass_matrix)
from .mesh import Mesh
from .sources import as_source

__all__ = ["ProblemSpec", "SaddleSystem", "MixedSolution", "SolverError",
           "SOLVER", "assemble", "solve", "solve_poisson", "error_sigma"]

CONSERVATION_TOL = 1e-10
# what ``solve`` factors, as recorded in run.meta
SOLVER = "hybridized-crouzeix-raviart-interior-edges/superlu-colamd"


class SolverError(RuntimeError):
    """Factorization failure or a solve that missed its residual target."""


@dataclass
class ProblemSpec:
    """Poisson problem data: source f (callable or a Source object),
    Dirichlet boundary values g (None means homogeneous), and an optional
    exact flux for error reporting."""
    f: object
    g: object = None
    sigma_exact: object = None


@dataclass
class SaddleSystem:
    """The unreduced mixed system M sigma - B^T u = rhs_sigma,
    B sigma = rhs_u; ``solve`` condenses it and checks its solution against
    these blocks."""
    space: RTSpace
    M: sp.csr_matrix
    B: sp.csr_matrix
    rhs_sigma: np.ndarray
    rhs_u: np.ndarray


@dataclass
class MixedSolution:
    sigma: DofVector
    u: DofVector
    space: RTSpace          # the flux space the system was assembled on
    residual_sigma: float
    residual_u: float
    conservation_defect: float
    wall_ms: float = 0.0
    _affine: tuple = field(default=None, repr=False)

    @property
    def mesh(self):
        return self.space.mesh

    def affine(self):
        """Cached per-triangle affine form of the flux field."""
        if self._affine is None:
            self._affine = rt_affine(self.space, self.sigma.values)
        return self._affine


def assemble(mesh: Mesh, problem: ProblemSpec):
    space = RTSpace(mesh)
    M = rt_mass_matrix(space)
    B = div_matrix(space)
    rhs_u = as_source(problem.f).cell_integrals(mesh)
    rhs_sigma = np.zeros(mesh.ne)
    if problem.g is not None:
        # the basis attached to a boundary edge is the only one with nonzero
        # trace there; its normal component is s/|E| with s relating the
        # global edge normal to the outward one
        bnd = np.flatnonzero(mesh.edge_boundary)
        a = mesh.points[mesh.edge_verts[bnd, 0]]
        b = mesh.points[mesh.edge_verts[bnd, 1]]
        s = np.where(mesh.edge_tri[bnd, 0] >= 0, 1.0, -1.0)
        g, w = quadrature.edge_rule()
        gint = np.zeros(len(bnd))
        for gi, wi in zip(g, w):
            p = a + gi * (b - a)
            gint += wi * np.asarray(problem.g(p[:, 0], p[:, 1]), dtype=float)
        rhs_sigma[bnd] = -s * gint
    return SaddleSystem(space, M, B, rhs_sigma, rhs_u)


def solve(system: SaddleSystem) -> MixedSolution:
    t0 = time.perf_counter()
    mesh = system.space.mesh
    E, s = mesh.tri_edge, mesh.tri_sign
    # element blocks Q_T from the edge vectors e_i = P_{i+2} - P_{i+1}
    P = system.space.opp_coords()
    e = P[:, [2, 0, 1]] - P[:, [1, 2, 0]]
    Q = np.einsum("tia,tja->tij", e, e) / mesh.tri_area[:, None, None]
    f3 = system.rhs_u[:, None] / 3.0
    # rhs_sigma goes to one triangle per edge: the left one of an interior
    # edge, the only one of a boundary edge
    own = (s > 0) | mesh.edge_boundary[E]
    r = np.where(own, s * system.rhs_sigma[E], 0.0)
    # multiplier numbering: interior edges in edge order, -1 on the boundary
    interior = ~mesh.edge_boundary
    n = int(np.count_nonzero(interior))
    ipos = np.full(mesh.ne, -1, dtype=np.int64)
    ipos[interior] = np.arange(n)
    L = ipos[E]
    inner = L >= 0
    keep = inner[:, :, None] & inner[:, None, :]
    rows = np.broadcast_to(L[:, :, None], Q.shape)[keep]
    cols = np.broadcast_to(L[:, None, :], Q.shape)[keep]
    S = sp.coo_matrix((Q[keep], (rows, cols)), shape=(n, n)).tocsc()
    b = np.einsum("tij,tj->ti", Q, r) + f3
    rhs = np.bincount(L[inner], weights=b[inner], minlength=n)
    try:
        lam = spla.splu(S).solve(rhs)
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc) from exc
    # local recovery; each edge takes its flux from its owning triangle
    d = r - np.append(lam, 0.0)[L]          # index -1 reads the appended 0
    sig_T = np.einsum("tij,tj->ti", Q, d) + f3
    sig = np.empty(mesh.ne)
    sig[E[own]] = (s * sig_T)[own]
    u = (system.rhs_u * np.trace(Q, axis1=1, axis2=2) / 144.0
         - d.mean(axis=1))
    if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(u))):
        raise SolverError("solver produced non-finite values")
    r1 = system.M @ sig - system.B.T @ u - system.rhs_sigma
    r2 = system.B @ sig - system.rhs_u
    res_sigma = np.linalg.norm(r1) / (1.0 + np.linalg.norm(system.rhs_sigma))
    res_u = np.linalg.norm(r2) / (1.0 + np.linalg.norm(system.rhs_u))
    if max(res_sigma, res_u) > 1e-10:
        raise SolverError("solve residual too large: %.3e / %.3e"
                          % (res_sigma, res_u))
    # Conservation: div sigma_h equals the projected load elementwise, which
    # in dof terms reads B sigma = rhs_u row by row.  The defect is measured
    # against the row magnitudes (the fluxes actually summed), since dividing
    # by tiny element areas would only amplify representation roundoff.
    flux_scale = np.abs(system.B) @ np.abs(sig)
    defect = np.max(np.abs(system.B @ sig - system.rhs_u)
                    / (1.0 + np.abs(system.rhs_u) + flux_scale))
    if defect > CONSERVATION_TOL:
        raise SolverError("conservation defect %.3e exceeds %.1e"
                          % (defect, CONSERVATION_TOL))
    wall = (time.perf_counter() - t0) * 1e3
    return MixedSolution(DofVector("RT", sig, mesh), DofVector("P0", u, mesh),
                         system.space, float(res_sigma), float(res_u),
                         float(defect), wall)


def solve_poisson(mesh: Mesh, problem: ProblemSpec) -> MixedSolution:
    return solve(assemble(mesh, problem))


def _quad_norm2_diff(mesh, a0, c, tau):
    """Per live triangle, the squared L2 norm of (tau - affine field)."""
    coords = mesh.points[mesh.tri_verts[mesh.live]]
    bary, w = quadrature.tri_rule()
    pts = quadrature.tri_points(coords, bary)
    x, y = pts[..., 0], pts[..., 1]
    tx, ty = tau(x, y)
    dx = tx - (a0[:, None, 0] + c[:, None] * x)
    dy = ty - (a0[:, None, 1] + c[:, None] * y)
    return (dx ** 2 + dy ** 2) @ w * mesh.tri_area


def error_sigma(sol: MixedSolution, reference) -> float:
    """L2 flux error against an exact field (vectorized callable returning
    the two components) or a discrete solution on a nested finer mesh."""
    if isinstance(reference, MixedSolution):
        fine = reference.mesh
        coarse_on_fine = prolongate(sol.sigma, fine)
        d = reference.sigma.values - coarse_on_fine.values
        M = rt_mass_matrix(reference.space)
        return float(np.sqrt(max(d @ (M @ d), 0.0)))
    a0, c = sol.affine()
    return float(np.sqrt(_quad_norm2_diff(sol.mesh, a0, c, reference).sum()))
