"""Mixed saddle-point assembly and direct solution.

The discrete problem pairs the flux space with piecewise constants:

    (sigma, tau) - (div tau, u) = -<g, tau . n>   for all tau
    (div sigma, v)              = (f, v)          for all v

assembled as the indefinite block system [[M, -B^T], [B, 0]] and factorized
sparsely.  The second block enforces div sigma = (cell mean of f) exactly,
which is checked after every solve.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import quadrature
from .fespace import (DofVector, RTSpace, P0Space, div_matrix, edge_normals,
                      prolongate, rt_affine, rt_mass_matrix)
from .mesh import Mesh
from .sources import as_source

__all__ = ["ProblemSpec", "SaddleSystem", "MixedSolution", "SolverError",
           "assemble", "solve", "solve_poisson", "error_sigma"]

CONSERVATION_TOL = 1e-10


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
    name: str = ""


@dataclass
class SaddleSystem:
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


def assemble(mesh: Mesh, problem: ProblemSpec, space: RTSpace | None = None):
    if space is None:
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
    ne, nt = mesh.ne, mesh.nt
    K = sp.bmat([[system.M, -system.B.T], [system.B, None]], format="csc")
    rhs = np.concatenate([system.rhs_sigma, system.rhs_u])
    try:
        lu = spla.splu(K)
        x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc) from exc
    if not np.all(np.isfinite(x)):
        raise SolverError("solver produced non-finite values")
    sig, u = x[:ne], x[ne:]
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
    """Squared L2 norm of (tau - affine field) by triangle quadrature."""
    coords = mesh.points[mesh.tri_verts[mesh.live]]
    bary, w = quadrature.tri_rule()
    pts = quadrature.tri_points(coords, bary)
    x, y = pts[..., 0], pts[..., 1]
    tx, ty = tau(x, y)
    dx = tx - (a0[:, None, 0] + c[:, None] * x)
    dy = ty - (a0[:, None, 1] + c[:, None] * y)
    return float(((dx ** 2 + dy ** 2) @ w * mesh.tri_area).sum())


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
    return float(np.sqrt(_quad_norm2_diff(sol.mesh, a0, c, reference)))
