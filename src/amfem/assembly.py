"""Mixed assembly and its solution by hybridization.

The discrete problem pairs the flux space with piecewise constants and has
homogeneous Dirichlet data, so its one load is the cell integrals of f:

    (sigma, tau) - (div tau, u) = 0        for all tau
    (div sigma, v)              = (f, v)   for all v

``assemble`` returns the flux space and that load, rhs_u; the mass matrix
M and the divergence matrix B of the unreduced system are the space's,
built when first read.  ``solve`` does not factor the indefinite
[[M, -B^T], [B, 0]].  It breaks the normal continuity of the flux,
eliminates each triangle's three local fluxes and its value of u, and is
left with one multiplier per interior edge.  For RT0-P0 the condensed
matrix is the Crouzeix-Raviart stiffness matrix, which is symmetric
positive definite (Arnold & Brezzi, M2AN 19, 1985; Marini, SINUM 22,
1985).  With e_i = P_{i+2} - P_{i+1} the edge vector opposite local
vertex i, s = tri_sign, |T| = tri_area and f_T = rhs_u[T]:

    Q_T[i, j] = e_i . e_j / |T|                  (RTSpace.element_blocks)
    S lambda  = sum_T f_T / 3                    (interior edges only)
    c_T,i     = lambda_E on interior edges, 0 on boundary edges
    sigma_T   = f_T / 3 - Q_T c_T,               sigma_E = s_T,i sigma_T,i
    u_T       = f_T sum_i |e_i|^2 / (144 |T|) + mean_i c_T,i

These closed forms are the inverse of the local block [[M_T, -1], [1, 0]],
so (sigma, u) is the solution of the unreduced system to roundoff.  It is
checked against the unreduced blocks after every solve: the residual of
both block rows, and div sigma = (cell mean of f) elementwise.  M and B
are first built for these checks, after the factorization: the
factorization sets the memory peak of a run, and it holds only the mesh,
its element coordinates and Q_T, S and the load.

``solve`` is ``condense`` (per mesh: the multiplier numbering and the LU
factor of S) followed by ``recover`` (per load: lambda, sigma, u and the
checks), so several loads on one mesh share one factor.  Both read Q_T
from the space, which computes it once per mesh and derives the flux mass
M from it too.

The multipliers are numbered by nested dissection read off the bisection
genealogy (``_elimination_order``; the bisection tree as a space
decomposition: Chen, Nochetto & Xu, Numer. Math. 120, 2012).  S is
assembled in that order and factored by SuperLU with the natural column
order, symmetric mode and diagonal pivots.

Importing this module loads no scipy.sparse.  ``_multiplier_system``
imports scipy.sparse when it builds S, and the module attribute ``spla``
(scipy.sparse.linalg, whose ``splu`` ``condense`` calls) is imported on its
first read and then kept as a module global.  ``condense`` reads it as a
module attribute, so a caller that sets ``assembly.spla`` replaces the
factorization that ``condense`` runs.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .fespace import (DofVector, RTSpace, div_matrix, prolongate, rt_affine,
                      rt_mass_matrix)
from .mesh import Mesh
from .sources import as_source

__all__ = ["ProblemSpec", "MixedSolution", "SolverError",
           "SOLVER", "Condensed", "assemble", "condense", "recover", "solve",
           "solve_poisson", "error_sigma"]

CONSERVATION_TOL = 1e-10
# what ``solve`` factors, as recorded in run.meta
SOLVER = ("hybridized-crouzeix-raviart-interior-edges/"
          "bisection-tree-nested-dissection/superlu-symmetric-natural")


def __getattr__(name):
    """``spla``, imported on its first read and bound as a module global
    (PEP 562), so that later reads and assignments act on that global."""
    if name == "spla":
        import scipy.sparse.linalg as spla
        globals()["spla"] = spla
        return spla
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


class SolverError(RuntimeError):
    """Factorization failure or a solve that missed its residual target."""


@dataclass
class ProblemSpec:
    """Poisson problem data with homogeneous Dirichlet boundary values:
    source f (callable or a Source object) and an optional exact flux for
    error reporting."""
    f: object
    sigma_exact: object = None


@dataclass
class MixedSolution:
    sigma: DofVector
    u: DofVector
    space: RTSpace          # the flux space the system was assembled on
    residual_sigma: float
    residual_u: float
    conservation_defect: float
    n_multipliers: int      # size of the factored system S
    factor_nnz: int         # nonzeros SuperLU stores for L and U
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
    """The flux space on ``mesh`` and the load rhs_u, the cell integrals
    of f."""
    return RTSpace(mesh), as_source(problem.f).cell_integrals(mesh)


def _bisection_tree(mesh):
    """The bisection forest of ``mesh`` closed into one binary tree.

    Nodes 0 to nt_all - 1 are the triangle rows, each below its
    ``tri_parent``.  The generation-0 rows hang from added nodes, numbered
    from nt_all, that recursive coordinate bisection of their centroids
    builds: a node splits its triangles into two halves of equal count at
    the median of the coordinate with the wider extent.  Returns the parent
    of every node; the top node is its own parent."""
    nt_all = len(mesh.tri_parent)
    roots = np.flatnonzero(mesh.tri_parent < 0)
    parent = np.concatenate([mesh.tri_parent,
                             np.empty(roots.size - 1, dtype=np.int64)])
    if roots.size == 1:
        parent[roots[0]] = roots[0]
        return parent
    cent = mesh.points[mesh.tri_verts[roots]].mean(axis=1)
    order = np.arange(roots.size)
    # the halves still to split, as position ranges [lo, hi) of ``order``
    lo, hi, node = np.array([0]), np.array([roots.size]), np.array([nt_all])
    parent[nt_all] = nt_all
    free = nt_all + 1
    while lo.size:
        # gather the ranges one after another and sort each one along the
        # wider extent of its centroids
        size = hi - lo
        start = np.cumsum(size) - size
        seg = np.repeat(np.arange(lo.size), size)
        pos = np.arange(size.sum()) + (lo - start)[seg]
        c = cent[order[pos]]
        extent = (np.maximum.reduceat(c, start)
                  - np.minimum.reduceat(c, start))
        key = c[np.arange(pos.size), np.argmax(extent, axis=1)[seg]]
        order[pos] = order[pos[np.lexsort((key, seg))]]
        mid = lo + size // 2
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        node = np.concatenate([node, node])
        leaf = hi - lo == 1
        parent[roots[order[lo[leaf]]]] = node[leaf]
        lo, hi, up = lo[~leaf], hi[~leaf], node[~leaf]
        node = free + np.arange(lo.size)
        parent[node] = up
        free += lo.size
    return parent


def _elimination_order(mesh):
    """The interior edges in nested-dissection order.

    The two triangles of an interior edge lie in different subtrees of
    their lowest common ancestor (LCA) in ``_bisection_tree``, so the edges
    with one LCA separate the edges below it.  Sorting by (-depth(LCA),
    LCA, edge id) eliminates every edge after all edges whose LCA lies
    strictly below its own (George, SINUM 10, 1973).  Depths and LCAs come
    from binary lifting: ``jumps[k]`` is every node's 2^k-th ancestor."""
    parent = _bisection_tree(mesh)
    node = np.arange(parent.size)
    top = np.flatnonzero(parent == node)[0]
    jumps = [parent]
    depth = (node != top).astype(np.int64)        # distance to jumps[-1]
    while np.any(jumps[-1] != top):
        depth += depth[jumps[-1]]
        jumps.append(jumps[-1][jumps[-1]])
    interior = np.flatnonzero(~mesh.edge_boundary)
    # the tree's nodes are genealogy rows, edge_tri holds live positions
    a, b = mesh.live[mesh.edge_tri[interior]].T
    swap = depth[a] < depth[b]
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    lift = depth[a] - depth[b]
    for k, jump in enumerate(jumps):
        a = np.where(lift >> k & 1, jump[a], a)
    for jump in reversed(jumps):
        differ = jump[a] != jump[b]
        a, b = np.where(differ, jump[a], a), np.where(differ, jump[b], b)
    lca = np.where(a == b, a, parent[a])
    key = (depth.max() - depth[lca]) * parent.size + lca
    return interior[np.argsort(key, kind="stable")]


@dataclass
class Condensed:
    """The per-mesh half of ``solve``: the multiplier number of each
    triangle's local edges (-1 on the boundary) and the LU factor of S,
    whose rows are in elimination order."""
    L: np.ndarray
    lu: object


def _multiplier_system(space: RTSpace):
    """The multiplier number of each triangle's local edges, in
    nested-dissection order, and S in that numbering.  The numbering's
    tables and the COO triplets of S die with this call, so that only S is
    alive when SuperLU factors it."""
    import scipy.sparse as sp
    mesh = space.mesh
    Q = space.element_blocks()
    order = _elimination_order(mesh)
    n = order.size
    ipos = np.full(mesh.ne, -1, dtype=np.int64)
    ipos[order] = np.arange(n)
    L = ipos[mesh.tri_edge]
    inner = L >= 0
    keep = inner[:, :, None] & inner[:, None, :]
    rows = np.broadcast_to(L[:, :, None], Q.shape)[keep]
    cols = np.broadcast_to(L[:, None, :], Q.shape)[keep]
    return L, sp.coo_matrix((Q[keep], (rows, cols)), shape=(n, n)).tocsc()


def condense(space: RTSpace) -> Condensed:
    """Condense onto the interior-edge multipliers, number them by nested
    dissection and factor S in that order."""
    L, S = _multiplier_system(space)
    try:
        # through the module attribute: a bare global read would not reach
        # the module's __getattr__ before the first one binds ``spla``
        lu = sys.modules[__name__].spla.splu(
            S, permc_spec="NATURAL", diag_pivot_thresh=0,
            options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc) from exc
    return Condensed(L, lu)


def _backward_error(r, scale):
    """The componentwise backward error ||r|| / ||scale|| of a block row;
    a zero scale leaves a zero residual (zero load, zero solution)."""
    den = np.linalg.norm(scale)
    return np.linalg.norm(r) / den if den > 0 else 0.0


def recover(cond: Condensed, space: RTSpace, rhs_u) -> MixedSolution:
    """The per-load half of ``solve`` on the mesh ``cond`` was condensed
    on: the multipliers of the load ``rhs_u``, (sigma, u) elementwise, and
    the residual and conservation checks against the unreduced blocks."""
    mesh = space.mesh
    E, s, L = mesh.tri_edge, mesh.tri_sign, cond.L
    Q = space.element_blocks()
    f3 = np.broadcast_to(rhs_u[:, None] / 3.0, L.shape)
    inner = L >= 0
    n = cond.lu.shape[0]
    lam = cond.lu.solve(np.bincount(L[inner], weights=f3[inner], minlength=n))
    # local recovery; each edge takes its flux from one triangle: the left
    # one of an interior edge, the only one of a boundary edge
    c = np.append(lam, 0.0)[L]              # index -1 reads the appended 0
    sig_T = f3 - np.einsum("tij,tj->ti", Q, c)
    own = (s > 0) | mesh.edge_boundary[E]
    sig = np.empty(mesh.ne)
    sig[E[own]] = (s * sig_T)[own]
    u = rhs_u * np.trace(Q, axis1=1, axis2=2) / 144.0 + c.mean(axis=1)
    if not (np.all(np.isfinite(sig)) and np.all(np.isfinite(u))):
        raise SolverError("solver produced non-finite values")
    M, B = rt_mass_matrix(space), div_matrix(space)
    absB = abs(B)
    flux_scale = absB @ np.abs(sig)
    r1 = M @ sig - B.T @ u
    r2 = B @ sig - rhs_u
    # the first block row has no load, so its residual is relative to 1
    res_sigma = np.linalg.norm(r1)
    res_u = np.linalg.norm(r2) / (1.0 + np.linalg.norm(rhs_u))
    # the same rows relative to the magnitudes summed in them (Oettli &
    # Prager, Numer. Math. 6, 1964), which, unlike the residuals above,
    # do not pass a wrong flux below unit data
    back_sigma = _backward_error(r1, abs(M) @ np.abs(sig)
                                 + absB.T @ np.abs(u))
    back_u = _backward_error(r2, flux_scale + np.abs(rhs_u))
    if max(res_sigma, res_u, back_sigma, back_u) > 1e-10:
        raise SolverError("solve residual too large: %.3e / %.3e (backward "
                          "error %.3e / %.3e)" % (res_sigma, res_u,
                                                  back_sigma, back_u))
    # Conservation: div sigma_h equals the projected load elementwise, which
    # in dof terms reads B sigma = rhs_u row by row.  The defect is measured
    # against the row magnitudes (the fluxes actually summed), since dividing
    # by tiny element areas would only amplify representation roundoff.
    defect = np.max(np.abs(r2) / (1.0 + np.abs(rhs_u) + flux_scale))
    if defect > CONSERVATION_TOL:
        raise SolverError("conservation defect %.3e exceeds %.1e"
                          % (defect, CONSERVATION_TOL))
    return MixedSolution(DofVector("RT", sig, mesh), DofVector("P0", u, mesh),
                         space, float(res_sigma), float(res_u), float(defect),
                         n, cond.lu.nnz)


def solve(space: RTSpace, rhs_u) -> MixedSolution:
    return recover(condense(space), space, rhs_u)


def solve_poisson(mesh: Mesh, problem: ProblemSpec) -> MixedSolution:
    return solve(*assemble(mesh, problem))


def _quad_norm2_diff(space, a0, c, tau):
    """Per live triangle, the squared L2 norm of (tau - affine field)."""
    bary, w = quadrature.tri_rule()
    pts = quadrature.tri_points(space.opp_coords(), bary)
    x, y = pts[..., 0], pts[..., 1]
    tx, ty = tau(x, y)
    dx = tx - (a0[:, None, 0] + c[:, None] * x)
    dy = ty - (a0[:, None, 1] + c[:, None] * y)
    return (dx ** 2 + dy ** 2) @ w * space.mesh.tri_area


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
    return float(np.sqrt(_quad_norm2_diff(sol.space, a0, c, reference).sum()))
