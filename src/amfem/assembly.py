"""Mixed assembly and its solution by hybridization.

The discrete problem pairs the flux space with piecewise constants and has
homogeneous Dirichlet data, so its one load is the cell integrals of f:

    (sigma, tau) - (div tau, u) = 0        for all tau
    (div sigma, v)              = (f, v)   for all v

``assemble`` returns the flux space and that load, rhs_u.  ``solve`` does
not factor the indefinite [[M, -B^T], [B, 0]] of the flux mass M and the
divergence B.  It breaks the normal continuity of the flux,
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
both block rows, and div sigma = (cell mean of f) elementwise, on the
problem with its load scaled to unit norm by a power of two.  They read
M_T and the signs s triangle by triangle and sum with numpy, so no BLAS
thread count moves their bits.  No sparse M or B is built, and M_T is
first computed after the factorization, which sets the memory peak.

``solve`` is ``condense`` (per mesh: the multiplier numbering and the
factor of S) followed by ``recover`` (per load: lambda, sigma, u and the
checks), so several loads on one mesh share one factor.  Both read Q_T
from the space, which computes it once per mesh and derives M_T from it.

The multipliers are numbered by nested dissection read off the bisection
genealogy (``_elimination_order``; the bisection tree as a space
decomposition: Chen, Nochetto & Xu, Numer. Math. 120, 2012): each interior
edge goes by the postorder number of the lowest common ancestor of its two
triangles, so every separator follows the separators inside it and each
subtree's edges are contiguous (Liu, SIAM Review 34, 1992).  In that order
the edge between two live siblings comes before all of its neighbours.
S is built once in that numbering, and up to ``PASSES`` passes then run
in numpy, the first on S.  Each takes the rows of the current matrix that
have no entry left of the diagonal in its symmetric pattern (the leading
independent set: for the first pass on a genealogy mesh exactly those
sibling edges, about a third of the multipliers).  They share no entry, so
the matrix restricted to them is a diagonal D, and with C the block
coupling the kept rows to them the pass hands the Schur complement
A - C D^-1 C^T, kept rows in their order, to the next.  SuperLU factors
what the last pass leaves, with the natural column order, symmetric mode
and diagonal pivots.  A solve is a forward step on each pass's D, SuperLU,
and a back step on each D in reverse (``Condensed.solve``).

Importing this module loads no scipy.sparse.  ``_multiplier_system``
imports scipy.sparse when it builds S, and the module attribute ``spla``
(scipy.sparse.linalg, whose ``splu`` ``condense`` calls) is imported on
its first read and then kept as a module global.  ``condense`` reads it as
a module attribute, so a caller that sets ``assembly.spla`` replaces the
factorization that ``condense`` runs.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
from .fespace import DofVector, RTSpace, rt_affine
from .mesh import Mesh
from .sources import as_source

__all__ = ["ProblemSpec", "MixedSolution", "SolverError",
           "SOLVER", "Condensed", "assemble", "condense", "recover", "solve",
           "solve_poisson", "error_sigma"]

CONSERVATION_TOL = 1e-10
# the leading-independent-set passes ahead of SuperLU
PASSES = 6
# what ``solve`` factors, as recorded in run.meta
SOLVER = ("hybridized-crouzeix-raviart-interior-edges/"
          "bisection-tree-nested-dissection-postorder/"
          "leading-independent-set-elimination-%d-passes/"
          "superlu-symmetric-natural" % PASSES)


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
    residual_sigma: float   # the checks, at unit load scale (``recover``)
    residual_u: float
    conservation_defect: float
    n_multipliers: int      # size of S, the eliminated multipliers too
    factor_nnz: int         # values stored by Condensed: LU of S', C, d
    factor_rows: int        # size of S', the rows SuperLU factors
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


def _postorder(parent, depth):
    """(first, last): the postorder span of the subtree below each node of
    the binary tree ``parent`` (the top node is its own parent, ``depth``
    the distance to it), the lower-numbered of two children first.  A node
    is numbered ``last``, after its subtree.  One pass per level from the
    bottom counts subtree sizes; one pass per level from the top places
    each subtree: the lower child's starts where its parent's does, the
    higher child's after the lower child's subtree."""
    node = np.arange(parent.size)
    # level by level; a narrow dtype lets numpy radix-sort the depths
    seq = np.argsort(depth.astype(np.min_scalar_type(depth.max())),
                     kind="stable")
    cut = np.searchsorted(depth[seq], np.arange(depth.max() + 2))
    levels = [seq[lo:hi] for lo, hi in zip(cut[:-1], cut[1:])]
    at = np.empty_like(node)                        # position in its level
    at[seq] = np.arange(seq.size) - cut[depth[seq]]
    size = np.ones(parent.size)
    for up, kids in zip(levels[-2::-1], levels[:0:-1]):
        size[up] += np.bincount(at[parent[kids]], weights=size[kids],
                                minlength=up.size)
    # the two children of a node sum to ids[node]; the higher one follows
    # the lower one's subtree
    below = node != parent
    ids = np.bincount(parent[below], weights=node[below],
                      minlength=parent.size)
    skip = np.where(below & (2 * node > ids[parent]),
                    size[parent] - 1 - size, 0.0)
    first = np.zeros(parent.size)
    for kids in levels[1:]:
        first[kids] = first[parent[kids]] + skip[kids]
    return first.astype(np.int64), (first + size - 1).astype(np.int64)


def _elimination_order(mesh):
    """The interior edges in nested-dissection order.

    The two triangles of an interior edge lie in different subtrees of
    their lowest common ancestor (LCA) in ``_bisection_tree``, so the edges
    with one LCA separate the edges below it.  Sorting by (postorder
    number of the LCA, edge id) eliminates every edge after all edges whose
    LCA lies strictly below its own, and the edges of each subtree one
    after another (George, SINUM 10, 1973; Liu, SIAM Review 34, 1992).
    The LCA comes from binary lifting: ``jumps[k]`` is every node's 2^k-th
    ancestor, and a node is an ancestor of a triangle when its postorder
    span holds the triangle's number."""
    parent = _bisection_tree(mesh)
    node = np.arange(parent.size)
    top = np.flatnonzero(parent == node)[0]
    jumps = [parent]
    depth = (node != top).astype(np.int64)        # distance to jumps[-1]
    while np.any(jumps[-1] != top):
        depth += depth[jumps[-1]]
        jumps.append(jumps[-1][jumps[-1]])
    first, last = _postorder(parent, depth)
    interior = np.flatnonzero(~mesh.edge_boundary)
    # the tree's nodes are genealogy rows, edge_tri holds live positions;
    # a and b are leaves, so the LCA is the parent of the highest ancestor
    # of a that is not one of b
    a, b = mesh.live[mesh.edge_tri[interior]].T
    at_b = last[b]
    for jump in reversed(jumps):
        up = jump[a]
        a = np.where((first[up] > at_b) | (last[up] < at_b), up, a)
    # ties by edge id: a unique key sorts faster than a stable sort
    n = interior.size
    return interior[np.argsort(last[parent[a]] * n + np.arange(n))]


@dataclass
class Condensed:
    """The per-mesh half of ``solve``: the flux space it was condensed
    from, the multiplier number of each triangle's local edges (-1 on the
    boundary) and the factor of S, whose rows are in elimination order.
    Each entry (elim, d, C) of ``passes`` eliminates the rows flagged in
    ``elim`` from the matrix the pass before it left (S for the first):
    they share no entry, so that matrix restricted to them is the diagonal
    ``d``, C couples the kept rows to them, and the kept rows, in their
    order, carry the Schur complement A - C D^-1 C^T on to the next pass.
    ``lu`` is the LU factor of what the last pass leaves."""
    space: RTSpace
    L: np.ndarray
    passes: list
    lu: object

    @property
    def nnz(self):
        """The values the factor stores: SuperLU's and every pass's C and
        d."""
        return self.lu.nnz + sum(C.nnz + d.size for _, d, C in self.passes)

    def solve(self, b):
        """S^-1 b: a forward step y = b_l / d through the passes, with
        b_k - C y carried on, SuperLU on what the last pass leaves, and the
        back steps (b_l - C^T x_k) / d through the passes in reverse."""
        loads = []
        for elim, d, C in self.passes:
            b_l = b[elim]
            loads.append(b_l)
            b = b[~elim] - C @ (b_l / d)
        x = self.lu.solve(b)
        for (elim, d, C), b_l in zip(reversed(self.passes), reversed(loads)):
            x_k, x = x, np.empty(elim.size)
            x[~elim] = x_k
            x[elim] = (b_l - C.T @ x_k) / d
        return x


def _leading_set(rows, cols, n):
    """The rows of the n x n pattern (rows, cols) with no entry left of the
    diagonal on either side of it: rows that share no entry.  A coupling
    that sums to zero still counts."""
    elim = np.ones(n, dtype=bool)
    elim[np.maximum(rows, cols)[rows != cols]] = False
    return elim


def _multiplier_system(space: RTSpace):
    """The multiplier number of each triangle's local edges, in
    nested-dissection order, up to ``PASSES`` elimination passes, each of
    the leading independent set of the matrix the pass before it left, and
    the matrix the last pass leaves, in CSC form: (L, passes, S') as
    ``Condensed`` holds them.  S sums the element blocks and keeps the
    couplings that sum to exactly zero (the orthogonal legs of a right
    triangle give them), so the first pass sees the pattern of the
    triangles.  One loop runs every pass.  Each starts from the kept rows
    and the diagonal it reads, and the triplets, the numbering's tables and
    every matrix before the last die on the way, so that only S' and the
    passes are alive when SuperLU factors S'."""
    import scipy.sparse as sp
    mesh = space.mesh
    order = _elimination_order(mesh)
    n = order.size
    # int32 numbers halve L and the triplets' rows and columns
    ipos = np.full(mesh.ne, -1, dtype=np.int32)
    ipos[order] = np.arange(n)
    L = ipos[mesh.tri_edge]
    Q = space.element_blocks()
    inner = (L[:, :, None] >= 0) & (L[:, None, :] >= 0)
    rows = np.broadcast_to(L[:, :, None], Q.shape)[inner]
    cols = np.broadcast_to(L[:, None, :], Q.shape)[inner]
    S = sp.csr_matrix((Q[inner], (rows, cols)), shape=(n, n))
    del ipos, order, inner, rows, cols
    passes = []
    # the first row of a matrix has nothing left of its diagonal, so a pass
    # finds no row only when no row is left
    while len(passes) < PASSES and n:
        elim = _leading_set(np.repeat(np.arange(n), np.diff(S.indptr)),
                            S.indices, n)
        d, T = S.diagonal()[elim], S[np.flatnonzero(~elim)]
        # T and d hold all that the pass reads; dropping each matrix once it
        # is read lowers the memory the process keeps for SuperLU's
        del S
        C = T[:, np.flatnonzero(elim)]
        S = T[:, np.flatnonzero(~elim)] - C @ sp.diags(1.0 / d) @ C.T
        del T
        passes.append((elim, d, C))
        n = S.shape[0]
    return L, passes, S.tocsc()


def condense(space: RTSpace) -> Condensed:
    """Condense onto the interior-edge multipliers, number them by nested
    dissection, eliminate leading independent sets in up to ``PASSES``
    passes and factor what they leave in that order."""
    L, passes, S = _multiplier_system(space)
    try:
        # through the module attribute: a bare global read would not reach
        # the module's __getattr__ before the first one binds ``spla``
        lu = sys.modules[__name__].spla.splu(
            S, permc_spec="NATURAL", diag_pivot_thresh=0,
            options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError("sparse factorization failed: %s" % exc) from exc
    return Condensed(space, L, passes, lu)


def _norm(x):
    """The 2-norm by numpy's pairwise sum, which no BLAS thread splits."""
    return np.sqrt(np.square(x).sum())


def _backward_error(r, scale):
    """The componentwise backward error ||r|| / ||scale|| of a block row;
    a zero scale leaves a zero residual (zero load, zero solution)."""
    den = _norm(scale)
    return _norm(r) / den if den > 0 else 0.0


def recover(cond: Condensed, rhs_u) -> MixedSolution:
    """The per-load half of ``solve`` on the space ``cond`` was condensed
    from: the multipliers of the load ``rhs_u``, (sigma, u) elementwise, and
    the residual and conservation checks against the unreduced blocks.
    S does not depend on the load, so the load is scaled by the power of
    two 2^-k that puts its norm in [1/2, 1), the solve and every check run
    at that unit scale, and sigma and u are scaled back by 2^k: exact
    steps, which keep every bit of sigma and u and make each residual
    below mean the same at every data and length scale."""
    k = np.frexp(_norm(rhs_u))[1]
    rhs_u = np.ldexp(rhs_u, -k)
    space = cond.space
    mesh = space.mesh
    E, s, L = mesh.tri_edge, mesh.tri_sign, cond.L
    Q = space.element_blocks()
    f3 = np.broadcast_to(rhs_u[:, None] / 3.0, L.shape)
    inner = L >= 0
    n = np.count_nonzero(~mesh.edge_boundary)
    lam = cond.solve(np.bincount(L[inner], weights=f3[inner], minlength=n))
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
    # a row of B sums s sigma_T in ascending edge id, as a CSR row does
    sig_E = sig[E]
    r1 = np.bincount(E.ravel(), minlength=mesh.ne, weights=(
        np.einsum("tij,tj->ti", space.mass_blocks(), sig_E)
        - s * u[:, None]).ravel())
    scale1 = np.bincount(E.ravel(), minlength=mesh.ne, weights=(
        np.einsum("tij,tj->ti", np.abs(space.mass_blocks()), np.abs(sig_E))
        + np.abs(u)[:, None]).ravel())
    div = np.take_along_axis(s * sig_E, np.argsort(E, axis=1), axis=1)
    r2 = div.sum(axis=1) - rhs_u
    flux_scale = np.abs(div).sum(axis=1)
    # the first block row has no load, so its residual is relative to 1,
    # the size of the load at unit scale
    res_sigma = _norm(r1)
    res_u = _norm(r2) / (1.0 + _norm(rhs_u))
    # the same rows relative to the magnitudes summed in them (Oettli &
    # Prager, Numer. Math. 6, 1964)
    back_sigma = _backward_error(r1, scale1)
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
    return MixedSolution(DofVector("RT", np.ldexp(sig, k), mesh),
                         DofVector("P0", np.ldexp(u, k), mesh), space,
                         float(res_sigma), float(res_u), float(defect), n,
                         cond.nnz, cond.lu.shape[0])


def solve(space: RTSpace, rhs_u) -> MixedSolution:
    return recover(condense(space), rhs_u)


def solve_poisson(mesh: Mesh, problem: ProblemSpec) -> MixedSolution:
    return solve(*assemble(mesh, problem))


def _quad_norm2_diff(space, a0, c, tau):
    """Per live triangle, the squared L2 norm of (tau - affine field),
    evaluated over blocks of ``quadrature.BLOCK_ROWS`` triangles."""
    bary, w = quadrature.tri_rule()
    P = space.opp_coords()
    out = np.empty(len(P))
    for block in quadrature.row_blocks(len(P)):
        pts = quadrature.tri_points(P[block], bary)
        x, y = pts[..., 0], pts[..., 1]
        tx, ty = tau(x, y)
        dx = tx - (a0[block, None, 0] + c[block, None] * x)
        dy = ty - (a0[block, None, 1] + c[block, None] * y)
        out[block] = quadrature.row_dot(dx ** 2 + dy ** 2, w)
    return out * space.mesh.tri_area


def error_sigma(sol: MixedSolution, sigma_exact) -> float:
    """L2 flux error against the exact flux ``sigma_exact``, a vectorized
    callable returning the two components; NaN when it is None, a problem
    without an exact flux.  ``sigma_exact`` is evaluated over blocks of
    ``quadrature.BLOCK_ROWS`` triangles; the per-triangle terms go into one
    array, summed once, and are the same in any block."""
    if sigma_exact is None:
        return float("nan")
    a0, c = sol.affine()
    return float(np.sqrt(_quad_norm2_diff(sol.space, a0, c,
                                          sigma_exact).sum()))
