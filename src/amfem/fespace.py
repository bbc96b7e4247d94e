"""Lowest-order finite element spaces on a triangulation.

RTSpace   flux space: per triangle a + c*x, normal component continuous
          across edges; one degree of freedom per edge, the total normal
          flux integral with respect to the global edge normal (the tangent
          a -> b for a < b rotated by -90 degrees).

A field is a ``DofVector`` tagged with its kind: "RT" (one value per edge)
or "P0" (piecewise constants, one value per live triangle in live order).

The local flux basis attached to edge i (opposite vertex P_i) of triangle T
is s * (x - P_i) / (2|T|), where s = +1 when T lies left of the edge
tangent; its flux through its own edge is 1 and through the other two edges
is identically zero, so the divergence matrix has entries +-1.

The flux mass is per triangle: ``RTSpace.mass_blocks`` derives the local
masses M_T from the element kernel ``RTSpace.element_blocks`` that the
solve reads, and ``RTSpace.mass_inner`` is the flux inner product.  The
sparse ``div_matrix`` serves the checks, not the solve, and imports
scipy.sparse when called.  The P0 projection of f is ``cell_means``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .mesh import Mesh, ancestor_map

__all__ = ["RTSpace", "DofVector", "interpolate_rt", "prolongate",
           "div_matrix", "dof_to_text", "dof_from_text"]


class RTSpace:
    """The flux space of one mesh and its per-triangle arrays, each
    computed when first asked: the element coordinates, Q_T and M_T."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._P = None
        self._Q = None
        self._M = None

    def opp_coords(self):
        """(nl, 3, 2) coordinates of the vertex opposite each local edge."""
        if self._P is None:
            self._P = self.mesh.points[self.mesh.tri_verts[self.mesh.live]]
        return self._P

    def element_blocks(self):
        """(nl, 3, 3) Crouzeix-Raviart blocks Q_T[i, j] = e_i . e_j / |T|,
        e_i = P_{i+2} - P_{i+1}."""
        if self._Q is None:
            P = self.opp_coords()
            e = P[:, [2, 0, 1]] - P[:, [1, 2, 0]]
            self._Q = (np.einsum("tia,tja->tij", e, e)
                       / self.mesh.tri_area[:, None, None])
        return self._Q

    def mass_blocks(self):
        """(nl, 3, 3) local flux masses M_T[i, j] = integral over T of
        phi_i . phi_j in the global edge orientation, in closed form
        (Bahriawati & Carstensen, CMAM 5, 2005) as an image of Q_T: the
        vertex offsets from the centroid are d = A e, with
        d_i = (e_{i+1} - e_{i+2}) / 3, so M_T = s s^T o (G + tr G / 12) / 4
        for G = A Q_T A^T, the Gram matrix of d over |T|."""
        if self._M is None:
            A = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]) / 3.0
            G = np.einsum("ia,tab,jb->tij", A, self.element_blocks(), A,
                          optimize=True)
            G += np.trace(G, axis1=1, axis2=2)[:, None, None] / 12.0
            s = self.mesh.tri_sign
            self._M = G * (s[:, :, None] * s[:, None, :] / 4.0)
        return self._M

    def mass_inner(self, a, b):
        """The flux inner product (a, b)_M, or row by row of two (k, ne)
        stacks: a_T . M_T b_T per triangle, elementwise, then numpy's sum of
        each contiguous row, which no BLAS thread splits and which sums a
        stacked row as it sums it alone."""
        M, E = self.mass_blocks(), self.mesh.tri_edge
        Mb = sum(M[:, :, j] * b[..., E[:, j], None] for j in range(3))
        per_tri = sum(a[..., E[:, i]] * Mb[..., i] for i in range(3))
        return np.ascontiguousarray(per_tri).sum(axis=-1)


_KINDS = ("RT", "P0")


@dataclass(frozen=True)
class DofVector:
    """Coefficient vector tagged with its space kind and mesh."""
    kind: str
    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown space tag %r" % self.kind)
        expected = {"RT": self.mesh.ne, "P0": self.mesh.nt}[self.kind]
        if self.values.shape != (expected,):
            raise ValueError("expected %d %s coefficients, got %r"
                             % (expected, self.kind, self.values.shape))


def dof_to_text(dof: DofVector) -> str:
    lines = ["amfemdof 1 %s %d" % (dof.kind, len(dof.values))]
    lines.extend(repr(float(v)) for v in dof.values)
    return "\n".join(lines) + "\n"


def dof_from_text(text, mesh):
    rows = [r for r in (line.split("#", 1)[0].strip()
                        for line in text.splitlines()) if r]
    head = rows[0].split() if rows else []
    if len(head) != 4 or head[:2] != ["amfemdof", "1"] or head[2] not in _KINDS:
        raise ValueError("expected header 'amfemdof 1 <space> <n>'")
    n = int(head[3])
    if len(rows) != 1 + n:
        raise ValueError("expected %d coefficients, found %d" % (n, len(rows) - 1))
    vals = np.array([float(r) for r in rows[1:]])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError("coefficient row %d is not finite: %r"
                         % (bad[0] + 1, rows[1 + bad[0]]))
    return DofVector(head[2], vals, mesh)


# -- per-triangle affine form ----------------------------------------------

def rt_affine(space, values):
    """Per live triangle the affine representation sigma(x) = a0 + c*x:
    returns (a0, c) with shapes (nl, 2) and (nl,)."""
    m = space.mesh
    cs = values[m.tri_edge] * m.tri_sign
    inv2a = 1.0 / (2.0 * m.tri_area)
    c = cs.sum(axis=1) * inv2a
    a0 = -np.einsum("ti,tix->tx", cs, space.opp_coords()) * inv2a[:, None]
    return a0, c


# -- interpolation and prolongation ----------------------------------------

def edge_normals(mesh):
    """(ne, 2) unit normals: the a -> b tangent rotated by -90 degrees."""
    vec = mesh.points[mesh.edge_verts[:, 1]] - mesh.points[mesh.edge_verts[:, 0]]
    t = vec / mesh.edge_len[:, None]
    return np.column_stack([t[:, 1], -t[:, 0]])


def interpolate_rt(tau, space: RTSpace) -> DofVector:
    """RT interpolant: the dof on E is the 2-point Gauss approximation of
    the flux integral of tau across E (exact for components of degree <= 3)."""
    m = space.mesh
    a = m.points[m.edge_verts[:, 0]]
    b = m.points[m.edge_verts[:, 1]]
    n = edge_normals(m)
    g, w = quadrature.edge_rule()
    vals = np.zeros(m.ne)
    for gi, wi in zip(g, w):
        p = a + gi * (b - a)
        tx, ty = tau(p[:, 0], p[:, 1])
        vals += wi * (tx * n[:, 0] + ty * n[:, 1])
    return DofVector("RT", vals * m.edge_len, m)


def prolongate(dof: DofVector, fine: Mesh) -> DofVector:
    """Represent a coarse RT field exactly on a nested finer mesh.  A P0
    field carries over as ``P0Source(coarse, values).cell_means(fine)``."""
    if dof.kind != "RT":
        raise ValueError("prolongation supports RT fields, not %s" % dof.kind)
    coarse = dof.mesh
    anc = ancestor_map(fine, coarse)
    a0, c = rt_affine(RTSpace(coarse), dof.values)
    # flux of the coarse field through each fine edge; the integrand is
    # linear along the edge, so the midpoint value is exact.  Taking the
    # containing coarse triangle of either incident fine triangle gives the
    # same flux because normal components match across coarse edges.
    left = np.where(fine.edge_tri[:, 0] >= 0, fine.edge_tri[:, 0],
                    fine.edge_tri[:, 1])
    owner = anc[left]
    mid = 0.5 * (fine.points[fine.edge_verts[:, 0]]
                 + fine.points[fine.edge_verts[:, 1]])
    sig = a0[owner] + c[owner, None] * mid
    n = edge_normals(fine)
    vals = (sig * n).sum(axis=1) * fine.edge_len
    return DofVector("RT", vals, fine)


# -- the divergence --------------------------------------------------------

def div_matrix(space: RTSpace):
    """Sparse matrix B with (B sigma)_T = integral of div sigma over T;
    entries are +-1, three per row."""
    import scipy.sparse as sp
    m = space.mesh
    rows = np.repeat(np.arange(m.nt), 3)
    cols = m.tri_edge.ravel()
    vals = m.tri_sign.ravel().astype(float)
    return sp.coo_matrix((vals, (rows, cols)), shape=(m.nt, m.ne)).tocsr()

