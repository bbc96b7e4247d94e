"""Lowest-order finite element spaces on a triangulation.

RTSpace   flux space: per triangle a + c*x, normal component continuous
          across edges; one degree of freedom per edge, the total normal
          flux integral with respect to the global edge normal (the tangent
          a -> b for a < b rotated by -90 degrees).

A field is a ``DofVector`` tagged with its kind: "RT" (one value per edge),
"P0" (piecewise constants, one value per live triangle in live order) or
"P1" (continuous piecewise linears, one value per vertex).

The local flux basis attached to edge i (opposite vertex P_i) of triangle T
is s * (x - P_i) / (2|T|), where s = +1 when T lies left of the edge
tangent; its flux through its own edge is 1 and through the other two edges
is identically zero, so the divergence matrix has entries +-1.

The operators of the complex P1 -> RT0 -> P0 are sparse matrices, one
implementation each: ``curl_matrix``, ``div_matrix`` and the flux mass
``rt_mass_matrix``, which reads the one element kernel
``RTSpace.element_blocks`` that the hybridized solve in ``assembly`` reads
too.  Each imports scipy.sparse when it is called, so importing this module
loads none of it.  The P0 projection of f is ``cell_means``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .mesh import Mesh, ancestor_map

__all__ = ["RTSpace", "DofVector", "interpolate_rt", "prolongate",
           "rt_mass_matrix", "div_matrix", "curl_matrix", "dof_to_text",
           "dof_from_text"]


class RTSpace:
    """The flux space of one mesh, and the per-mesh data its operators
    share, each computed the first time it is asked: the element
    coordinates, the blocks Q_T, the mass matrix and the divergence
    matrix."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self._P = None
        self._Q = None
        self._mass = None
        self._div = None

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


_KINDS = ("RT", "P0", "P1")


@dataclass(frozen=True)
class DofVector:
    """Coefficient vector tagged with its space kind and mesh."""
    kind: str
    values: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown space tag %r" % self.kind)
        expected = {"RT": self.mesh.ne, "P0": self.mesh.nt,
                    "P1": self.mesh.nv}[self.kind]
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


# -- matrices ---------------------------------------------------------------

def rt_mass_matrix(space: RTSpace):
    """Sparse flux mass matrix M_ij = integral of phi_i . phi_j, from the
    closed-form local mass (Bahriawati & Carstensen, CMAM 5, 2005) as an
    image of Q_T: the vertex offsets from the centroid are d = A e, with
    d_i = (e_{i+1} - e_{i+2}) / 3, so M_T = s s^T o (G + tr G / 12) / 4
    for G = A Q_T A^T, the Gram matrix of d over |T|."""
    if space._mass is not None:
        return space._mass
    import scipy.sparse as sp
    m = space.mesh
    A = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]) / 3.0
    G = np.einsum("ia,tab,jb->tij", A, space.element_blocks(), A,
                  optimize=True)
    G += np.trace(G, axis1=1, axis2=2)[:, None, None] / 12.0
    s = m.tri_sign.astype(float)
    loc = G * (s[:, :, None] * s[:, None, :] / 4.0)
    rows = np.repeat(m.tri_edge, 3, axis=1).ravel()
    cols = np.tile(m.tri_edge, (1, 3)).ravel()
    M = sp.coo_matrix((loc.ravel(), (rows, cols)),
                      shape=(m.ne, m.ne)).tocsr()
    space._mass = M
    return M


def div_matrix(space: RTSpace):
    """Sparse matrix B with (B sigma)_T = integral of div sigma over T;
    entries are +-1, three per row."""
    if space._div is not None:
        return space._div
    import scipy.sparse as sp
    m = space.mesh
    rows = np.repeat(np.arange(m.nt), 3)
    cols = m.tri_edge.ravel()
    vals = m.tri_sign.ravel().astype(float)
    space._div = sp.coo_matrix((vals, (rows, cols)),
                               shape=(m.nt, m.ne)).tocsr()
    return space._div


def curl_matrix(mesh: Mesh):
    """Sparse (ne, nv) matrix C: C psi holds the fluxes of the rotated
    gradient (d/dy, -d/dx) of the P1 field psi.  The flux through edge
    (a, b) is the integral of the tangential derivative, psi(b) - psi(a)."""
    import scipy.sparse as sp
    rows = np.repeat(np.arange(mesh.ne), 2)
    vals = np.tile([-1.0, 1.0], mesh.ne)
    return sp.coo_matrix((vals, (rows, mesh.edge_verts.ravel())),
                         shape=(mesh.ne, mesh.nv)).tocsr()
