"""A posteriori error indicators: edge jumps plus data oscillation.

Each edge E carries

    eta_E^2 = h_E * integral_E J_E^2 ds

where J_E is the tangential jump of the flux across E, left triangle minus
right (on the boundary just the trace).  The elementwise rotation term
h_T^2 |rot sigma|_{0,T}^2 of the general indicator is left out: flux
fields here are of the form a + c*x on each triangle, so their rotation
vanishes identically.  The data oscillation per triangle is
h_T^2 * |f - mean(f)|_{0,T}^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadrature
from .assembly import MixedSolution
from .fespace import DofVector, RTSpace, rt_affine
from .mesh import Mesh
from .sources import as_source

__all__ = ["EstimatorReport", "oscillation", "estimate", "indicator_edges",
           "report_to_csv"]


@dataclass
class EstimatorReport:
    mesh: Mesh
    eta2_edges: np.ndarray       # (ne,) squared indicator per edge id
    osc2_tris: np.ndarray        # (nl,) squared oscillation, live order

    @property
    def eta2_total(self):
        return float(self.eta2_edges.sum())

    @property
    def osc2_total(self):
        return float(self.osc2_tris.sum())


def _jumps_from_affine(mesh, a0, c):
    pa = mesh.points[mesh.edge_verts[:, 0]]
    pb = mesh.points[mesh.edge_verts[:, 1]]
    t = (pb - pa) / mesh.edge_len[:, None]

    def trace(side, pts):
        tri = mesh.edge_tri[:, side]
        pos = np.maximum(tri, 0)
        sig = a0[pos] + c[pos, None] * pts
        vals = (sig * t).sum(axis=1)
        return np.where(tri >= 0, vals, 0.0)

    ja = trace(0, pa) - trace(1, pa)
    jb = trace(0, pb) - trace(1, pb)
    return ja, jb


def _eta2_from_affine(mesh, a0, c):
    ja, jb = _jumps_from_affine(mesh, a0, c)
    g, w = quadrature.edge_rule()
    jump2 = np.zeros(mesh.ne)
    for gi, wi in zip(g, w):
        jump2 += wi * (ja + gi * (jb - ja)) ** 2
    return mesh.edge_len * (mesh.edge_len * jump2)


def indicator_edges(sigma: DofVector):
    """Squared edge indicator of a flux field, indexed by edge id."""
    a0, c = rt_affine(RTSpace(sigma.mesh), sigma.values)
    return _eta2_from_affine(sigma.mesh, a0, c)


def oscillation(f, mesh: Mesh):
    """Squared data oscillation per live triangle, h_T^2 |f - f_T|^2."""
    return mesh.tri_h ** 2 * as_source(f).cell_osc2(mesh)


def estimate(sol: MixedSolution, f) -> EstimatorReport:
    a0, c = sol.affine()
    return EstimatorReport(sol.mesh, _eta2_from_affine(sol.mesh, a0, c),
                           oscillation(f, sol.mesh))


def report_to_csv(report: EstimatorReport):
    """Per-edge and per-triangle CSV bodies as two strings."""
    eta_lines = ["edge_id,eta2"]
    eta_lines.extend("%d,%s" % (i, repr(float(v)))
                     for i, v in enumerate(report.eta2_edges))
    osc_lines = ["tri_id,osc2"]
    osc_lines.extend("%d,%s" % (t, repr(float(v)))
                     for t, v in zip(report.mesh.live, report.osc2_tris))
    return "\n".join(eta_lines) + "\n", "\n".join(osc_lines) + "\n"
