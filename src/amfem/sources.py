"""Source-term abstraction for the load data f.

Two kinds of data feed the solver and the oscillation indicator: ordinary
callables f(x, y), integrated by quadrature, and piecewise-constant fields
attached to some coarse mesh.  The latter evaluate exactly on any refinement
of their mesh (cell means are ancestor lookups, the oscillation is exactly
zero), which is what the two-stage pipeline relies on.
"""
from __future__ import annotations

import numpy as np

from . import quadrature
from .mesh import ancestor_map

__all__ = ["FunctionSource", "P0Source", "as_source"]


class FunctionSource:
    """Scalar field given as a vectorized callable f(x, y).  The point
    values on the last mesh evaluated are kept, so every consumer on one
    mesh (assembly, estimator, monitors) shares one evaluation of f."""

    def __init__(self, f, degree=quadrature.DEFAULT_DEGREE):
        self.f = f
        self._nodes, self._w = quadrature.tri_rule(degree)
        self._mesh = self._vals = None

    def _values(self, mesh):
        if mesh is not self._mesh:
            self._mesh = self._vals = None     # never hold two meshes' values
            pts = quadrature.tri_points(mesh.points[mesh.tri_verts[mesh.live]],
                                        self._nodes)
            self._vals = np.asarray(self.f(pts[..., 0], pts[..., 1]),
                                    dtype=float)
            self._mesh = mesh
        return self._vals

    def cell_integrals(self, mesh):
        return mesh.tri_area * (self._values(mesh) @ self._w)

    def cell_means(self, mesh):
        return self.cell_integrals(mesh) / mesh.tri_area

    def cell_osc2(self, mesh):
        """Per live triangle, the squared L2 distance of f to its mean."""
        vals = self._values(mesh)
        mean = vals @ self._w
        osc2 = mesh.tri_area * (((vals - mean[:, None]) ** 2) @ self._w)
        return np.maximum(osc2, 0.0)


class P0Source:
    """Scalar field constant on each live triangle of a base mesh,
    evaluated exactly on the base mesh or any refinement of it."""

    def __init__(self, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.nt,):
            raise ValueError("need one value per live triangle, got %r"
                             % (values.shape,))
        self.mesh = mesh
        self.values = values

    def _on(self, mesh):
        if mesh is self.mesh:
            return self.values
        anc = ancestor_map(mesh, self.mesh)
        return self.values[self.mesh.live_pos[anc]]

    def cell_means(self, mesh):
        return self._on(mesh)

    def cell_integrals(self, mesh):
        return self._on(mesh) * mesh.tri_area

    def cell_osc2(self, mesh):
        return np.zeros(mesh.nt)


def as_source(f):
    if isinstance(f, (FunctionSource, P0Source)):
        return f
    if callable(f):
        return FunctionSource(f)
    raise TypeError("source term must be a callable or a Source, got %r"
                    % type(f).__name__)
