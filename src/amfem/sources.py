"""Source-term abstraction for the load data f.

Two kinds of data feed the solver and the oscillation indicator: ordinary
callables f(x, y), integrated by quadrature, and piecewise-constant fields
attached to some coarse mesh.  A callable is evaluated once per genealogy
row, not once per mesh: the quadrature data of a row depends on its three
vertices alone, and those never change along a refinement hierarchy.  The
piecewise-constant fields evaluate exactly on any refinement of their mesh
(cell means are ancestor lookups, the oscillation is exactly zero), which
is what the two-stage pipeline relies on.  A callable is evaluated over
blocks of at most ``quadrature.BLOCK_ROWS`` rows, so its point values take
memory bounded by the block, not by the mesh.
"""
from __future__ import annotations

import numpy as np

from . import quadrature
from .mesh import _same_hierarchy, ancestor_map

__all__ = ["FunctionSource", "P0Source", "as_source"]


class FunctionSource:
    """Scalar field given as a vectorized callable f(x, y), integrated by
    quadrature.

    The source keeps one record per genealogy row: the quadrature mean of f
    on the row and the quadrature mean of its squared deviation from that
    mean, plus a flag that says the row was evaluated.  A row's vertices
    never change (the genealogy is append-only), so a call on any mesh
    evaluates f only on the live rows that no earlier call evaluated.  All
    consumers on one mesh (assembly, estimator, monitors), and on every
    later mesh of the run, share those evaluations.  The records hold for a
    mesh whose rows and vertices extend the ones seen so far, and for a
    coarser mesh of the same hierarchy, whose rows and vertices are a
    prefix of them; on any other mesh the source starts over.  The rows to
    evaluate go to f in blocks of ``quadrature.BLOCK_ROWS``; each row's
    records are bit-identical to those of a one-batch evaluation.  A load
    that is not finite at a quadrature point raises ValueError."""

    def __init__(self, f, degree=quadrature.DEFAULT_DEGREE):
        self.f = f
        self._nodes, self._w = quadrature.tri_rule(degree)
        self._forget()

    def _forget(self):
        self._tri_verts = np.empty((0, 3), dtype=np.int32)
        self._points = np.empty((0, 2))
        self._mean = self._dev2 = np.empty(0)
        self._done = np.empty(0, dtype=bool)

    def _records(self, mesh):
        """Mean and squared deviation of f per live triangle, live order."""
        if not _same_hierarchy(self._tri_verts, self._points, mesh):
            self._forget()
        grow = len(mesh.tri_verts) - len(self._tri_verts)
        if grow > 0:
            self._tri_verts = mesh.tri_verts
            self._mean = np.concatenate([self._mean, np.empty(grow)])
            self._dev2 = np.concatenate([self._dev2, np.empty(grow)])
            self._done = np.concatenate([self._done, np.zeros(grow, bool)])
        if mesh.nv > len(self._points):
            self._points = mesh.points
        todo = mesh.live[~self._done[mesh.live]]
        if todo.size:
            self._evaluate(mesh, todo)
        return self._mean[mesh.live], self._dev2[mesh.live]

    def _evaluate(self, mesh, rows):
        for block in quadrature.row_blocks(len(rows)):
            part = rows[block]
            pts = quadrature.tri_points(mesh.points[mesh.tri_verts[part]],
                                        self._nodes)
            vals = np.asarray(self.f(pts[..., 0], pts[..., 1]), dtype=float)
            finite = np.isfinite(vals).all(axis=1)
            if not finite.all():
                raise ValueError("the load is not finite at a quadrature "
                                 "point of triangle %d"
                                 % part[np.argmin(finite)])
            mean = quadrature.row_dot(vals, self._w)
            self._mean[part] = mean
            self._dev2[part] = quadrature.row_dot(
                (vals - mean[:, None]) ** 2, self._w)
            self._done[part] = True

    def cell_integrals(self, mesh):
        return mesh.tri_area * self._records(mesh)[0]

    def cell_means(self, mesh):
        return self.cell_integrals(mesh) / mesh.tri_area

    def cell_osc2(self, mesh):
        """Per live triangle, the squared L2 distance of f to its mean."""
        return mesh.tri_area * self._records(mesh)[1]


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
        return self.values[ancestor_map(mesh, self.mesh)]

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
