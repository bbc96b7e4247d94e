"""Reference flux masses for the differential tests.

This is the quadrature assembly that amfem used before its flux mass moved
onto the closed-form local mass: the three-point edge-midpoint rule, exact
for the quadratic integrand phi_i . phi_j.  It is kept here, outside the
package, only as the oracle the tests compare the closed form against:
the local masses, and their scatter into the sparse flux mass matrix.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from amfem import quadrature


def local_masses(space):
    """(nl, 3, 3) local masses M_T[i, j] = integral over T of
    phi_i . phi_j in the global edge orientation."""
    m = space.mesh
    P = space.opp_coords()
    bary, w = quadrature.tri_rule(2)
    X = quadrature.tri_points(P, bary)          # (nl, nq, 2)
    D = X[:, :, None, :] - P[:, None, :, :]     # (nl, nq, 3, 2)
    base = np.einsum("tqia,tqja,q->tij", D, D, w)
    s = m.tri_sign.astype(float)
    scale = 1.0 / (4.0 * m.tri_area)
    return base * s[:, :, None] * s[:, None, :] * scale[:, None, None]


def rt_mass_matrix(space):
    """Sparse flux mass matrix M_ij = integral of phi_i . phi_j."""
    m = space.mesh
    rows = np.repeat(m.tri_edge, 3, axis=1).ravel()
    cols = np.tile(m.tri_edge, (1, 3)).ravel()
    return sp.coo_matrix((local_masses(space).ravel(), (rows, cols)),
                         shape=(m.ne, m.ne)).tocsr()
