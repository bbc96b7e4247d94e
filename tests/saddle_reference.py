"""The saddle-point solve that ``assembly.solve`` replaced, kept as the
oracle of the differential tests: the indefinite block system
[[M, -B^T], [B, 0]] assembled whole and factored by sparse LU."""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from amfem.fespace import div_matrix
from mass_reference import rt_mass_matrix


def solve(space, rhs_u):
    """(sigma, u) coefficient arrays of the unreduced saddle system with
    the load ``rhs_u``."""
    ne = space.mesh.ne
    M, B = rt_mass_matrix(space), div_matrix(space)
    K = sp.bmat([[M, -B.T], [B, None]], format="csc")
    x = spla.splu(K).solve(np.concatenate([np.zeros(ne), rhs_u]))
    return x[:ne], x[ne:]
