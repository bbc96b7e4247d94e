"""The saddle-point solve that ``assembly.solve`` replaced, kept as the
oracle of the differential tests: the indefinite block system
[[M, -B^T], [B, 0]] assembled whole and factored by sparse LU."""
import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def solve(system):
    """(sigma, u) coefficient arrays of the unreduced saddle system."""
    ne = system.space.mesh.ne
    K = sp.bmat([[system.M, -system.B.T], [system.B, None]], format="csc")
    rhs = np.concatenate([system.rhs_sigma, system.rhs_u])
    x = spla.splu(K).solve(rhs)
    return x[:ne], x[ne:]
