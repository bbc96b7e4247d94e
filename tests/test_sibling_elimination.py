"""The multipliers ``condense`` eliminates ahead of SuperLU: the leading
independent set of S in nested-dissection order.  On random refinements
(with and without a save/load round trip) the eliminated block of S is
diagonal, on genealogy meshes the set is exactly the edges shared by two
live siblings, and the three-step solve (forward step, SuperLU on the
Schur complement, back step) equals a direct solve of the full S."""
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from amfem import assembly
from amfem.assembly import (ProblemSpec, _bisection_tree, _elimination_order,
                            condense, solve_poisson)
from amfem.fespace import RTSpace
from amfem.mesh import load_mesh, save_mesh, uniform_refine
from amfem.verify import lshape_mesh, unit_square_mesh
from test_nvb_properties import nested_meshes


def full_system(cond):
    """S in the multiplier numbering of ``cond``, summed from the element
    blocks triangle by triangle, with the entries of boundary edges left
    out."""
    L, Q = cond.L, cond.space.element_blocks()
    n = cond.elim.size
    inner = (L[:, :, None] >= 0) & (L[:, None, :] >= 0)
    rows = np.broadcast_to(L[:, :, None], Q.shape)[inner]
    cols = np.broadcast_to(L[:, None, :], Q.shape)[inner]
    return sp.csr_matrix((Q[inner], (rows, cols)), shape=(n, n))


def sibling_edges(mesh):
    """The interior edges whose two triangles have one parent in the
    bisection tree: the live sibling pairs of the genealogy, and root
    pairs that the coordinate bisection put under one node."""
    parent = _bisection_tree(mesh)
    interior = np.flatnonzero(~mesh.edge_boundary)
    a, b = mesh.live[mesh.edge_tri[interior]].T
    return np.sort(interior[parent[a] == parent[b]])


def assert_elimination_exact(cond, S, rhs):
    """The eliminated block of S is diagonal, each kept row keeps an entry
    left of its diagonal, and the three-step solve equals ``rhs``'s direct
    solve of S to 1e-12 relative."""
    elim = cond.elim
    block = S[elim][:, elim].toarray()
    assert np.array_equal(block, np.diag(np.diag(block)))
    assert np.array_equal(np.diag(block), cond.d)
    lower = sp.tril(S, k=-1).tocsr()
    assert np.all(np.diff(lower.indptr)[~elim] > 0)
    assert np.all(np.diff(lower.indptr)[elim] == 0)
    assert cond.lu.shape == (np.count_nonzero(~elim),) * 2
    lam = cond.solve(rhs)
    want = (scipy.linalg.solve(S.toarray(), rhs, assume_a="pos")
            if S.shape[0] <= 3000 else spla.spsolve(S.tocsc(), rhs))
    assert np.linalg.norm(lam - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_eliminated_block_is_diagonal_and_the_solve_exact(meshes, reload,
                                                          seed):
    mesh = meshes[1]
    if reload:
        mesh = load_mesh(save_mesh(mesh))
    cond = condense(RTSpace(mesh))
    S = full_system(cond)
    rhs = np.random.default_rng(seed).standard_normal(S.shape[0])
    assert_elimination_exact(cond, S, rhs)
    if not reload:
        # multiplier i is the edge _elimination_order(mesh)[i]
        eliminated = _elimination_order(mesh)[cond.elim]
        assert np.array_equal(np.sort(eliminated), sibling_edges(mesh))


def test_single_interior_edge_leaves_superlu_nothing():
    """The square's two triangles are siblings under the root node: its one
    multiplier is eliminated and SuperLU factors a 0 x 0 matrix."""
    cond = condense(RTSpace(unit_square_mesh()))
    assert cond.elim.tolist() == [True]
    assert cond.lu.shape == (0, 0)
    assert_elimination_exact(cond, full_system(cond), np.array([0.75]))
    sol = solve_poisson(unit_square_mesh(), ProblemSpec(f=lambda x, y: 1 + x))
    assert sol.n_multipliers == 1 and sol.factor_nnz == 1


def test_reloaded_mesh_eliminates_leaves_of_the_root_tree():
    """A reloaded mesh is all roots: the coordinate bisection of their
    centroids alone decides the order, and 2,051 of its 9,088 multipliers
    come first with no neighbour before them."""
    mesh = load_mesh(save_mesh(uniform_refine(lshape_mesh(), 5)))
    cond = condense(RTSpace(mesh))
    assert (np.count_nonzero(cond.elim), cond.elim.size) == (2051, 9088)
    rhs = np.random.default_rng(2).standard_normal(cond.elim.size)
    assert_elimination_exact(cond, full_system(cond), rhs)


def test_superlu_factors_all_but_the_sibling_edges(monkeypatch):
    """On five uniform rounds of the L-shape every live triangle has its
    live sibling: SuperLU gets n_multipliers minus the 3,072 pairs."""
    mesh = uniform_refine(lshape_mesh(), 5)
    parent = mesh.tri_parent[mesh.live]
    pairs = np.count_nonzero(np.bincount(parent[parent >= 0]) == 2)
    assert pairs == 3072
    factored = []

    def splu(A, *args, **kwargs):
        factored.append(A.shape)
        return spla.splu(A, *args, **kwargs)

    monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=splu))
    sol = solve_poisson(mesh, ProblemSpec(f=lambda x, y: 1.0 + x * y))
    assert sol.n_multipliers == 9088
    assert factored == [(9088 - pairs, 9088 - pairs)]
