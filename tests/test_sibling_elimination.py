"""The multipliers ``condense`` eliminates ahead of SuperLU: up to
``assembly.PASSES`` passes, each taking the leading independent set of the
matrix the pass before it left, S in nested-dissection order for the
first.  On random refinements (with and without a save/load round trip)
each pass's eliminated block is diagonal, on genealogy meshes the first
pass takes exactly the edges shared by two live siblings, and the solve
through the passes (forward steps, SuperLU on what is left, back steps)
equals a direct solve of the full S."""
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from amfem import assembly
from amfem.assembly import (ProblemSpec, _bisection_tree, _elimination_order,
                            _leading_set, condense, solve_poisson)
from amfem.fespace import RTSpace
from amfem.mesh import load_mesh, save_mesh, uniform_refine
from amfem.verify import lshape_mesh, unit_square_mesh
from test_nvb_properties import nested_meshes


def full_system(cond):
    """S in the multiplier numbering of ``cond``, summed from the element
    blocks triangle by triangle, with the entries of boundary edges left
    out."""
    L, Q = cond.L, cond.space.element_blocks()
    n = np.count_nonzero(~cond.space.mesh.edge_boundary)
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


def superlu_rows(cond):
    """The multiplier number of each row SuperLU factors."""
    rows = np.arange(cond.L.max() + 1)
    for elim, _, _ in cond.passes:
        rows = rows[~elim]
    return rows


def assert_elimination_exact(cond, S, rhs):
    """Each pass's eliminated block of the matrix it starts from, formed
    here from S with both off-diagonal blocks, is diagonal and holds d,
    its coupling block is C (both to roundoff), the first pass's rows are
    exactly those with no entry left of the diagonal, and the solve equals
    ``rhs``'s direct solve of S to 1e-12 relative."""
    first = cond.passes[0][0]
    lower = sp.tril(S, k=-1).tocsr()
    assert np.array_equal(np.diff(lower.indptr) == 0, first)
    A = S
    for elim, d, C in cond.passes:
        keep = ~elim
        block = A[elim][:, elim]
        scale = np.abs(block.diagonal()).max()
        for dev in (block - sp.diags(d), A[keep][:, elim] - C):
            assert np.abs(dev.tocsr().data).max(initial=0.0) <= 1e-13 * scale
        A = (A[keep][:, keep] - A[keep][:, elim] @ sp.diags(1.0 / d)
             @ A[elim][:, keep]).tocsr()
    assert cond.lu.shape == A.shape
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
    assert 1 <= len(cond.passes) <= assembly.PASSES
    S = full_system(cond)
    rhs = np.random.default_rng(seed).standard_normal(S.shape[0])
    assert_elimination_exact(cond, S, rhs)
    if not reload:
        # multiplier i is the edge _elimination_order(mesh)[i]
        eliminated = _elimination_order(mesh)[cond.passes[0][0]]
        assert np.array_equal(np.sort(eliminated), sibling_edges(mesh))


def test_leading_set_reads_the_symmetric_pattern():
    """An entry on one side of the diagonal keeps the larger of its row and
    column on either side, so a coupling that cancelled in one triangle of
    a pass's matrix only cannot put an off-diagonal into the next
    eliminated block."""
    rows, cols = np.array([0, 1, 2, 0]), np.array([0, 1, 2, 2])
    assert _leading_set(rows, cols, 3).tolist() == [True, True, False]
    assert _leading_set(cols, rows, 3).tolist() == [True, True, False]


def test_single_interior_edge_leaves_superlu_nothing():
    """The square's two triangles are siblings under the root node: its one
    multiplier is eliminated by the first pass, which leaves no row for a
    second, and SuperLU factors a 0 x 0 matrix."""
    cond = condense(RTSpace(unit_square_mesh()))
    assert [elim.tolist() for elim, _, _ in cond.passes] == [[True]]
    assert cond.lu.shape == (0, 0)
    assert_elimination_exact(cond, full_system(cond), np.array([0.75]))
    sol = solve_poisson(unit_square_mesh(), ProblemSpec(f=lambda x, y: 1 + x))
    assert (sol.n_multipliers, sol.factor_nnz, sol.factor_rows) == (1, 1, 0)


def test_reloaded_mesh_eliminates_leaves_of_the_root_tree():
    """A reloaded mesh is all roots: the coordinate bisection of their
    centroids alone decides the order.  The first pass takes the 2,051 of
    its 9,088 multipliers that come first with no neighbour before them."""
    mesh = load_mesh(save_mesh(uniform_refine(lshape_mesh(), 5)))
    cond = condense(RTSpace(mesh))
    assert (np.count_nonzero(cond.passes[0][0]), cond.L.max() + 1) == (
        2051, 9088)
    assert len(cond.passes) == assembly.PASSES
    rhs = np.random.default_rng(2).standard_normal(9088)
    assert_elimination_exact(cond, full_system(cond), rhs)


def test_superlu_factors_what_the_passes_leave(monkeypatch):
    """On five uniform rounds of the L-shape every live triangle has its
    live sibling: the first pass takes the 3,072 pairs, and SuperLU gets
    the 1,732 multipliers that the passes leave of the 9,088."""
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
    assert factored == [(1732, 1732)] == [(sol.factor_rows,) * 2]
    cond = condense(RTSpace(mesh))
    assert np.count_nonzero(cond.passes[0][0]) == pairs
    assert superlu_rows(cond).size == 1732
