"""The nested-dissection numbering of the multipliers: against a
depth-first postorder of the bisection tree on random refinements (with
and without their genealogy), and the values its factor stores (SuperLU's
factor of what the elimination passes leave, and each pass's coupling
block and diagonal) against COLAMD's factor of the full S, the column
ordering it replaced, on a refined mesh and on the same mesh reloaded from
a file."""
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from amfem import assembly
from amfem.assembly import (ProblemSpec, _bisection_tree, _elimination_order,
                            condense, solve_poisson)
from amfem.fespace import RTSpace
from amfem.mesh import load_mesh, save_mesh, uniform_refine
from amfem.verify import lshape_mesh
from test_nvb_properties import nested_meshes
from test_sibling_elimination import full_system


def chain(parent, node):
    """``node`` and its ancestors, up to the top of the tree."""
    out = [int(node)]
    while parent[out[-1]] != out[-1]:
        out.append(int(parent[out[-1]]))
    return out


def postorder(parent):
    """The postorder number of every node by a depth-first walk that
    visits the children of a node in ascending node id."""
    kids = [[] for _ in parent]
    for node, up in enumerate(parent):
        if up != node:
            kids[up].append(node)
    top = int(np.flatnonzero(parent == np.arange(parent.size))[0])
    post, stack = {}, [(top, False)]
    while stack:
        node, done = stack.pop()
        if done:
            post[node] = len(post)
            continue
        stack.append((node, True))
        stack.extend((kid, False) for kid in reversed(kids[node]))
    return post


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans())
def test_order_is_a_nested_dissection_of_the_bisection_tree(meshes, reload):
    mesh = meshes[1]
    if reload:
        mesh = load_mesh(save_mesh(mesh))
    parent = _bisection_tree(mesh)
    nt_all = len(mesh.tri_parent)
    # one binary tree: the genealogy below the roots, two children for every
    # added node, and the roots split into halves of equal count
    child = mesh.tri_parent >= 0
    assert np.array_equal(parent[:nt_all][child], mesh.tri_parent[child])
    is_top = parent == np.arange(parent.size)
    assert np.count_nonzero(is_top) == 1
    kids = np.bincount(parent[~is_top], minlength=parent.size)
    assert np.all(kids[nt_all:] == 2)
    leaves = np.zeros(parent.size, dtype=np.int64)
    for t in np.flatnonzero(~child):
        leaves[chain(parent, t)] += 1
    for node in range(nt_all, parent.size):
        halves = leaves[np.flatnonzero((parent == node) & ~is_top)]
        assert abs(halves[0] - halves[1]) <= 1

    order = _elimination_order(mesh)
    interior = np.flatnonzero(~mesh.edge_boundary)
    assert np.array_equal(np.sort(order), interior)
    lca = {}
    for e in interior:
        up = chain(parent, mesh.live[mesh.edge_tri[e, 0]])
        other = set(chain(parent, mesh.live[mesh.edge_tri[e, 1]]))
        lca[e] = next(node for node in up if node in other)
    # sorted by the postorder number of the LCA, ties by edge id
    post = postorder(parent)
    assert list(order) == sorted(interior, key=lambda e: (post[lca[e]], e))
    # every edge comes after each edge whose LCA lies strictly below its
    # own, and the edges whose LCA lies in one subtree are contiguous
    last_below, spans = {}, {}
    for pos, e in enumerate(order):
        for node in chain(parent, lca[e])[1:]:
            last_below[node] = pos
        for node in chain(parent, lca[e]):
            spans.setdefault(node, []).append(pos)
    assert all(last_below.get(lca[e], -1) < pos
               for pos, e in enumerate(order))
    assert all(at[-1] - at[0] == len(at) - 1 for at in spans.values())


def factor_fill(monkeypatch, mesh):
    """(the values the solve's factor stores, nnz of COLAMD's factor of the
    full S in edge order).  SuperLU factors what the elimination passes
    leave of S; the solve's count adds the coupling block and the diagonal
    each pass stores beside SuperLU's factor."""
    cond = condense(RTSpace(mesh))
    factored = []

    def splu(A, *args, **kwargs):
        factored.append(A.shape)
        return spla.splu(A, *args, **kwargs)

    monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=splu))
    sol = solve_poisson(mesh, ProblemSpec(f=lambda x, y: 1.0 + x * y))
    S = full_system(cond)
    order = _elimination_order(mesh)
    kept = order.size - sum(np.count_nonzero(elim)
                            for elim, _, _ in cond.passes)
    assert sol.n_multipliers == S.shape[0] == order.size
    assert factored == [(kept, kept)] == [cond.lu.shape]
    assert sol.factor_nnz == cond.lu.nnz + sum(
        C.nnz + d.size for _, d, C in cond.passes)
    assert sol.factor_rows == kept
    by_edge = np.argsort(order)
    colamd = spla.splu(S[by_edge][:, by_edge].tocsc())
    return sol.factor_nnz, colamd.nnz


def test_factor_fill_is_below_colamds(monkeypatch):
    nd, colamd = factor_fill(monkeypatch, uniform_refine(lshape_mesh(), 5))
    assert nd < colamd


def test_solve_on_a_reloaded_mesh_records_fill_below_colamds(monkeypatch,
                                                             tmp_path):
    """A mesh file carries no genealogy: the root hierarchy orders it."""
    mesh_file = tmp_path / "mesh.txt"
    mesh_file.write_text(save_mesh(uniform_refine(lshape_mesh(), 5)))
    res = subprocess.run([sys.executable, "-m", "amfem.cli", "solve",
                          "--mesh", str(mesh_file), "--out",
                          str(tmp_path / "out")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    meta = dict(line.split("=", 1) for line in
                (tmp_path / "out" / "run.meta").read_text().splitlines())
    mesh = load_mesh(mesh_file.read_text())
    assert not mesh.tri_gen.any()
    nd, colamd = factor_fill(monkeypatch, mesh)
    assert int(meta["factor_nnz"]) == nd < colamd
    assert int(meta["factor_rows"]) == condense(RTSpace(mesh)).lu.shape[0]
    assert int(meta["n_multipliers"]) == np.count_nonzero(~mesh.edge_boundary)
