"""Property tests of newest-vertex bisection over random marked-edge sets at
random depths on the three benchmark meshes."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amfem.adapt import _combinatorial_check
from amfem.mesh import ancestor_map, refine_edges, uniform_refine
from amfem.verify import benchmark

BENCHMARKS = ("smooth_square", "lshape_sing", "checker_const")


def edge_keys(mesh, nv):
    return mesh.edge_verts[:, 0] * nv + mesh.edge_verts[:, 1]


def boundary_length(mesh):
    return mesh.edge_len[mesh.edge_boundary].sum()


def assert_nested(fine, coarse):
    """Each fine centroid lies in the coarse triangle ancestor_map names."""
    anc = ancestor_map(fine, coarse)
    assert np.all(coarse.alive[anc])
    cent = fine.points[fine.tri_verts[fine.live]].mean(axis=1)
    v = coarse.points[coarse.tri_verts[anc]]
    T = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    lam = np.linalg.solve(T, (cent - v[:, 0])[:, :, None])[:, :, 0]
    assert lam.min() > -1e-12 and lam.sum(axis=1).max() < 1 + 1e-12


def assert_refinement(coarse, fine, marked, bisected):
    # conformity: the Euler relation, and no hanging vertex (which would
    # show as extra boundary length)
    assert fine.ne == fine.nv + fine.nt - 1
    assert np.isclose(boundary_length(fine), boundary_length(coarse),
                      rtol=1e-13)
    assert np.isclose(fine.tri_area.sum(), coarse.domain_area, rtol=1e-12)
    # every marked edge is gone
    keys = edge_keys(coarse, fine.nv)[marked]
    assert not np.isin(keys, edge_keys(fine, fine.nv)).any()
    # append-only genealogy: two rows per bisection, coarse rows a prefix
    n = len(coarse.tri_verts)
    assert len(fine.tri_verts) == n + 2 * len(bisected)
    assert fine.nt == coarse.nt + len(bisected)
    assert np.array_equal(np.sort(bisected), np.flatnonzero(
        ~fine.alive & np.r_[coarse.alive, np.ones(len(fine.alive) - n, bool)]))
    for name in ("tri_verts", "tri_refedge", "tri_gen", "tri_parent"):
        assert np.array_equal(getattr(fine, name)[:n], getattr(coarse, name))
    assert np.array_equal(fine.points[:coarse.nv], coarse.points)
    assert_nested(fine, coarse)
    gone = _combinatorial_check(coarse, fine)
    assert len(gone) <= 3 * (fine.nt - coarse.nt)
    assert np.all(np.diff(gone) > 0)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(BENCHMARKS), depth=st.integers(0, 3),
       data=st.data())
def test_refine_edges_invariants(name, depth, data):
    mesh0, _ = benchmark(name).make()
    mesh = uniform_refine(mesh0, depth)
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        marked = np.array(data.draw(
            st.lists(st.integers(0, mesh.ne - 1), min_size=1,
                     max_size=mesh.ne, unique=True), label="marked"))
        fine, bisected = refine_edges(mesh, marked)
        assert_refinement(mesh, fine, marked, bisected)
        mesh = fine
    assert_nested(mesh, mesh0)
