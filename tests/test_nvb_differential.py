"""The vectorized bisection kernel against the recursive reference in
``nvb_reference``: same live triangles as sets of vertex-coordinate
triples, same refinement edge on each, same number of bisections."""
import numpy as np
import pytest

import nvb_reference as ref
from amfem.mesh import refine_edges, uniform_refine
from amfem.verify import benchmark

BENCHMARKS = ("smooth_square", "lshape_sing", "checker_const")


def geometry(mesh):
    """{triangle as a frozenset of vertex coordinates: its refinement edge
    as a frozenset of vertex coordinates} over the live triangles."""
    out = {}
    for t in mesh.live:
        v = mesh.tri_verts[t]
        r = mesh.tri_refedge[t]
        coords = [tuple(mesh.points[i]) for i in v]
        out[frozenset(coords)] = frozenset(
            (coords[(r + 1) % 3], coords[(r + 2) % 3]))
    assert len(out) == mesh.nt
    return out


def assert_same(coarse, fine, want, want_bisected):
    assert (fine.nv, fine.nt, fine.ne) == (want.nv, want.nt, want.ne)
    assert geometry(fine) == geometry(want)
    # two genealogy rows per bisection
    new_rows = len(fine.tri_verts) - len(coarse.tri_verts)
    assert new_rows == 2 * len(want_bisected)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_random_marks_match_reference(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    mesh, _ = benchmark(name).make()
    mesh = uniform_refine(mesh, 2)
    for _ in range(8):
        size = int(rng.integers(1, max(2, mesh.ne // 6)))
        marked = rng.choice(mesh.ne, size=size, replace=False)
        fine, bisected = refine_edges(mesh, marked)
        want, want_bisected = ref.refine_edges(mesh, marked)
        assert len(bisected) == len(want_bisected)
        assert_same(mesh, fine, want, want_bisected)
        mesh = fine


@pytest.mark.parametrize("name", BENCHMARKS)
def test_uniform_rounds_match_reference(name):
    mesh, _ = benchmark(name).make()
    for _ in range(3):
        fine = uniform_refine(mesh)
        assert_same(mesh, fine, *ref.uniform_refine(mesh))
        mesh = fine


@pytest.mark.parametrize("name", BENCHMARKS)
def test_bisect_triangle_matches_reference(name):
    rng = np.random.default_rng(7)
    mesh, _ = benchmark(name).make()
    mesh = uniform_refine(mesh, 1)
    for _ in range(12):
        t = int(rng.choice(mesh.live))
        # splitting t's refinement edge is the bisection of t
        fine, bisected = refine_edges(
            mesh, [mesh.tri_edge[mesh.live_pos[t], mesh.tri_refedge[t]]])
        want, want_bisected = ref.bisect_triangle(mesh, t)
        assert len(bisected) == len(want_bisected)
        assert_same(mesh, fine, want, want_bisected)
        mesh = fine
