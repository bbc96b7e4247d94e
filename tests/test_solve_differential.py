"""The hybridized solve against the saddle-point LU in ``saddle_reference``:
the same flux and multiplier to 1e-10 relative on the benchmark meshes,
their uniform and random local refinements, a deep adaptive mesh and a
reloaded mesh without genealogy, with the benchmark loads and random
piecewise constant ones; and the closed-form element block against the
inverse of the local saddle block."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mass_reference
import saddle_reference as ref
from amfem.adapt import AdaptParams, amfem
from amfem.assembly import ProblemSpec, assemble, solve
from amfem.fespace import RTSpace
from amfem.mesh import load_mesh, refine_edges, save_mesh, uniform_refine
from amfem.sources import P0Source
from amfem.verify import benchmark, lshape_mesh, unit_square_mesh

BENCHMARKS = ("smooth_square", "lshape_sing", "checker_const")
TOL = 1e-10


def problem_and_meshes(name):
    """The benchmark problem with its mesh, two uniform rounds of it, and a
    random local refinement of the first round."""
    rng = np.random.default_rng(sum(map(ord, name)))
    mesh0, problem = benchmark(name).make()
    out = [mesh0, uniform_refine(mesh0, 2)]
    mesh = uniform_refine(mesh0, 1)
    for _ in range(5):
        marked = rng.choice(mesh.ne, size=max(1, mesh.ne // 5), replace=False)
        mesh, _ = refine_edges(mesh, marked)
    out.append(mesh)
    return problem, out


def assert_matches_reference(space, rhs_u):
    sol = solve(space, rhs_u)
    sigma, u = ref.solve(space, rhs_u)
    assert (np.linalg.norm(sol.sigma.values - sigma)
            <= TOL * np.linalg.norm(sigma))
    assert np.linalg.norm(sol.u.values - u) <= TOL * np.linalg.norm(u)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_benchmark_problem_matches_reference(name):
    problem, meshes = problem_and_meshes(name)
    for mesh in meshes:
        assert_matches_reference(*assemble(mesh, problem))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_p0_load_matches_reference(name):
    rng = np.random.default_rng(3)
    for mesh in problem_and_meshes(name)[1]:
        assert_matches_reference(*assemble(mesh, ProblemSpec(
            f=P0Source(mesh, rng.standard_normal(mesh.nt)))))


def test_deep_adaptive_mesh_matches_reference():
    """Twenty adaptive steps toward the reentrant corner of the L-shape:
    a genealogy twenty generations deep."""
    mesh0, problem = benchmark("lshape_sing").make()
    mesh, _, _ = amfem(mesh0, problem,
                       AdaptParams(epsilon=1e-9, theta=0.3, max_iters=20))
    assert mesh.tri_gen.max() >= 20
    rng = np.random.default_rng(7)
    assert_matches_reference(*assemble(mesh, problem))
    assert_matches_reference(*assemble(mesh, ProblemSpec(
        f=P0Source(mesh, rng.standard_normal(mesh.nt)))))


def test_reloaded_mesh_without_genealogy_matches_reference():
    """A saved and reloaded mesh is all generation 0."""
    mesh = load_mesh(save_mesh(uniform_refine(lshape_mesh(), 5)))
    assert mesh.nt == 6 * 4 ** 5 and not mesh.tri_gen.any()
    _, problem = benchmark("lshape_sing").make()
    assert_matches_reference(*assemble(mesh, problem))


def test_single_interior_edge_matches_reference():
    mesh = unit_square_mesh()
    assert np.count_nonzero(~mesh.edge_boundary) == 1
    rng = np.random.default_rng(5)
    assert_matches_reference(*assemble(mesh, ProblemSpec(
        f=lambda x, y: 1.0 + x)))
    assert_matches_reference(*assemble(mesh, ProblemSpec(
        f=P0Source(mesh, rng.standard_normal(mesh.nt)))))


def one_triangle(p):
    text = "amfemmesh 1\n3 1\n%s0 1 2 -\n" % "".join(
        "%r %r\n" % (float(x), float(y)) for x, y in p)
    return load_mesh(text)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
def test_element_block_is_the_inverse_of_the_local_saddle_block(xy):
    p = np.array(xy).reshape(3, 2)
    d1, d2 = p[1] - p[0], p[2] - p[0]
    area2 = d1[0] * d2[1] - d1[1] * d2[0]
    if area2 < 0:
        p = p[[0, 2, 1]]
    e = p[[2, 0, 1]] - p[[1, 2, 0]]            # e_i opposite vertex i
    area = 0.5 * abs(area2)
    assume(area > 1e-2 * (e * e).sum(axis=1).max())
    mesh = one_triangle(p)
    # the local mass matrix of the basis without signs, as assembled
    E, s = mesh.tri_edge[0], mesh.tri_sign[0].astype(float)
    M = mass_reference.local_masses(RTSpace(mesh))[0] * np.outer(s, s)
    K = np.zeros((4, 4))
    K[:3, :3] = M
    K[:3, 3] = -1.0
    K[3, :3] = 1.0
    Kinv = np.linalg.inv(K)
    Q = e @ e.T / mesh.tri_area[0]
    scale = np.abs(Q).max()
    assert np.abs(Kinv[:3, :3] - Q).max() <= 1e-10 * scale
    assert np.abs(Kinv[:3, 3] - 1.0 / 3.0).max() <= 1e-12
    inv_a = (e * e).sum() / (144.0 * mesh.tri_area[0])
    assert Kinv[3, 3] == pytest.approx(inv_a, rel=1e-10)
    assert np.abs(Kinv[3, :3] + 1.0 / 3.0).max() <= 1e-12
