"""Differential tests of the closed-form flux mass against the quadrature
assembly it replaced (``tests/mass_reference.py``): the local masses
``RTSpace.mass_blocks`` on the three benchmark meshes, two uniform rounds
of each, and random nested refinements; and the blockwise inner product
``RTSpace.mass_inner`` on the random refinements, with and without a
save/load round trip, and on the unit square."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mass_reference
from amfem.fespace import RTSpace
from amfem.mesh import load_mesh, refine_edges, save_mesh, uniform_refine
from amfem.verify import benchmark, unit_square_mesh
from test_nvb_properties import BENCHMARKS, marked_edges, nested_meshes


def assert_matches_reference(mesh):
    got = RTSpace(mesh).mass_blocks()
    want = mass_reference.local_masses(RTSpace(mesh))
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("rounds", [0, 1, 2])
@pytest.mark.parametrize("name", BENCHMARKS)
def test_closed_form_mass_matches_quadrature(name, rounds):
    mesh0, _ = benchmark(name).make()
    assert_matches_reference(uniform_refine(mesh0, rounds))


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes())
def test_closed_form_mass_matches_quadrature_on_random_refinements(meshes):
    for mesh in meshes:
        assert_matches_reference(mesh)


def assert_inner_matches_reference(mesh, seed):
    """mass_inner of three seeded pairs of fields against the reference
    matrix, relative to the Cauchy-Schwarz bound |a|_M |b|_M, and the
    stacked call against one call per row, bit for bit."""
    space = RTSpace(mesh)
    a, b = np.random.default_rng(seed).standard_normal((2, 3, mesh.ne))
    M = mass_reference.rt_mass_matrix(space)
    ab, aa, bb = (np.einsum("ke,ke->k", x, (M @ y.T).T)
                  for x, y in ((a, b), (a, a), (b, b)))
    got = space.mass_inner(a, b)
    assert np.all(np.abs(got - ab) <= 1e-12 * np.sqrt(aa * bb))
    assert np.all(np.abs(space.mass_inner(a, a) - aa) <= 1e-12 * aa)
    rows = [space.mass_inner(x, y) for x, y in zip(a, b)]
    assert np.array_equal(got, rows)


@pytest.mark.parametrize("make", [
    unit_square_mesh,
    # rows long enough that numpy's pairwise sum splits them into blocks
    lambda: uniform_refine(benchmark("lshape_sing").make()[0], 6),
], ids=["square", "lshape_6"])
def test_mass_inner_matches_quadrature(make):
    assert_inner_matches_reference(make(), seed=0)


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mass_inner_matches_quadrature_on_random_refinements(meshes, reload,
                                                             data, seed):
    coarse, fine = meshes
    if reload:
        coarse = load_mesh(save_mesh(coarse))
        fine = refine_edges(coarse, data.draw(marked_edges(coarse)))[0]
    for mesh in (coarse, fine):
        assert_inner_matches_reference(mesh, seed)

