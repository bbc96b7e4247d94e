"""Differential tests of ``verify.helmholtz_split``'s P1 solve against the
stiffness C^T M C it replaced, assembled here as dense matrices from the
quadrature flux mass of ``tests/mass_reference.py`` and a test-side curl:
on the Helmholtz check meshes and on random nested refinements, with and
without a save/load round trip.  The gradient part is the split's own, so
the oracle sees the same curl-free remainder."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mass_reference
from amfem.fespace import RTSpace, interpolate_rt
from amfem.mesh import load_mesh, refine_edges, save_mesh
from amfem.verify import _helmholtz_meshes, helmholtz_split
from test_nvb_properties import marked_edges, nested_meshes


@pytest.fixture(scope="module")
def helmholtz_meshes():
    return _helmholtz_meshes()


def curl_operator(mesh):
    """Dense (ne, nv) curl: the flux of the rotated gradient (d/dy, -d/dx)
    of a P1 field through edge (a, b) is psi(b) - psi(a)."""
    eye = np.eye(mesh.nv)
    return eye[mesh.edge_verts[:, 1]] - eye[mesh.edge_verts[:, 0]]


def reference_psi(space, tau):
    """(k, nv) stream functions of the rows of ``tau`` with psi = 0 at
    vertex 0: C^T M C psi = C^T M tau."""
    C = curl_operator(space.mesh)[:, 1:]
    M = mass_reference.rt_mass_matrix(space).toarray()
    psi = np.linalg.solve(C.T @ M @ C, C.T @ M @ tau.T)
    return np.pad(psi.T, ((0, 0), (1, 0)))


def assert_split_matches_reference(mesh, seed):
    space = RTSpace(mesh)
    fields = np.random.default_rng(seed).standard_normal((3, mesh.ne))
    psi, _, curl_part, grad_part = helmholtz_split(space, fields)
    want = reference_psi(space, fields - grad_part)
    assert np.abs(psi - want).max() <= 1e-12 * np.abs(want).max()
    want_curl = want @ curl_operator(mesh).T
    assert (np.abs(curl_part - want_curl).max()
            <= 1e-12 * np.abs(want_curl).max())


def test_split_matches_the_stiffness_solve_on_the_check_meshes(
        helmholtz_meshes):
    for seed, mesh in enumerate(helmholtz_meshes):
        assert_split_matches_reference(mesh, seed)


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(), data=st.data(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_split_matches_the_stiffness_solve_on_random_refinements(
        meshes, reload, data, seed):
    coarse, fine = meshes
    if reload:
        coarse = load_mesh(save_mesh(coarse))
        fine = refine_edges(coarse, data.draw(marked_edges(coarse)))[0]
    for mesh in (coarse, fine):
        assert_split_matches_reference(mesh, seed)


def test_a_linear_stream_function_splits_exactly(helmholtz_meshes):
    """The curl of psi = x + 2y is the constant field (2, -1): its RT
    interpolant is all curl part, with no gradient part, and its stream
    function is psi less its value at vertex 0."""
    for mesh in helmholtz_meshes:
        space = RTSpace(mesh)
        field = interpolate_rt(lambda x, y: (np.full_like(x, 2.0),
                                             np.full_like(y, -1.0)),
                               space).values
        psi, _, curl_part, grad_part = helmholtz_split(space, field[None])
        scale = np.abs(field).max()
        assert np.abs(curl_part[0] - field).max() <= 1e-12 * scale
        assert np.abs(grad_part[0]).max() <= 1e-12 * scale
        want = mesh.points[:, 0] + 2.0 * mesh.points[:, 1]
        want -= want[0]
        assert np.abs(psi[0] - want).max() <= 1e-12 * np.abs(want).max()
