"""Differential test of the closed-form flux mass matrix against the
quadrature assembly it replaced (``tests/mass_reference.py``), on the three
benchmark meshes, two uniform rounds of each, and random nested
refinements."""
import numpy as np
import pytest
from hypothesis import given, settings

import mass_reference
from amfem.fespace import RTSpace, rt_mass_matrix
from amfem.mesh import uniform_refine
from amfem.verify import benchmark
from test_nvb_properties import BENCHMARKS, nested_meshes


def assert_matches_reference(mesh):
    got = rt_mass_matrix(RTSpace(mesh)).toarray()
    want = mass_reference.rt_mass_matrix(RTSpace(mesh)).toarray()
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
