import numpy as np
import pytest

from amfem.assembly import ProblemSpec, solve_poisson
from amfem.estimator import (EstimatorReport, estimate, indicator_edges,
                             oscillation, report_to_csv)
from amfem.fespace import (DofVector, RTSpace, interpolate_rt, prolongate,
                           rt_affine)
from amfem.mesh import load_mesh, uniform_refine
from amfem.sources import FunctionSource, P0Source
from amfem.verify import smooth_f, unit_square_mesh

REF_TRI = """amfemmesh 1
3 1
0.0 0.0
1.0 0.0
0.0 1.0
0 1 2 -
"""


def edge_id(mesh, a, b):
    pair = (min(a, b), max(a, b))
    hits = np.where((mesh.edge_verts[:, 0] == pair[0])
                    & (mesh.edge_verts[:, 1] == pair[1]))[0]
    assert hits.size == 1
    return int(hits[0])


def diagonal_basis_field():
    """Unit flux dof on the square's diagonal, all other dofs zero."""
    m = unit_square_mesh()
    vals = np.zeros(m.ne)
    vals[edge_id(m, 0, 2)] = 1.0
    return m, DofVector("RT", vals, m)


def test_diagonal_basis_jump_values():
    # hand computation: traces along the diagonal are (g, g-1) from the left
    # triangle and (1-g, -g) from the right one, so the tangential jump at
    # chord parameter g is sqrt(2) (2g - 1); endpoints carry -sqrt2, +sqrt2.
    # The indicator integrates the square of the linear jump between them.
    m, dof = diagonal_basis_field()
    a0, c = rt_affine(RTSpace(m), dof.values)
    e = edge_id(m, 0, 2)
    pa, pb = m.points[m.edge_verts[e]]
    left, right = m.edge_tri[e]
    ja, jb = ((a0[left] + c[left] * p - a0[right] - c[right] * p)
              @ (pb - pa) / m.edge_len[e] for p in (pa, pb))
    assert ja == pytest.approx(-np.sqrt(2.0), abs=1e-14)
    assert jb == pytest.approx(np.sqrt(2.0), abs=1e-14)
    h = m.edge_len[e]
    assert indicator_edges(dof)[e] == pytest.approx(
        h * h * (ja * ja + ja * jb + jb * jb) / 3.0, rel=1e-14)


def test_diagonal_basis_indicator_closed_form():
    # eta^2 on the diagonal: sqrt(2) * integral of 2 (2g-1)^2 over the edge
    # = 4/3; each boundary edge carries the trace integral 1/3
    m, dof = diagonal_basis_field()
    eta2 = indicator_edges(dof)
    assert eta2[edge_id(m, 0, 2)] == pytest.approx(4.0 / 3.0, abs=1e-14)
    for a, b in ((0, 1), (1, 2), (2, 3), (0, 3)):
        assert eta2[edge_id(m, a, b)] == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert eta2.sum() == pytest.approx(8.0 / 3.0, abs=1e-13)


def test_constant_field_boundary_closed_form():
    # interpolated (1, 0): no interior jumps, traces only on the two
    # horizontal boundary edges, each contributing length * 1
    m = unit_square_mesh()
    dof = interpolate_rt(lambda x, y: (np.ones_like(x), np.zeros_like(y)),
                         RTSpace(m))
    eta2 = indicator_edges(dof)
    assert eta2[edge_id(m, 0, 1)] == pytest.approx(1.0, abs=1e-13)
    assert eta2[edge_id(m, 2, 3)] == pytest.approx(1.0, abs=1e-13)
    assert eta2.sum() == pytest.approx(2.0, abs=1e-12)


def test_conforming_field_has_no_interior_jumps():
    m = uniform_refine(unit_square_mesh(), 2)
    dof = interpolate_rt(lambda x, y: (x, y), RTSpace(m))
    eta2 = indicator_edges(dof)
    assert np.max(eta2[~m.edge_boundary]) < 1e-26


def test_halving_under_uniform_refinement():
    # prolong a solved flux one uniform level: parent edges split into two
    # halves with the same traces and half the weight, new interior edges
    # carry no jump, so the total indicator halves exactly
    m = uniform_refine(unit_square_mesh(), 2)
    sol = solve_poisson(m, ProblemSpec(f=smooth_f))
    fine = uniform_refine(m)
    coarse_eta2 = indicator_edges(sol.sigma).sum()
    fine_eta2 = indicator_edges(prolongate(sol.sigma, fine)).sum()
    assert fine_eta2 / coarse_eta2 == pytest.approx(0.5, abs=1e-12)


def test_oscillation_reference_value():
    # f = x on the reference triangle: variance 1/36, diameter sqrt(2),
    # so osc^2 = 2/36 = 1/18
    m = load_mesh(REF_TRI)
    osc2 = oscillation(FunctionSource(lambda x, y: x), m)
    assert osc2[0] == pytest.approx(1.0 / 18.0, abs=1e-15)


def test_constant_source_has_zero_oscillation():
    m = uniform_refine(unit_square_mesh(), 2)
    osc2 = oscillation(FunctionSource(lambda x, y: np.full_like(x, 4.0)), m)
    assert np.max(np.abs(osc2)) < 1e-28


def test_p0_source_oscillation_exactly_zero_on_descendants():
    m0 = unit_square_mesh()
    src = P0Source(m0, np.array([2.0, -3.0]))
    fine = uniform_refine(m0, 3)
    assert np.all(oscillation(src, fine) == 0.0)
    means = src.cell_means(fine)
    assert set(np.unique(means)) == {2.0, -3.0}


def test_estimate_bundles_both_parts():
    m = uniform_refine(unit_square_mesh(), 2)
    sol = solve_poisson(m, ProblemSpec(f=smooth_f))
    rep = estimate(sol, FunctionSource(smooth_f))
    assert isinstance(rep, EstimatorReport)
    assert rep.eta2_edges.shape == (m.ne,)
    # the solution's cached affine form gives the indicator of its flux
    assert np.array_equal(rep.eta2_edges, indicator_edges(sol.sigma))
    assert rep.osc2_tris.shape == (m.nt,)
    assert rep.eta2_total == pytest.approx(rep.eta2_edges.sum())
    assert rep.osc2_total == pytest.approx(rep.osc2_tris.sum())


def test_report_csv_roundtrip():
    m = uniform_refine(unit_square_mesh())
    sol = solve_poisson(m, ProblemSpec(f=smooth_f))
    rep = estimate(sol, FunctionSource(smooth_f))
    eta_csv, osc_csv = report_to_csv(rep)
    eta_lines = eta_csv.strip().splitlines()
    assert eta_lines[0] == "edge_id,eta2"
    assert len(eta_lines) == m.ne + 1
    back = np.array([float(l.split(",")[1]) for l in eta_lines[1:]])
    assert np.array_equal(back, rep.eta2_edges)
    osc_lines = osc_csv.strip().splitlines()
    assert osc_lines[0] == "tri_id,osc2"
    assert len(osc_lines) == m.nt + 1
