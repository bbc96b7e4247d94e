import numpy as np
import pytest

from amfem.adapt import AdaptParams, amfem
from amfem.assembly import (ProblemSpec, SolverError, assemble, error_sigma,
                            solve, solve_poisson)
from amfem.fespace import RTSpace, div_matrix, interpolate_rt
from amfem.mesh import uniform_refine
from amfem.sources import FunctionSource, P0Source
from amfem.verify import (benchmark, lshape_mesh, smooth_f, smooth_sigma,
                          smooth_u, unit_square_mesh)


def test_unit_load_rhs():
    m = unit_square_mesh()
    sys_ = assemble(m, ProblemSpec(f=lambda x, y: np.ones_like(x)))
    assert np.allclose(sys_.rhs_u, [0.5, 0.5], atol=1e-15)
    assert np.allclose(sys_.rhs_sigma, 0.0)


def test_system_shapes_and_symmetry():
    m = uniform_refine(unit_square_mesh(), 2)
    sys_ = assemble(m, ProblemSpec(f=smooth_f))
    assert sys_.M.shape == (m.ne, m.ne)
    assert sys_.B.shape == (m.nt, m.ne)
    M = sys_.M.toarray()
    assert np.allclose(M, M.T, atol=1e-15)
    # the mass matrix is positive definite
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_solution_satisfies_blocks():
    m = uniform_refine(unit_square_mesh(), 3)
    sol = solve_poisson(m, ProblemSpec(f=smooth_f))
    assert sol.residual_sigma < 1e-10
    assert sol.residual_u < 1e-10
    assert sol.conservation_defect < 1e-10
    assert sol.wall_ms > 0.0


def test_one_element_kernel_per_mesh(monkeypatch):
    """A mesh's element coordinates are gathered once: the mass matrix,
    the condensation and the recovery all read the space's Q_T, and the
    affine form of the flux and the flux error read the same coordinates.
    A monitored loop gathers once per solved mesh plus once per coarse mesh
    whose flux it prolongates."""
    gathers = []
    opp_coords = RTSpace.opp_coords

    def counting(space):
        if space._P is None:
            gathers.append(space)
        return opp_coords(space)

    monkeypatch.setattr(RTSpace, "opp_coords", counting)
    m = uniform_refine(lshape_mesh(), 2)
    sys_ = assemble(m, ProblemSpec(f=smooth_f))
    sol = solve(sys_)
    sol.affine()
    error_sigma(sol, smooth_sigma)
    assert gathers == [sys_.space]
    Q = sys_.space.element_blocks()
    for t, row in enumerate(m.live):
        P = m.points[m.tri_verts[row]]
        e = np.array([P[(i + 2) % 3] - P[(i + 1) % 3] for i in range(3)])
        assert np.allclose(Q[t], e @ e.T / m.tri_area[t], rtol=1e-14)

    gathers.clear()
    mesh0, prob = benchmark("lshape_sing").make()
    _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.3), monitors=True)
    nT = hist.column("nT")
    # step k prolongates from mesh k - 1, then solves on mesh k
    assert [s.mesh.nt for s in gathers] == list(np.repeat(nT, 2)[:-1])


def test_conservation_defect_matches_recomputation():
    m = uniform_refine(lshape_mesh(), 2)
    prob = ProblemSpec(f=smooth_f)
    sys_ = assemble(m, prob)
    sol = solve(sys_)
    resid = np.abs(sys_.B @ sol.sigma.values - sys_.rhs_u)
    scale = 1.0 + np.abs(sys_.rhs_u) + np.abs(sys_.B) @ np.abs(
        sol.sigma.values)
    assert np.max(resid / scale) == pytest.approx(sol.conservation_defect,
                                                  rel=1e-9, abs=1e-18)


def test_divergence_equals_projected_load():
    # div sigma_h is the cell mean of f, elementwise
    m = uniform_refine(unit_square_mesh(), 3)
    prob = ProblemSpec(f=smooth_f)
    sol = solve_poisson(m, prob)
    div = div_matrix(RTSpace(m)) @ sol.sigma.values / m.tri_area
    means = FunctionSource(smooth_f).cell_means(m)
    assert np.max(np.abs(div - means)) < 1e-9 * (1 + np.max(np.abs(means)))


def test_energy_identity():
    # testing the first equation with tau = sigma_h and g = 0 gives
    # (sigma, sigma)_M = sum_T u_T int_T f
    m = uniform_refine(unit_square_mesh(), 2)
    sys_ = assemble(m, ProblemSpec(f=smooth_f))
    sol = solve(sys_)
    lhs = sol.sigma.values @ (sys_.M @ sol.sigma.values)
    rhs = sol.u.values @ sys_.rhs_u
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_linear_solution_with_boundary_data_is_exact():
    # u = x solves the problem with f = 0 and boundary data g = x; its flux
    # (-1, 0) lies in the space, so the discrete solution is exact and the
    # multiplier equals the elementwise mean of u
    m = uniform_refine(unit_square_mesh(), 2)
    prob = ProblemSpec(f=lambda x, y: np.zeros_like(x),
                       g=lambda x, y: x)
    sol = solve_poisson(m, prob)
    want_sigma = interpolate_rt(
        lambda x, y: (-np.ones_like(x), np.zeros_like(y)), RTSpace(m))
    assert np.max(np.abs(sol.sigma.values - want_sigma.values)) < 1e-12
    want_u = FunctionSource(lambda x, y: x).cell_means(m)
    assert np.max(np.abs(sol.u.values - want_u)) < 1e-12


def test_quadratic_solution_flux_exact():
    # u = -(x^2 + y^2)/2 has flux (x, y), which the space contains globally;
    # f = 2 and the quadratic boundary data is integrated exactly by the
    # two-point edge rule, so the discrete flux is exact
    m = uniform_refine(unit_square_mesh(), 2)
    prob = ProblemSpec(f=lambda x, y: np.full_like(x, 2.0),
                       g=lambda x, y: -0.5 * (x * x + y * y))
    sol = solve_poisson(m, prob)
    want = interpolate_rt(lambda x, y: (x, y), RTSpace(m))
    assert np.max(np.abs(sol.sigma.values - want.values)) < 1e-11


def test_error_sigma_two_routes_agree():
    # quadrature route against an exact flux vs mass-matrix route against a
    # much finer reference solution
    prob = ProblemSpec(f=smooth_f, sigma_exact=smooth_sigma)
    m3 = uniform_refine(unit_square_mesh(), 3)
    sol3 = solve_poisson(m3, prob)
    err_quad = error_sigma(sol3, smooth_sigma)
    sol6 = solve_poisson(uniform_refine(m3, 3), prob)
    err_ref = error_sigma(sol3, sol6)
    assert err_ref == pytest.approx(err_quad, rel=0.05)


def test_error_sigma_zero_against_self():
    m = uniform_refine(unit_square_mesh(), 2)
    sol = solve_poisson(m, ProblemSpec(f=smooth_f))
    assert error_sigma(sol, sol) < 1e-12


def test_p0_source_solves():
    m0 = unit_square_mesh()
    src = P0Source(m0, np.array([1.0, -1.0]))
    m = uniform_refine(m0, 2)
    sol = solve_poisson(m, ProblemSpec(f=src))
    # projected load is reproduced exactly, so divergence matches +-1
    div = div_matrix(RTSpace(m)) @ sol.sigma.values / m.tri_area
    assert np.allclose(np.sort(np.unique(np.round(div, 10))), [-1.0, 1.0])


def test_smooth_error_decreases_under_refinement():
    prob = ProblemSpec(f=smooth_f, sigma_exact=smooth_sigma)
    errs = []
    m = unit_square_mesh()
    for _ in range(4):
        m = uniform_refine(m)
        errs.append(error_sigma(solve_poisson(m, prob), smooth_sigma))
    assert all(b < 0.6 * a for a, b in zip(errs, errs[1:]))


def test_solve_rejects_a_non_finite_load():
    """The first triangle whose load is not finite is named; triangle 0 of
    the square lies below y = 0.9 at every quadrature point."""
    load = FunctionSource(lambda x, y: np.where(y > 0.9, np.inf, 1.0))
    with pytest.raises(ValueError, match="not finite .* of triangle 1$"):
        solve_poisson(unit_square_mesh(), ProblemSpec(f=load))
