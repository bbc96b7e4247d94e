import os

import numpy as np
import pytest

from amfem.adapt import AdaptParams, amfem
from amfem.assembly import (ProblemSpec, SolverError, assemble, condense,
                            error_sigma, recover, solve, solve_poisson)
from amfem.fespace import RTSpace, div_matrix, prolongate
from amfem.mesh import load_mesh, uniform_refine
from amfem.sources import FunctionSource, P0Source
from amfem.verify import (benchmark, lshape_mesh, smooth_f, smooth_sigma,
                          unit_square_mesh)


def test_problem_has_no_boundary_data():
    with pytest.raises(TypeError):
        ProblemSpec(f=smooth_f, g=lambda x, y: x)


def test_unit_load_rhs():
    m = unit_square_mesh()
    _, rhs_u = assemble(m, ProblemSpec(f=lambda x, y: np.ones_like(x)))
    assert np.allclose(rhs_u, [0.5, 0.5], atol=1e-15)


def test_system_shapes_and_symmetry():
    m = uniform_refine(unit_square_mesh(), 2)
    space, _ = assemble(m, ProblemSpec(f=smooth_f))
    M = space.mass_blocks()
    assert M.shape == (m.nt, 3, 3)
    assert div_matrix(space).shape == (m.nt, m.ne)
    assert np.allclose(M, M.transpose(0, 2, 1), atol=1e-15)
    # every local mass, and so the mass matrix, is positive definite
    assert np.all(np.linalg.eigvalsh(M) > 0)


def test_solution_satisfies_blocks():
    m = uniform_refine(unit_square_mesh(), 3)
    sol = solve_poisson(m, ProblemSpec(f=smooth_f))
    assert sol.residual_sigma < 1e-10
    assert sol.residual_u < 1e-10
    assert sol.conservation_defect < 1e-10


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
    space, rhs_u = assemble(m, ProblemSpec(f=smooth_f))
    sol = solve(space, rhs_u)
    sol.affine()
    error_sigma(sol, smooth_sigma)
    assert gathers == [space]
    Q = space.element_blocks()
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


def test_a_second_recover_gives_the_same_solution():
    """``recover`` keeps nothing on the ``Condensed``: a second load on it
    gives the same solution to the last bit."""
    space, rhs_u = assemble(uniform_refine(lshape_mesh(), 2),
                            ProblemSpec(f=smooth_f))
    cond = condense(space)
    first = recover(cond, rhs_u)
    second = recover(cond, rhs_u)
    assert np.array_equal(second.sigma.values, first.sigma.values)
    assert np.array_equal(second.u.values, first.u.values)


def test_a_mesh_with_no_interior_edge_solves():
    """One triangle has no multiplier: no pass runs, SuperLU factors an
    empty matrix, and the closed forms give sigma_E = s f_T / 3 and
    u_T = f_T sum_i |e_i|^2 / (144 |T|), with f_T = |T| = 1/2."""
    m = load_mesh("amfemmesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 2 -\n")
    sol = solve_poisson(m, ProblemSpec(f=lambda x, y: np.ones_like(x)))
    assert sol.n_multipliers == sol.factor_nnz == sol.factor_rows == 0
    assert np.allclose(sol.sigma.values[m.tri_edge[0]], m.tri_sign[0] / 6.0,
                       rtol=1e-14, atol=0.0)
    assert sol.u.values == pytest.approx([1.0 / 36.0], rel=1e-14)


def test_conservation_defect_matches_recomputation():
    """``recover`` checks the problem with the load scaled to unit norm by
    a power of two, and so does the recomputation."""
    m = uniform_refine(lshape_mesh(), 2)
    prob = ProblemSpec(f=smooth_f)
    space, rhs_u = assemble(m, prob)
    sol = solve(space, rhs_u)
    k = np.frexp(np.linalg.norm(rhs_u))[1]
    rhs_u, sigma = np.ldexp(rhs_u, -k), np.ldexp(sol.sigma.values, -k)
    B = div_matrix(space)
    resid = np.abs(B @ sigma - rhs_u)
    scale = 1.0 + np.abs(rhs_u) + np.abs(B) @ np.abs(sigma)
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
    # testing the first equation with tau = sigma_h gives
    # (sigma, sigma)_M = sum_T u_T int_T f
    m = uniform_refine(unit_square_mesh(), 2)
    space, rhs_u = assemble(m, ProblemSpec(f=smooth_f))
    sol = solve(space, rhs_u)
    lhs = space.mass_inner(sol.sigma.values, sol.sigma.values)
    rhs = sol.u.values @ rhs_u
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_error_sigma_two_routes_agree():
    # quadrature route against an exact flux vs mass-matrix route against a
    # much finer reference solution
    prob = ProblemSpec(f=smooth_f, sigma_exact=smooth_sigma)
    m3 = uniform_refine(unit_square_mesh(), 3)
    sol3 = solve_poisson(m3, prob)
    err_quad = error_sigma(sol3, smooth_sigma)
    sol6 = solve_poisson(uniform_refine(m3, 3), prob)
    d = sol6.sigma.values - prolongate(sol3.sigma, sol6.mesh).values
    err_ref = np.sqrt(sol6.space.mass_inner(d, d))
    assert err_ref == pytest.approx(err_quad, rel=0.05)


def test_error_sigma_without_an_exact_flux_is_nan():
    sol = solve_poisson(unit_square_mesh(), ProblemSpec(f=smooth_f))
    assert np.isnan(error_sigma(sol, None))


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


GOLDEN_SOLVE = os.path.join(os.path.dirname(__file__), "golden",
                            "solve_lshape_u2.csv")


def golden_solve_rows():
    """Every flux and u coefficient, as ``repr(float)``, of two solves on
    two uniform rounds of the L-shape: the ``lshape_sing`` load and a
    seeded piecewise constant one."""
    mesh = uniform_refine(lshape_mesh(), 2)
    rng = np.random.default_rng(11)
    loads = (("lshape_sing", benchmark("lshape_sing").make()[1].f),
             ("p0_seed11", P0Source(mesh, rng.standard_normal(mesh.nt))))
    rows = ["load,field,i,value"]
    for name, f in loads:
        sol = solve_poisson(mesh, ProblemSpec(f=f))
        for field, dof in (("sigma", sol.sigma), ("u", sol.u)):
            rows.extend("%s,%s,%d,%r" % (name, field, i, float(v))
                        for i, v in enumerate(dof.values))
    return rows


def test_solve_matches_golden_to_the_last_bit():
    with open(GOLDEN_SOLVE) as fh:
        want = fh.read().splitlines()
    assert golden_solve_rows() == want


def test_solve_rejects_a_non_finite_load():
    """The first triangle whose load is not finite is named; triangle 0 of
    the square lies below y = 0.9 at every quadrature point."""
    load = FunctionSource(lambda x, y: np.where(y > 0.9, np.inf, 1.0))
    with pytest.raises(ValueError, match="not finite .* of triangle 1$"):
        solve_poisson(unit_square_mesh(), ProblemSpec(f=load))
