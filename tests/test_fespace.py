import numpy as np
import pytest

from amfem.fespace import (DofVector, P0Space, P1Space, RTSpace, curl_p1,
                           div_matrix, div_rt, dof_from_text, dof_to_text,
                           edge_normals, eval_rt, grad_h, interpolate_rt,
                           l2_project, prolongate, rt_affine,
                           rt_mass_matrix)
from amfem.mesh import load_mesh, uniform_refine
from amfem.quadrature import tri_points, tri_rule
from amfem.sources import FunctionSource
from amfem.verify import fit_points, unit_square_mesh

REF_TRI = """amfemmesh 1
3 1
0.0 0.0
1.0 0.0
0.0 1.0
0 1 2 -
"""


def ref_space():
    return RTSpace(load_mesh(REF_TRI))


def random_interior_points(mesh, rng, n=20):
    """(t, point) samples strictly inside live triangles."""
    out = []
    for _ in range(n):
        t = int(rng.choice(mesh.live))
        lam = rng.dirichlet([2.0, 2.0, 2.0])
        p = lam @ mesh.points[mesh.tri_verts[t]]
        out.append((t, p))
    return out


def test_space_dimensions():
    m = uniform_refine(unit_square_mesh())
    assert RTSpace(m).ndof == m.ne
    assert P0Space(m).ndof == m.nt
    assert P1Space(m).ndof == m.nv


def test_reference_mass_matrix_closed_form():
    # edges in id order: (0,1) bottom, (0,2) left, (1,2) hypotenuse.
    # Hand integration of the three basis functions over the triangle:
    #   phi_bottom = (x, y-1), phi_left = (1-x, -y), phi_hyp = (x, y)
    # gives the matrix below.
    M = rt_mass_matrix(ref_space()).toarray()
    want = np.array([[1 / 3, 1 / 6, 0.0],
                     [1 / 6, 1 / 3, 0.0],
                     [0.0, 0.0, 1 / 6]])
    assert np.allclose(M, want, atol=1e-14)


def test_reference_div_matrix_signs():
    B = div_matrix(ref_space()).toarray()
    assert np.array_equal(B, [[1.0, -1.0, 1.0]])


def test_div_matrix_entries_are_unit():
    m = uniform_refine(unit_square_mesh(), 2)
    B = div_matrix(RTSpace(m)).tocsr()
    assert np.all(np.isin(B.data, (-1.0, 1.0)))
    assert np.all(np.diff(B.indptr) == 3)


def test_basis_unit_normal_on_unit_edges():
    # on edges of length one a flux dof of 1 means unit normal component
    # at the edge midpoint, since the dof is the integrated normal flux
    space = ref_space()
    m = space.mesh
    n = edge_normals(m)
    for e, pair, mid in ((0, (0, 1), (0.5, 0.0)), (1, (0, 2), (0.0, 0.5))):
        assert tuple(m.edge_verts[e]) == pair
        vals = np.zeros(m.ne)
        vals[e] = 1.0
        dof = DofVector("RT", vals, m)
        sig = eval_rt(space, dof, int(m.live[0]), np.array(mid))
        assert float(sig @ n[e]) == pytest.approx(1.0, abs=1e-14)


def test_basis_vanishing_normal_trace_on_other_edges():
    space = ref_space()
    m = space.mesh
    n = edge_normals(m)
    mids = {0: (0.5, 0.0), 1: (0.0, 0.5), 2: (0.5, 0.5)}
    for e in range(3):
        vals = np.zeros(m.ne)
        vals[e] = 1.0
        dof = DofVector("RT", vals, m)
        for other, mid in mids.items():
            if other == e:
                continue
            sig = eval_rt(space, dof, int(m.live[0]), np.array(mid))
            assert abs(float(sig @ n[other])) < 1e-14


def test_constant_field_reproduced():
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    dof = interpolate_rt(lambda x, y: (2.0 * np.ones_like(x),
                                       -1.0 * np.ones_like(y)), space)
    rng = np.random.default_rng(0)
    for t, p in random_interior_points(m, rng):
        assert np.allclose(eval_rt(space, dof, t, p), (2.0, -1.0),
                           atol=1e-13)
    assert np.allclose(div_rt(space, dof), 0.0, atol=1e-12)


def test_radial_field_reproduced_with_divergence_two():
    # (x, y) = 0 + 1*(x, y) lies in the space on every triangle and is
    # H(div)-conforming, so interpolation reproduces it exactly
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    dof = interpolate_rt(lambda x, y: (x, y), space)
    rng = np.random.default_rng(1)
    for t, p in random_interior_points(m, rng):
        assert np.allclose(eval_rt(space, dof, t, p), p, atol=1e-13)
    assert np.allclose(div_rt(space, dof), 2.0, atol=1e-12)


def test_affine_representation_matches_eval():
    m = uniform_refine(unit_square_mesh())
    space = RTSpace(m)
    rng = np.random.default_rng(2)
    vals = rng.standard_normal(m.ne)
    a0, c = rt_affine(space, vals)
    dof = DofVector("RT", vals, m)
    for t, p in random_interior_points(m, rng, n=10):
        pos = m.live_pos[t]
        assert np.allclose(a0[pos] + c[pos] * p, eval_rt(space, dof, t, p),
                           atol=1e-13)


def test_eval_outside_triangle_raises():
    space = ref_space()
    dof = DofVector("RT", np.ones(3), space.mesh)
    with pytest.raises(ValueError):
        eval_rt(space, dof, int(space.mesh.live[0]), np.array([0.9, 0.9]))


def test_l2_projection_reference_value():
    # mean of f(x, y) = x over the reference triangle is 1/3
    m = load_mesh(REF_TRI)
    proj = l2_project(FunctionSource(lambda x, y: x), P0Space(m))
    assert proj.values[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_interpolation_commutes_with_projection():
    # Q_h div tau == div Pi_h tau for tau with cubic components: the edge
    # rule is exact for cubics and the cell rule for the quartic products
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)

    def tau(x, y):
        return x ** 3 - 2.0 * x * y ** 2, x ** 2 * y

    def dtau(x, y):
        return 3.0 * x ** 2 - 2.0 * y ** 2 + x ** 2

    lhs = l2_project(FunctionSource(dtau), P0Space(m)).values
    rhs = div_rt(space, interpolate_rt(tau, space))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_prolongation_preserves_field_values():
    coarse = uniform_refine(unit_square_mesh())
    fine = uniform_refine(coarse, 2)
    cs = RTSpace(coarse)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(coarse.ne)
    cdof = DofVector("RT", vals, coarse)
    fdof = prolongate(cdof, fine)
    fs = RTSpace(fine)
    for t, p in random_interior_points(fine, rng, n=15):
        anc_candidates = [tc for tc in coarse.live]
        got = eval_rt(fs, fdof, t, p)
        ok = False
        for tc in anc_candidates:
            v = coarse.points[coarse.tri_verts[tc]]
            T = np.column_stack([v[1] - v[0], v[2] - v[0]])
            lam = np.linalg.solve(T, p - v[0])
            if lam.min() > 1e-9 and lam.sum() < 1 - 1e-9:
                want = eval_rt(cs, cdof, int(tc), p)
                ok = np.allclose(got, want, atol=1e-12)
                break
        assert ok


def test_prolongation_preserves_mass_norm():
    coarse = uniform_refine(unit_square_mesh())
    fine = uniform_refine(coarse)
    vals = np.random.default_rng(6).standard_normal(coarse.ne)
    cdof = DofVector("RT", vals, coarse)
    fdof = prolongate(cdof, fine)
    nc = vals @ (rt_mass_matrix(RTSpace(coarse)) @ vals)
    nf = fdof.values @ (rt_mass_matrix(RTSpace(fine)) @ fdof.values)
    assert nf == pytest.approx(nc, rel=1e-12)


def test_p0_prolongation_copies_ancestor_values():
    coarse = unit_square_mesh()
    fine = uniform_refine(coarse, 2)
    cdof = DofVector("P0", np.array([3.0, -7.0]), coarse)
    fdof = prolongate(cdof, fine)
    cent = fine.points[fine.tri_verts[fine.live]].mean(axis=1)
    want = np.where(cent[:, 0] > cent[:, 1], 3.0, -7.0)
    assert np.array_equal(fdof.values, want)


def test_curl_of_linear_is_constant_field():
    m = uniform_refine(unit_square_mesh())
    psi = DofVector("P1", m.points[:, 0] + 2.0 * m.points[:, 1], m)
    got = curl_p1(psi)
    want = interpolate_rt(lambda x, y: (2.0 * np.ones_like(x),
                                        -np.ones_like(y)), RTSpace(m))
    assert np.allclose(got.values, want.values, atol=1e-13)


def test_curl_is_divergence_free():
    m = uniform_refine(unit_square_mesh(), 2)
    rng = np.random.default_rng(7)
    psi = DofVector("P1", rng.standard_normal(m.nv), m)
    B = div_matrix(RTSpace(m))
    assert np.max(np.abs(B @ curl_p1(psi).values)) < 1e-13


def test_grad_h_defining_relation():
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    rng = np.random.default_rng(8)
    v = DofVector("P0", rng.standard_normal(m.nt), m)
    g = grad_h(v, space)
    M = rt_mass_matrix(space)
    B = div_matrix(space)
    for _ in range(5):
        tau = rng.standard_normal(m.ne)
        lhs = g.values @ (M @ tau)
        rhs = -(v.values @ (B @ tau))
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


def test_interpolant_is_hdiv_conforming():
    # normal flux dofs are shared, so jumps of the normal component vanish;
    # check via the estimator-free route: evaluate both sides at edge
    # midpoints of interior edges
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    dof = interpolate_rt(lambda x, y: (np.sin(x + y), x * y), space)
    n = edge_normals(m)
    interior = np.where(~m.edge_boundary)[0]
    for e in interior[::3]:
        mid = 0.5 * (m.points[m.edge_verts[e, 0]]
                     + m.points[m.edge_verts[e, 1]])
        tl, tr = m.edge_tri[e]
        vl = eval_rt(space, dof, int(tl), mid) @ n[e]
        vr = eval_rt(space, dof, int(tr), mid) @ n[e]
        assert vl == pytest.approx(vr, abs=1e-12)


def test_interpolation_error_rate_one_half():
    def tau(x, y):
        return np.sin(np.pi * x) * np.cos(np.pi * y), np.cos(np.pi * x * y)

    ns, errs = [], []
    m = unit_square_mesh()
    for _ in range(5):
        m = uniform_refine(m)
        space = RTSpace(m)
        a0, c = rt_affine(space, interpolate_rt(tau, space).values)
        bary, w = tri_rule(4)
        pts = tri_points(m.points[m.tri_verts[m.live]], bary)
        tx, ty = tau(pts[:, :, 0], pts[:, :, 1])
        dx = a0[:, None, 0] + c[:, None] * pts[:, :, 0] - tx
        dy = a0[:, None, 1] + c[:, None] * pts[:, :, 1] - ty
        err2 = ((dx * dx + dy * dy) @ w) * m.tri_area
        ns.append(m.nt)
        errs.append(np.sqrt(err2.sum()))
    fit = fit_points(ns, errs)
    assert fit.s == pytest.approx(0.5, abs=0.05)


def test_dof_text_roundtrip():
    m = uniform_refine(unit_square_mesh())
    vals = np.random.default_rng(9).standard_normal(m.ne)
    dof = DofVector("RT", vals, m)
    back = dof_from_text(dof_to_text(dof), m)
    assert back.kind == "RT"
    assert np.array_equal(back.values, vals)


def test_dof_text_rejects_wrong_count():
    m = unit_square_mesh()
    dof = DofVector("P0", np.array([1.0, 2.0]), m)
    text = dof_to_text(dof)
    with pytest.raises(ValueError):
        dof_from_text(text, uniform_refine(m))


def test_dofvector_shape_validation():
    m = unit_square_mesh()
    with pytest.raises(ValueError):
        DofVector("RT", np.zeros(m.ne + 1), m)
    with pytest.raises(ValueError):
        DofVector("P9", np.zeros(m.ne), m)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_dof_text_rejects_non_finite_value(bad):
    text = "amfemdof 1 P0 2\n1.5\n%s\n" % bad
    with pytest.raises(ValueError, match="coefficient row 2 is not finite"):
        dof_from_text(text, unit_square_mesh())
