import numpy as np
import pytest

from amfem.fespace import (DofVector, RTSpace, curl_matrix, div_matrix,
                           dof_from_text, dof_to_text, edge_normals,
                           interpolate_rt, prolongate, rt_affine,
                           rt_mass_matrix)
from amfem.mesh import load_mesh, uniform_refine
from amfem.quadrature import tri_points, tri_rule
from amfem.sources import FunctionSource, P0Source
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


def div_of(space, dof):
    """Divergence of an RT field, constant per live triangle."""
    return div_matrix(space) @ dof.values / space.mesh.tri_area


def flux_at(mesh, a0, c, t, p):
    """Value at point p of live triangle t of the field whose affine form
    ``rt_affine`` returned as (a0, c)."""
    pos = mesh.live_pos[t]
    return a0[pos] + c[pos] * p


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
        a0, c = rt_affine(space, vals)
        sig = flux_at(m, a0, c, m.live[0], np.array(mid))
        assert float(sig @ n[e]) == pytest.approx(1.0, abs=1e-14)


def test_basis_vanishing_normal_trace_on_other_edges():
    space = ref_space()
    m = space.mesh
    n = edge_normals(m)
    mids = {0: (0.5, 0.0), 1: (0.0, 0.5), 2: (0.5, 0.5)}
    for e in range(3):
        vals = np.zeros(m.ne)
        vals[e] = 1.0
        a0, c = rt_affine(space, vals)
        for other, mid in mids.items():
            if other == e:
                continue
            sig = flux_at(m, a0, c, m.live[0], np.array(mid))
            assert abs(float(sig @ n[other])) < 1e-14


def test_constant_field_reproduced():
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    dof = interpolate_rt(lambda x, y: (2.0 * np.ones_like(x),
                                       -1.0 * np.ones_like(y)), space)
    a0, c = rt_affine(space, dof.values)
    rng = np.random.default_rng(0)
    for t, p in random_interior_points(m, rng):
        assert np.allclose(flux_at(m, a0, c, t, p), (2.0, -1.0), atol=1e-13)
    assert np.allclose(div_of(space, dof), 0.0, atol=1e-12)


def test_radial_field_reproduced_with_divergence_two():
    # (x, y) = 0 + 1*(x, y) lies in the space on every triangle and is
    # H(div)-conforming, so interpolation reproduces it exactly
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    dof = interpolate_rt(lambda x, y: (x, y), space)
    a0, c = rt_affine(space, dof.values)
    rng = np.random.default_rng(1)
    for t, p in random_interior_points(m, rng):
        assert np.allclose(flux_at(m, a0, c, t, p), p, atol=1e-13)
    assert np.allclose(div_of(space, dof), 2.0, atol=1e-12)


def test_l2_projection_reference_value():
    # mean of f(x, y) = x over the reference triangle is 1/3
    m = load_mesh(REF_TRI)
    proj = FunctionSource(lambda x, y: x).cell_means(m)
    assert proj[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_interpolation_commutes_with_projection():
    # Q_h div tau == div Pi_h tau for tau with cubic components: the edge
    # rule is exact for cubics and the cell rule for the quartic products
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)

    def tau(x, y):
        return x ** 3 - 2.0 * x * y ** 2, x ** 2 * y

    def dtau(x, y):
        return 3.0 * x ** 2 - 2.0 * y ** 2 + x ** 2

    lhs = FunctionSource(dtau).cell_means(m)
    rhs = div_of(space, interpolate_rt(tau, space))
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_prolongation_preserves_field_values():
    coarse = uniform_refine(unit_square_mesh())
    fine = uniform_refine(coarse, 2)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(coarse.ne)
    cdof = DofVector("RT", vals, coarse)
    fdof = prolongate(cdof, fine)
    coarse_affine = rt_affine(RTSpace(coarse), vals)
    fine_affine = rt_affine(RTSpace(fine), fdof.values)
    for t, p in random_interior_points(fine, rng, n=15):
        anc_candidates = [tc for tc in coarse.live]
        got = flux_at(fine, *fine_affine, t, p)
        ok = False
        for tc in anc_candidates:
            v = coarse.points[coarse.tri_verts[tc]]
            T = np.column_stack([v[1] - v[0], v[2] - v[0]])
            lam = np.linalg.solve(T, p - v[0])
            if lam.min() > 1e-9 and lam.sum() < 1 - 1e-9:
                want = flux_at(coarse, *coarse_affine, tc, p)
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
    values = P0Source(coarse, np.array([3.0, -7.0])).cell_means(fine)
    cent = fine.points[fine.tri_verts[fine.live]].mean(axis=1)
    want = np.where(cent[:, 0] > cent[:, 1], 3.0, -7.0)
    assert np.array_equal(values, want)


def test_prolongate_rejects_a_p0_field():
    coarse = unit_square_mesh()
    cdof = DofVector("P0", np.array([3.0, -7.0]), coarse)
    with pytest.raises(ValueError, match="RT fields, not P0"):
        prolongate(cdof, uniform_refine(coarse))


def test_curl_of_linear_is_constant_field():
    m = uniform_refine(unit_square_mesh())
    psi = m.points[:, 0] + 2.0 * m.points[:, 1]
    got = curl_matrix(m) @ psi
    want = interpolate_rt(lambda x, y: (2.0 * np.ones_like(x),
                                        -np.ones_like(y)), RTSpace(m))
    assert np.allclose(got, want.values, atol=1e-13)


def test_curl_is_divergence_free():
    m = uniform_refine(unit_square_mesh(), 2)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal(m.nv)
    B = div_matrix(RTSpace(m))
    assert np.max(np.abs(B @ (curl_matrix(m) @ psi))) < 1e-13


def test_interpolant_is_hdiv_conforming():
    # normal flux dofs are shared, so jumps of the normal component vanish;
    # check via the estimator-free route: evaluate both sides at edge
    # midpoints of interior edges
    m = uniform_refine(unit_square_mesh(), 2)
    space = RTSpace(m)
    dof = interpolate_rt(lambda x, y: (np.sin(x + y), x * y), space)
    a0, c = rt_affine(space, dof.values)
    n = edge_normals(m)
    interior = np.where(~m.edge_boundary)[0]
    for e in interior[::3]:
        mid = 0.5 * (m.points[m.edge_verts[e, 0]]
                     + m.points[m.edge_verts[e, 1]])
        tl, tr = m.live[m.edge_tri[e]]
        vl = flux_at(m, a0, c, tl, mid) @ n[e]
        vr = flux_at(m, a0, c, tr, mid) @ n[e]
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
    # one value per edge, per live triangle and per vertex
    m = uniform_refine(unit_square_mesh())
    for kind, n in (("RT", m.ne), ("P0", m.nt), ("P1", m.nv)):
        assert DofVector(kind, np.zeros(n), m).values.shape == (n,)
        with pytest.raises(ValueError):
            DofVector(kind, np.zeros(n + 1), m)
    with pytest.raises(ValueError):
        DofVector("P9", np.zeros(m.ne), m)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_dof_text_rejects_non_finite_value(bad):
    text = "amfemdof 1 P0 2\n1.5\n%s\n" % bad
    with pytest.raises(ValueError, match="coefficient row 2 is not finite"):
        dof_from_text(text, unit_square_mesh())
