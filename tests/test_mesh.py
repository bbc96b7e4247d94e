import numpy as np
import pytest

from amfem.mesh import (Mesh, MeshFormatError, NotNestedError, _checked_ids,
                        _edge_key, ancestor_map, load_mesh, refine_edges,
                        save_mesh, triangle_angles, uniform_refine)
from amfem.verify import lshape_mesh, unit_square_mesh

REF_TRI = """amfemmesh 1
3 1
0.0 0.0
1.0 0.0
0.0 1.0
0 1 2 -
"""


def ref_tri_mesh():
    return load_mesh(REF_TRI)


def refedge_pair(mesh, t):
    """Vertex pair (a, b), a < b, of live triangle t's refinement edge."""
    e = mesh.tri_edge[mesh.live_pos[t], mesh.tri_refedge[t]]
    return tuple(mesh.edge_verts[e].tolist())


def bisect(mesh, t):
    """Split live triangle t's refinement edge (both triangles of its
    patch, plus whatever conformity needs)."""
    return refine_edges(mesh, [mesh.tri_edge[mesh.live_pos[t],
                                             mesh.tri_refedge[t]]])[0]


def min_angle(mesh):
    return triangle_angles(mesh.points[mesh.tri_verts[mesh.live]])[:, 0].min()


def edge_id(mesh, a, b):
    pair = (min(a, b), max(a, b))
    for e in range(mesh.ne):
        if tuple(mesh.edge_verts[e]) == pair:
            return e
    raise AssertionError("no edge %r" % (pair,))


def test_square_counts():
    m = unit_square_mesh()
    assert (m.nv, m.nt, m.ne) == (4, 2, 5)
    assert np.allclose(m.tri_area, 0.5)
    assert m.domain_area == pytest.approx(1.0, abs=1e-15)
    assert m.edge_boundary.sum() == 4


def test_longest_edge_labeling_square():
    # both triangles of the square must refine toward the diagonal (0, 2)
    m = unit_square_mesh()
    for t in m.live:
        assert refedge_pair(m, t) == (0, 2)


def test_labeling_tie_prefers_smallest_opposite_vertex():
    # isoceles triangle with two equal longest sides; the tie is broken by
    # the smaller opposite vertex id, which is vertex 0 here
    text = """amfemmesh 1
3 1
0.0 0.0
1.0 0.0
0.5 2.0
0 1 2 -
"""
    m = load_mesh(text)
    assert m.tri_refedge[m.live[0]] == 0


def test_single_triangle_refedge_is_hypotenuse():
    m = ref_tri_mesh()
    assert refedge_pair(m, m.live[0]) == (1, 2)


def test_diagonal_split_counts_and_areas():
    m = unit_square_mesh()
    diag = edge_id(m, 0, 2)
    m2, bisected = refine_edges(m, [diag])
    assert (m2.nv, m2.nt, m2.ne) == (5, 4, 8)
    assert len(bisected) == 2
    assert np.allclose(m2.tri_area, 0.25)          # exact midpoint halving
    assert np.all(m2.tri_gen[m2.live] == 1)
    assert m2.ne == m2.nv + m2.nt - 1


def test_boundary_edge_split_cascades_through_diagonal():
    # splitting a boundary edge first forces the diagonal (the refinement
    # edge of both triangles), then the boundary edge itself
    m = unit_square_mesh()
    bottom = edge_id(m, 0, 1)
    m2, _ = refine_edges(m, [bottom])
    assert (m2.nv, m2.nt, m2.ne) == (6, 5, 10)
    # the marked edge must actually be gone
    pairs = {tuple(e) for e in m2.edge_verts}
    assert (0, 1) not in pairs


def test_refine_edges_empty_is_noop():
    m = unit_square_mesh()
    m2, bisected = refine_edges(m, [])
    assert m2.nt == m.nt
    assert bisected.size == 0 and bisected.dtype == np.int32


def test_uniform_refine_square():
    m = uniform_refine(unit_square_mesh())
    assert (m.nv, m.nt, m.ne) == (9, 8, 16)
    assert min_angle(m) == pytest.approx(45.0, abs=1e-10)
    assert m.edge_boundary.sum() == 8


def test_uniform_refine_quadruples_exactly():
    m = lshape_mesh()
    counts = [m.nt]
    for _ in range(3):
        m = uniform_refine(m)
        counts.append(m.nt)
    assert counts == [6, 24, 96, 384]


def test_area_halving_exact():
    m = uniform_refine(lshape_mesh(), 2)
    t = int(m.live[7])
    area_parent = m.tri_area[m.live_pos[t]]
    m2 = bisect(m, t)
    kids = np.flatnonzero(m2.tri_parent == t)
    assert len(kids) == 2
    for k in kids:
        assert m2.tri_area[m2.live_pos[k]] == pytest.approx(
            0.5 * area_parent, rel=1e-14)


def test_children_inherit_refinement_edge_rule():
    # each child's refinement edge is the one full edge it inherits from
    # the parent
    m = unit_square_mesh()
    t = int(m.live[0])
    parent_pairs = set()
    v = m.tri_verts[t]
    for i in range(3):
        a, b = int(v[(i + 1) % 3]), int(v[(i + 2) % 3])
        parent_pairs.add((min(a, b), max(a, b)))
    m2 = bisect(m, t)
    for k in np.flatnonzero(m2.tri_parent == t):
        assert refedge_pair(m2, k) in parent_pairs


def test_euler_identity_random_refinements():
    rng = np.random.default_rng(11)
    m = lshape_mesh()
    for _ in range(6):
        marked = rng.choice(m.ne, size=max(1, m.ne // 5), replace=False)
        m, _ = refine_edges(m, marked)
        assert m.ne == m.nv + m.nt - 1
        assert m.domain_area == pytest.approx(3.0, rel=1e-12)


def test_marked_edges_all_removed():
    rng = np.random.default_rng(4)
    m = unit_square_mesh()
    for _ in range(4):
        marked = rng.choice(m.ne, size=m.ne // 3 + 1, replace=False)
        pairs = [tuple(m.edge_verts[e]) for e in marked]
        m, _ = refine_edges(m, marked)
        left = {tuple(e) for e in m.edge_verts}
        for p in pairs:
            assert p not in left


def test_save_load_roundtrip():
    m, _ = refine_edges(uniform_refine(lshape_mesh()), [0, 3])
    m2 = load_mesh(save_mesh(m))
    assert m2.nv == m.nv and m2.nt == m.nt and m2.ne == m.ne
    assert np.array_equal(m2.points, m.points)
    live = m.tri_verts[m.live]
    assert np.array_equal(m2.tri_verts[m2.live], live)
    assert np.array_equal(m2.tri_refedge[m2.live], m.tri_refedge[m.live])


def test_load_rejects_bad_header():
    with pytest.raises(MeshFormatError, match="line 1"):
        load_mesh("nope\n")


def test_load_rejects_bad_vertex_count():
    text = "amfemmesh 1\n9 1\n0 0\n1 0\n0 1\n0 1 2 -\n"
    with pytest.raises(MeshFormatError):
        load_mesh(text)


def test_load_rejects_bad_vertex_id():
    text = "amfemmesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 7 -\n"
    with pytest.raises(MeshFormatError, match="line 6"):
        load_mesh(text)


def test_load_rejects_duplicate_triangle():
    # rotated and reflected copies: once counterclockwise, a copy traverses
    # its edges in the same direction as the original
    for text in ("amfemmesh 1\n3 2\n0 0\n1 0\n0 1\n0 1 2 -\n1 2 0 -\n",
                 "amfemmesh 1\n3 2\n0 0\n1 0\n0 1\n0 1 2 -\n0 2 1 -\n",
                 "amfemmesh 1\n4 3\n0 0\n1 0\n1 1\n0 1\n"
                 "0 1 2 -\n0 2 3 -\n0 3 2 -\n"):
        with pytest.raises(MeshFormatError, match="same direction"):
            load_mesh(text)


def test_duplicate_triangle_error_names_the_edge_and_both_triangles():
    text = "amfemmesh 1\n3 2\n0 0\n1 0\n0 1\n0 1 2 -\n1 2 0 -\n"
    with pytest.raises(MeshFormatError,
                       match="edge 0 -> 1 .* by triangles 0 and 1"):
        load_mesh(text)
    # two triangles above the edge 0 -> 1, and the last two rows both
    # below it, walking it from 1 to 0
    text = ("amfemmesh 1\n6 4\n0 0\n1 0\n0 -1\n1 -1\n0 1\n1 1\n"
            "0 1 4 -\n1 5 4 -\n1 0 2 -\n1 0 3 -\n")
    with pytest.raises(MeshFormatError,
                       match="edge 1 -> 0 .* by triangles 2 and 3"):
        load_mesh(text)


def test_load_rejects_edge_traversed_twice_in_same_direction():
    # both triangles lie left of the edge 0 -> 1, so they overlap
    text = "amfemmesh 1\n4 2\n0 0\n1 0\n0 1\n1 1\n0 1 2 -\n0 1 3 -\n"
    with pytest.raises(MeshFormatError, match="same direction"):
        load_mesh(text)


def test_load_rejects_degenerate_triangle():
    text = "amfemmesh 1\n3 1\n0 0\n1 0\n2 0\n0 1 2 -\n"
    with pytest.raises(MeshFormatError):
        load_mesh(text)


def test_load_rejects_hanging_vertex():
    # right half of the square split to the diagonal midpoint, left half not
    text = """amfemmesh 1
5 3
0.0 0.0
1.0 0.0
1.0 1.0
0.0 1.0
0.5 0.5
0 2 3 -
0 1 4 -
1 2 4 -
"""
    with pytest.raises(MeshFormatError):
        load_mesh(text)


def test_load_rejects_unused_vertex():
    text = "amfemmesh 1\n4 1\n0 0\n1 0\n0 1\n5 5\n0 1 2 -\n"
    with pytest.raises(MeshFormatError, match="not used by any live"):
        load_mesh(text)


def test_mesh_from_arrays_rejects_unused_vertex():
    """The scan runs on every mesh built from arrays, genealogy and all:
    here the arrays of a refined mesh plus a point no triangle uses."""
    fine = uniform_refine(ref_tri_mesh(), 1)
    points = np.vstack([fine.points, [[5.0, 5.0]]])
    with pytest.raises(MeshFormatError, match="not used by any live"):
        Mesh(points, fine.tri_verts, fine.tri_refedge, fine.tri_gen,
             fine.tri_parent, fine.alive)


@pytest.mark.parametrize("bad", [-1, 3, 2 ** 32])
def test_mesh_from_arrays_rejects_a_vertex_id_out_of_range(bad):
    """Checked before the ids narrow to int32, where 2^32 would wrap to 0."""
    m = ref_tri_mesh()
    with pytest.raises(MeshFormatError,
                       match="vertex id %d outside \\[0, 3\\)" % bad):
        Mesh(m.points, [[0, 1, bad]], m.tri_refedge, m.tri_gen, m.tri_parent,
             m.alive)


def test_id_check_rejects_counts_beyond_int32():
    """The check a mesh built from arrays runs before its ids narrow, at
    2^31 vertices and at 2^31 rows.  It is called directly: a ``Mesh`` of
    that size would take tens of GB wherever the check failed to stop it,
    while the rows here are a zero-stride view that nothing copies."""
    many = 2 ** 31
    with pytest.raises(MeshFormatError, match="nv=2147483648"):
        _checked_ids([[0, 1, 2]], many)
    rows = np.broadcast_to(np.array([0, 1, 2], dtype=np.int32), (many, 3))
    with pytest.raises(MeshFormatError, match="rows=2147483648"):
        _checked_ids(rows, 3)
    assert _checked_ids([[0, 1, 2]], many - 1).shape == (1, 3)


def test_edge_key_is_lexicographic_beyond_int32():
    """Two int32 ids give the int64 key lo * 2^32 + hi, never a wrapped
    product like the a * nv + b it replaces."""
    lo = np.array([2 ** 31 - 2, 0, 5], dtype=np.int32)
    hi = np.array([2 ** 31 - 1, 2 ** 31 - 1, 6], dtype=np.int32)
    key = _edge_key(lo, hi)
    assert key.dtype == np.int64
    assert key.tolist() == [(2 ** 31 - 2) * 2 ** 32 + 2 ** 31 - 1,
                            2 ** 31 - 1, 5 * 2 ** 32 + 6]
    assert lo.dtype == np.int32 and lo[0] == 2 ** 31 - 2


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_coordinate(coord):
    text = "amfemmesh 1\n3 1\n0 0\n%s 1\n0 1\n0 1 2 -\n" % coord
    with pytest.raises(MeshFormatError, match="line 4"):
        load_mesh(text)


HUGE_SQUARE = ("amfemmesh 1\n4 2\n0 0\n1e300 0\n1e300 1e300\n0 1e300\n"
               "0 1 2 -\n0 2 3 -\n")


@pytest.mark.parametrize("text, bad", [
    (HUGE_SQUARE, 0),
    ("amfemmesh 1\n4 2\n0 0\n1 0\n0 1\n1.7e308 1.7e308\n"
     "0 1 2 -\n1 3 2 -\n", 1),
], ids=["area", "edge_length"])
def test_load_rejects_non_finite_geometry(text, bad):
    """Finite coordinates whose area or edge length overflows are refused
    with the triangle named; a RuntimeWarning would fail this test, since
    the suite turns warnings into errors."""
    with pytest.raises(MeshFormatError, match="^triangle %d has a non-finite "
                       "area or edge length$" % bad):
        load_mesh(text)


# a triangulated annulus (the outer triangle 0 1 2 around the hole 3 4 5)
# beside a lone triangle: 9 vertices, 7 triangles and 15 edges, so
# ne = nv + nt - 1 holds although the mesh has two components
RING_AND_TRIANGLE = (
    "amfemmesh 1\n9 7\n0 0\n4 0\n2 4\n1.5 1\n2.5 1\n2 2\n"
    "10 0\n11 0\n10 1\n0 1 3 -\n1 4 3 -\n1 2 4 -\n2 5 4 -\n2 0 5 -\n"
    "0 3 5 -\n6 7 8 -\n")


def test_load_rejects_a_disconnected_mesh_that_meets_euler():
    """The counts would pass ``check_helmholtz``'s dims identity, whose P1
    stiffness on this mesh is singular; the mesh is refused first."""
    nv, nt, ne = 9, 7, 15
    assert ne == (nv - 1) + nt
    with pytest.raises(MeshFormatError, match="^disconnected mesh: no chain "
                       "of edges joins triangle 0 to triangle 6$"):
        load_mesh(RING_AND_TRIANGLE)


def test_components_of_a_path_numbered_against_its_order():
    """Labels that fall along a path and rise along it again, and a
    second component: each node gets the smallest node of its part."""
    from amfem.mesh import _components
    pairs = np.array([[5, 3], [3, 1], [1, 4], [4, 0], [0, 6], [2, 7]])
    assert _components(pairs, 8).tolist() == [0, 0, 2, 0, 0, 0, 0, 2]
    assert _components(np.empty((0, 2), dtype=np.int64), 3).tolist() == [
        0, 1, 2]


def test_mesh_rejects_non_finite_point():
    m = ref_tri_mesh()
    points = m.points.copy()
    points[1, 0] = np.nan
    with pytest.raises(MeshFormatError, match="vertex 1"):
        Mesh(points, m.tri_verts, m.tri_refedge, m.tri_gen, m.tri_parent,
             m.alive)


def test_load_flips_clockwise_triangle():
    # (0,1,2) is clockwise here; the loader must flip it and remap the
    # refinement edge so it still points at the same geometric edge
    text = "amfemmesh 1\n3 1\n0.0 0.0\n0.0 1.0\n1.0 0.0\n0 1 2 1\n"
    m = load_mesh(text)
    t = m.live[0]
    assert m.tri_area[0] > 0
    # refedge 1 named the edge opposite vertex 1, i.e. (v2, v0) = (2, 0)
    assert refedge_pair(m, t) == (0, 2)


@pytest.mark.parametrize("bad", [-1, 5])
def test_refine_edges_rejects_unknown_edge_id(bad):
    with pytest.raises(ValueError, match="no edge with id %d" % bad):
        refine_edges(unit_square_mesh(), [0, bad])


def test_refine_edges_takes_a_list_or_an_int64_array():
    m = uniform_refine(lshape_mesh(), 1)
    ids = [7, 0, 12, 3]
    a, bis_a = refine_edges(m, ids)
    b, bis_b = refine_edges(m, np.array(ids, dtype=np.int64))
    assert np.array_equal(bis_a, bis_b)
    for name in ("points", "tri_verts", "tri_refedge", "tri_gen",
                 "tri_parent", "alive", "edge_verts", "edge_tri"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    with pytest.raises(ValueError, match="no edge with id %d" % m.ne):
        refine_edges(m, np.array([0, m.ne], dtype=np.int64))


@pytest.mark.parametrize("marked", [[1.7], [0.0, 3.0], "ab"],
                         ids=["fraction", "whole-floats", "text"])
def test_refine_edges_rejects_non_integer_ids(marked):
    with pytest.raises(ValueError, match="edge ids must be integers"):
        refine_edges(unit_square_mesh(), marked)


def test_refine_edges_rejects_a_boolean_mask():
    m = uniform_refine(unit_square_mesh(), 1)
    mask = np.zeros(m.ne, dtype=bool)
    mask[[3, 7]] = True
    with pytest.raises(ValueError, match="edge ids must be integers"):
        refine_edges(m, mask)
    # the ids of the mask are what it means
    same, bisected = refine_edges(m, np.flatnonzero(mask))
    assert np.array_equal(bisected, refine_edges(m, [3, 7])[1])
    assert refine_edges(m, [])[0] is m


def test_ancestor_map_contains_centroids():
    coarse = lshape_mesh()
    fine = uniform_refine(coarse, 2)
    amap = ancestor_map(fine, coarse)
    cent = fine.points[fine.tri_verts[fine.live]].mean(axis=1)
    for i, anc in enumerate(amap):
        v = coarse.points[coarse.tri_verts[coarse.live[anc]]]
        T = np.column_stack([v[1] - v[0], v[2] - v[0]])
        lam = np.linalg.solve(T, cent[i] - v[0])
        assert lam.min() > -1e-12 and lam.sum() < 1 + 1e-12


def test_ancestor_map_identity():
    m = uniform_refine(unit_square_mesh())
    amap = ancestor_map(m, m)
    assert np.array_equal(amap, np.arange(m.nt))


def test_ancestor_map_rejects_divergent_lineages():
    m = unit_square_mesh()
    a, _ = refine_edges(m, [edge_id(m, 0, 1)])
    b, _ = refine_edges(m, [edge_id(m, 2, 3)])
    with pytest.raises(NotNestedError):
        ancestor_map(a, b)


def test_ancestor_map_rejects_unrelated_roots():
    with pytest.raises(NotNestedError):
        ancestor_map(uniform_refine(unit_square_mesh()), lshape_mesh())


def test_two_loads_of_one_file_nest():
    text = save_mesh(lshape_mesh())
    coarse, fine = load_mesh(text), uniform_refine(load_mesh(text), 1)
    assert np.array_equal(ancestor_map(fine, coarse),
                          np.repeat(np.arange(6), 4))


def test_ancestor_map_rejects_swapped_order():
    coarse = unit_square_mesh()
    fine = uniform_refine(coarse)
    with pytest.raises(NotNestedError):
        ancestor_map(coarse, fine)


def test_mesh_stats_square():
    m = unit_square_mesh()
    assert (m.nv, m.nt, m.ne) == (4, 2, 5)
    assert m.tri_h.max() == pytest.approx(np.sqrt(2.0))
    assert min_angle(m) == pytest.approx(45.0, abs=1e-10)
    assert m.edge_boundary.sum() == 4


def test_generation_growth_is_bounded_per_bisection():
    # one conforming bisection may cascade, but the recursion is finite and
    # the result stays conforming (constructor would raise otherwise)
    m = lshape_mesh()
    for _ in range(40):
        t = int(m.live[0])
        m = bisect(m, t)
    assert m.ne == m.nv + m.nt - 1
