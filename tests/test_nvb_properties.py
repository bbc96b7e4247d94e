"""Property tests of newest-vertex bisection over random marked-edge sets at
random depths on the three benchmark meshes, and of what rides on it: the
edge tables a refinement merges from its parent, the live positions that
edge_tri and ancestor_map give, the load data a source carries from mesh
to mesh, the exact transfer of RT and P0 fields to a refinement, and the
elementwise conservation of the solve."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from amfem.adapt import _combinatorial_check
from amfem.assembly import ProblemSpec, solve_poisson
from amfem.fespace import DofVector, RTSpace, div_matrix, prolongate, rt_affine
from amfem.mesh import (Mesh, ancestor_map, load_mesh, refine_edges,
                        save_mesh, uniform_refine)
from amfem.sources import FunctionSource, P0Source
from amfem.verify import benchmark, unit_square_mesh

BENCHMARKS = ("smooth_square", "lshape_sing", "checker_const")


def marked_edges(mesh):
    """A nonempty set of distinct edge ids of ``mesh``."""
    return st.lists(st.integers(0, mesh.ne - 1), min_size=1,
                    max_size=mesh.ne, unique=True).map(np.array)


@st.composite
def nested_meshes(draw):
    """(coarse, fine): a benchmark mesh refined uniformly 0-2 times and at
    random 0-2 times, and a random refinement of that in 1-2 steps."""
    mesh0, _ = benchmark(draw(st.sampled_from(BENCHMARKS))).make()
    coarse = uniform_refine(mesh0, draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(0, 2))):
        coarse = refine_edges(coarse, draw(marked_edges(coarse)))[0]
    fine = coarse
    for _ in range(draw(st.integers(1, 2))):
        fine = refine_edges(fine, draw(marked_edges(fine)))[0]
    return coarse, fine


def edge_keys(mesh, nv):
    return mesh.edge_verts[:, 0] * nv + mesh.edge_verts[:, 1]


def boundary_length(mesh):
    return mesh.edge_len[mesh.edge_boundary].sum()


def assert_nested(fine, coarse):
    """Each fine centroid lies in the coarse triangle ancestor_map names."""
    anc = ancestor_map(fine, coarse)
    cent = fine.points[fine.tri_verts[fine.live]].mean(axis=1)
    v = coarse.points[coarse.tri_verts[coarse.live[anc]]]
    T = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
    lam = np.linalg.solve(T, (cent - v[:, 0])[:, :, None])[:, :, 0]
    assert lam.min() > -1e-12 and lam.sum(axis=1).max() < 1 + 1e-12


def assert_refinement(coarse, fine, marked, bisected):
    # conformity: the Euler relation, and no hanging vertex (which would
    # show as extra boundary length)
    assert fine.ne == fine.nv + fine.nt - 1
    assert np.isclose(boundary_length(fine), boundary_length(coarse),
                      rtol=1e-13)
    assert np.isclose(fine.tri_area.sum(), coarse.domain_area, rtol=1e-12)
    # every marked edge is gone
    keys = edge_keys(coarse, fine.nv)[marked]
    assert not np.isin(keys, edge_keys(fine, fine.nv)).any()
    # append-only genealogy: two rows per bisection, coarse rows a prefix
    n = len(coarse.tri_verts)
    assert len(fine.tri_verts) == n + 2 * len(bisected)
    assert fine.nt == coarse.nt + len(bisected)
    assert np.array_equal(np.sort(bisected), np.flatnonzero(
        ~fine.alive & np.r_[coarse.alive, np.ones(len(fine.alive) - n, bool)]))
    for name in ("tri_verts", "tri_refedge", "tri_gen", "tri_parent"):
        assert np.array_equal(getattr(fine, name)[:n], getattr(coarse, name))
    assert np.array_equal(fine.points[:coarse.nv], coarse.points)
    assert_nested(fine, coarse)
    gone = _combinatorial_check(coarse, fine)
    assert len(gone) <= 3 * (fine.nt - coarse.nt)
    assert np.all(np.diff(gone) > 0)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(BENCHMARKS), depth=st.integers(0, 3),
       data=st.data())
def test_refine_edges_invariants(name, depth, data):
    mesh0, _ = benchmark(name).make()
    mesh = uniform_refine(mesh0, depth)
    for _ in range(data.draw(st.integers(1, 3), label="steps")):
        marked = data.draw(marked_edges(mesh), label="marked")
        fine, bisected = refine_edges(mesh, marked)
        assert_refinement(mesh, fine, marked, bisected)
        mesh = fine
    assert_nested(mesh, mesh0)


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(), data=st.data())
def test_edge_tri_and_ancestor_map_give_live_positions(meshes, reload, data):
    """Each live triangle is the left or right neighbour, by its sign, of
    its three edges, and every fine triangle's ancestor is a coarse live
    position; with and without a save/load round trip first."""
    coarse, fine = meshes
    if reload:
        coarse = load_mesh(save_mesh(coarse))
        fine = refine_edges(coarse, data.draw(marked_edges(coarse)))[0]
    for mesh in (coarse, fine):
        side = np.where(mesh.tri_sign > 0, 0, 1)
        pos = np.repeat(np.arange(mesh.nt)[:, None], 3, axis=1)
        assert np.array_equal(mesh.edge_tri[mesh.tri_edge, side], pos)
    anc = ancestor_map(fine, coarse)
    assert anc.min() >= 0 and anc.max() < coarse.nt


TABLES = ("edge_verts", "edge_tri", "edge_boundary", "edge_len", "tri_edge",
          "tri_sign", "tri_area", "tri_h", "live_pos")


def assert_tables_from_scratch(mesh):
    """The tables of ``mesh`` equal those of a mesh built from its arrays
    with no parent to merge from."""
    fresh = Mesh(mesh.points, mesh.tri_verts, mesh.tri_refedge, mesh.tri_gen,
                 mesh.tri_parent, mesh.alive)
    for name in TABLES:
        got, want = getattr(mesh, name), getattr(fresh, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(), data=st.data())
def test_merged_tables_equal_a_fresh_build(meshes, reload, data):
    coarse, fine = meshes
    if reload:
        coarse = load_mesh(save_mesh(coarse))
        fine = refine_edges(coarse, data.draw(marked_edges(coarse)))[0]
    finer = refine_edges(fine, data.draw(marked_edges(fine)))[0]
    for mesh in (coarse, fine, finer, uniform_refine(fine, 1)):
        assert_tables_from_scratch(mesh)


def test_merged_tables_equal_a_fresh_build_on_the_square():
    """The square has a single interior edge, the diagonal."""
    mesh = unit_square_mesh()
    for marked in ([0], [2], [0, 4]):
        assert_tables_from_scratch(refine_edges(mesh, marked)[0])
    for rounds in (0, 1, 2):
        assert_tables_from_scratch(uniform_refine(mesh, rounds))


def wavy_load(x, y):
    """A load with no symmetry of the benchmark domains and nonzero
    oscillation on every triangle."""
    return np.exp(x - 0.3 * y) * np.sin(3.0 * x + 2.0 * y + 0.5)


LOAD_READS = ("cell_integrals", "cell_means", "cell_osc2")


def assert_load_like_fresh(src, mesh):
    """What ``src`` gives on ``mesh`` equals a new source's first look."""
    fresh = FunctionSource(src.f)
    for name in LOAD_READS:
        got, want = getattr(src, name)(mesh), getattr(fresh, name)(mesh)
        assert np.array_equal(got, want), name


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(), data=st.data())
def test_carried_load_equals_a_fresh_evaluation(meshes, reload, data):
    """One source read along a nested sequence, back on a coarser mesh, and
    on two different refinements of one mesh in alternation."""
    coarse, fine = meshes
    if reload:
        coarse = load_mesh(save_mesh(coarse))
        fine = refine_edges(coarse, data.draw(marked_edges(coarse)))[0]
    finer = refine_edges(fine, data.draw(marked_edges(fine)))[0]
    other = refine_edges(fine, data.draw(marked_edges(fine)))[0]
    src = FunctionSource(wavy_load)
    for mesh in (coarse, fine, finer, coarse, fine, other, finer, other,
                 uniform_refine(other, 1), coarse):
        assert_load_like_fresh(src, mesh)


def test_carried_load_after_a_single_bisection():
    """A coarser mesh read after a finer one can leave a single row to
    evaluate; it must round as it does in a batch.  The square, read with
    its bottom edge as a refinement edge, splits one triangle."""
    mesh = load_mesh("amfemmesh 1\n4 2\n0 0\n1 0\n1 1\n0 1\n"
                     "0 1 2 2\n0 2 3 1\n")
    fine, bisected = refine_edges(mesh, [0])
    assert len(bisected) == 1
    rng = np.random.default_rng(0)
    for a, b, c, d, e in 3.0 * rng.standard_normal((20, 5)):
        def load(x, y):
            return np.exp(a * x + b * y) * np.sin(c * x + d * y + e)

        src = FunctionSource(load)
        for m in (fine, mesh):
            assert_load_like_fresh(src, m)


def random_values(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), seed=st.integers(0, 2 ** 32 - 1))
def test_rt_prolongation_is_exact(meshes, seed):
    """On every fine triangle the prolongated flux field has the affine
    form a0 + c x and the divergence of the coarse triangle containing it."""
    coarse, fine = meshes
    anc = ancestor_map(fine, coarse)
    values = random_values(seed, coarse.ne)
    fine_values = prolongate(DofVector("RT", values, coarse), fine).values
    for c_part, f_part in zip(rt_affine(RTSpace(coarse), values),
                              rt_affine(RTSpace(fine), fine_values)):
        assert (np.abs(f_part - c_part[anc]).max()
                <= 1e-12 * np.abs(c_part).max())
    div_c = div_matrix(RTSpace(coarse)) @ values / coarse.tri_area
    div_f = div_matrix(RTSpace(fine)) @ fine_values / fine.tri_area
    assert np.abs(div_f - div_c[anc]).max() <= 1e-12 * np.abs(div_c).max()


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), seed=st.integers(0, 2 ** 32 - 1))
def test_p0_prolongation_is_exact(meshes, seed):
    coarse, fine = meshes
    values = random_values(seed, coarse.nt)
    fine_values = P0Source(coarse, values).cell_means(fine)
    anc = ancestor_map(fine, coarse)
    assert np.array_equal(fine_values, values[anc])


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), seed=st.integers(0, 2 ** 32 - 1))
def test_solve_conserves_a_random_p0_load(meshes, seed):
    """div sigma equals the load's cell mean on every triangle, with the
    defect taken from div_matrix as the solver defines it."""
    coarse, fine = meshes
    load = P0Source(coarse, random_values(seed, coarse.nt))
    sol = solve_poisson(fine, ProblemSpec(f=load))
    B = div_matrix(RTSpace(fine))
    rhs = load.cell_integrals(fine)
    sigma = sol.sigma.values
    defect = (np.abs(B @ sigma - rhs)
              / (1.0 + np.abs(rhs) + np.abs(B) @ np.abs(sigma)))
    assert defect.max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(meshes=nested_meshes(), reload=st.booleans(), data=st.data())
def test_refinement_never_orphans_a_vertex(meshes, reload, data):
    """Every vertex of a refined mesh belongs to a live triangle, with and
    without a save/load round trip first, so the meshes refinement builds
    can skip the constructor's scan for unused vertices."""
    coarse, fine = meshes
    if reload:
        coarse = load_mesh(save_mesh(coarse))
        fine = refine_edges(coarse, data.draw(marked_edges(coarse)))[0]
    finer = refine_edges(fine, data.draw(marked_edges(fine)))[0]
    for mesh in (fine, finer, uniform_refine(fine, 1)):
        used = np.bincount(mesh.tri_verts[mesh.live].ravel(),
                           minlength=mesh.nv)
        assert used.min() > 0
