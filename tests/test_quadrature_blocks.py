"""Quadrature over a mesh runs in blocks of ``quadrature.BLOCK_ROWS``
triangles.  The load records (mean and squared deviation per row) and the
flux error's per-triangle terms equal a one-batch evaluation bit for bit,
whatever the block size and however the rows fall into blocks, and what an
evaluation allocates grows with the mesh only by its per-triangle outputs.
Refinement's own transients stay below a fixed multiple of the mesh it
returns."""
import tracemalloc

import numpy as np
import pytest

from amfem import assembly, quadrature
from amfem.adapt import AdaptParams, amfem
from amfem.assembly import error_sigma, solve_poisson
from amfem.estimator import oscillation
from amfem.fespace import RTSpace
from amfem.mesh import load_mesh, uniform_refine
from amfem.sources import FunctionSource
from amfem.verify import benchmark

B = 5
ROW_COUNTS = (1, 2, B - 1, B, B + 1, 2 * B + 1)


def wavy_load(x, y):
    return np.exp(x - 0.3 * y) * np.sin(3.0 * x + 2.0 * y + 0.5)


def wavy_flux(x, y):
    return wavy_load(x, y), np.cos(2.0 * x - y) * np.exp(0.2 * y)


def strip_mesh(n, seed=0):
    """``n`` triangles in a row between two jittered lines of vertices."""
    rng = np.random.default_rng(seed)
    i = np.arange(n + 2)
    pts = np.column_stack([0.5 * i, i % 2]) + 0.1 * rng.random((n + 2, 2))
    lines = ["amfemmesh 1", "%d %d" % (n + 2, n)]
    lines += ["%r %r" % (float(x), float(y)) for x, y in pts]
    # even triangles point up, odd ones down: swap two vertices of the even
    # ones to keep every triangle counterclockwise
    lines += ["%d %d %d -" % ((t, t + 2, t + 1) if t % 2 == 0
                              else (t, t + 1, t + 2)) for t in range(n)]
    return load_mesh("\n".join(lines) + "\n")


def one_batch_dot(vals, w):
    """``vals @ w`` in a single product; a single row goes in twice, since
    numpy's one-row dot kernel rounds unlike its matrix-vector kernel."""
    if len(vals) == 1:
        return (np.repeat(vals, 2, axis=0) @ w)[:1]
    return vals @ w


def live_points(mesh):
    """(x, y) of the default rule's points on the live triangles."""
    bary, _ = quadrature.tri_rule()
    pts = bary @ mesh.points[mesh.tri_verts[mesh.live]]
    return pts[..., 0], pts[..., 1]


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_load_records_equal_one_batch(monkeypatch, n):
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", B)
    mesh = strip_mesh(n)
    assert mesh.nt == n
    mean, dev2 = FunctionSource(wavy_load)._records(mesh)
    _, w = quadrature.tri_rule()
    vals = wavy_load(*live_points(mesh))
    want_mean = one_batch_dot(vals, w)
    assert np.array_equal(mean, want_mean)
    want_dev2 = one_batch_dot((vals - want_mean[:, None]) ** 2, w)
    assert np.array_equal(dev2, want_dev2)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_flux_error_terms_equal_one_batch(monkeypatch, n):
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", B)
    mesh = strip_mesh(n)
    rng = np.random.default_rng(n)
    a0, c = rng.standard_normal((n, 2)), rng.standard_normal(n)
    got = assembly._quad_norm2_diff(RTSpace(mesh), a0, c, wavy_flux)
    _, w = quadrature.tri_rule()
    x, y = live_points(mesh)
    tx, ty = wavy_flux(x, y)
    d2 = ((tx - (a0[:, None, 0] + c[:, None] * x)) ** 2
          + (ty - (a0[:, None, 1] + c[:, None] * y)) ** 2)
    assert np.array_equal(got, one_batch_dot(d2, w) * mesh.tri_area)


def test_error_and_oscillation_on_a_loop_mesh_ignore_the_block_size(
        monkeypatch):
    """A mesh of the seed-0 ``adapt_lshape`` loop (epsilon 0.04, theta 0.3),
    stopped after 20 steps at 4,672 triangles: the loop's own flux error, a
    fresh one, and the oscillation are the same at block sizes from one row
    to the whole mesh."""
    mesh0, problem = benchmark("lshape_sing").make()
    mesh, sol, hist = amfem(mesh0, problem, AdaptParams(
        epsilon=0.04, theta=0.3, max_iters=20))
    err = error_sigma(sol, problem.sigma_exact)
    osc = oscillation(problem.f, mesh)
    assert mesh.nt == 4672 and err == hist.records[-1].err
    for rows in (1, 2, 7, 1000, mesh.nt):
        monkeypatch.setattr(quadrature, "BLOCK_ROWS", rows)
        assert error_sigma(sol, problem.sigma_exact) == err
        assert np.array_equal(oscillation(problem.f, mesh), osc)


def traced_peak(fn):
    """Bytes ``fn()`` allocates at its peak above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_quadrature_transients_do_not_grow_with_the_mesh(monkeypatch):
    """On meshes of 6 and 24 blocks, each added triangle costs the load and
    the flux error at most 100 bytes: the per-triangle outputs and records.
    A one-batch evaluation holds its point values, about 700 bytes per
    triangle."""
    monkeypatch.setattr(quadrature, "BLOCK_ROWS", 256)
    mesh0, problem = benchmark("lshape_sing").make()
    small, big = uniform_refine(mesh0, 4), uniform_refine(mesh0, 5)
    assert (small.nt, big.nt) == (6 * 256, 24 * 256)
    peaks = []
    for mesh in (small, big):
        sol = solve_poisson(mesh, problem)
        src = FunctionSource(problem.f)
        peaks.append((traced_peak(lambda: src.cell_integrals(mesh)),
                      traced_peak(lambda: error_sigma(sol,
                                                      problem.sigma_exact))))
    for p_small, p_big in zip(*peaks):
        assert p_big - p_small < 100 * (big.nt - small.nt)


def mesh_bytes(mesh):
    return sum(v.nbytes for v in vars(mesh).values()
               if isinstance(v, np.ndarray))


def test_refinement_transients_stay_below_twice_the_mesh():
    """The peak of a uniform round is 1.8 times the bytes of the mesh it
    returns; with the levels' parts and each table stage's temporaries kept
    alive together it was 3.9 times."""
    mesh0, _ = benchmark("lshape_sing").make()
    mesh = uniform_refine(mesh0, 4)
    fine = []
    peak = traced_peak(lambda: fine.append(uniform_refine(mesh, 1)))
    assert peak < 2.0 * mesh_bytes(fine[0])
