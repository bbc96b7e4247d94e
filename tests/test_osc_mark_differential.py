"""The array-based ``osc_mark`` against the per-edge reference in
``osc_mark_reference``: the marked edges must be equal, in the same order,
for random oscillation vectors (with exact ties and zeros) and random
existing marked sets."""
import numpy as np
import pytest

import osc_mark_reference as ref
from amfem.adapt import osc_mark
from amfem.mesh import refine_edges, uniform_refine
from amfem.verify import benchmark

BENCHMARKS = ("smooth_square", "lshape_sing", "checker_const")


def meshes(name, rng):
    """The benchmark mesh, two uniform refinements of it and a local one."""
    mesh, _ = benchmark(name).make()
    out = [mesh, uniform_refine(mesh, 1), uniform_refine(mesh, 3)]
    fine = out[-1]
    marked = rng.choice(fine.ne, size=fine.ne // 10, replace=False)
    out.append(refine_edges(fine, marked)[0])
    return out


def osc2_vectors(nt, rng):
    """Continuous values with zeros, and dyadic values whose sums tie
    exactly, so the tie rule of the heap is exercised."""
    cont = rng.uniform(0.0, 1.0, nt)
    cont[rng.random(nt) < 0.3] = 0.0
    dyadic = rng.choice([0.0, 0.25, 0.5, 1.0], size=nt)
    sparse = np.zeros(nt)
    sparse[rng.choice(nt, size=max(1, nt // 20), replace=False)] = 1.0
    return [cont, dyadic, sparse, np.zeros(nt)]


def marked_sets(ne, rng):
    yield None
    yield np.empty(0, dtype=np.int64)
    for size in (1, max(1, ne // 8)):
        yield rng.choice(ne, size=size, replace=False)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_marks_match_reference(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    calls = 0
    for mesh in meshes(name, rng):
        for osc2 in osc2_vectors(mesh.nt, rng):
            for marked in marked_sets(mesh.ne, rng):
                for theta in (0.0, float(rng.uniform(0.05, 0.95)), 1.0):
                    got = osc_mark(mesh, osc2, theta, marked)
                    want = ref.osc_mark(mesh, osc2, theta, marked)
                    assert got.dtype == np.int64
                    assert got.tolist() == want.tolist()
                    calls += 1
    assert calls > 100


@pytest.mark.parametrize("kind", ("continuous", "dyadic"))
def test_marks_match_reference_past_one_block(kind):
    """Thousands of edges: the sorted stream of initial keys is read across
    many conversion blocks, interleaved with re-ranked entries."""
    mesh = uniform_refine(benchmark("smooth_square").make()[0], 6)
    rng = np.random.default_rng(6)
    cont, dyadic = osc2_vectors(mesh.nt, rng)[:2]
    osc2 = cont if kind == "continuous" else dyadic
    for theta in (0.5, 0.95):
        got = osc_mark(mesh, osc2, theta)
        want = ref.osc_mark(mesh, osc2, theta)
        assert len(want) > 400
        assert got.tolist() == want.tolist()

