"""Fault injection: each fixed check of the solve and of refinement fires on
a fault it is there to catch, at unit data scale and, for the solve, with
the load scaled by 1e-12.

The solver faults go in through ``assembly.spla``, the module attribute
whose ``splu`` ``condense`` calls: a stand-in ``splu`` returns the real
factor of S', what the elimination passes leave of S, with a ``solve``
that corrupts the multipliers SuperLU solves for.  The back steps carry
the error on to the eliminated multipliers, so the residual, conservation
and finiteness checks of ``recover`` see a wrong solution of the condensed
system."""
from types import SimpleNamespace

import numpy as np
import pytest

from amfem import assembly
from amfem.adapt import _combinatorial_check
from amfem.assembly import ProblemSpec, SolverError, condense, solve_poisson
from amfem.fespace import RTSpace
from amfem.mesh import refine_edges, uniform_refine
from amfem.verify import benchmark
from test_sibling_elimination import superlu_rows


class _Corrupted:
    """A factor whose ``solve`` adds ``perturb(x)`` to its solution x."""

    def __init__(self, lu, perturb):
        self._lu, self._perturb = lu, perturb
        self.shape, self.nnz = lu.shape, lu.nnz

    def solve(self, b):
        x = self._lu.solve(b)
        return x + self._perturb(x)


def corrupt_multipliers(monkeypatch, perturb):
    splu = assembly.spla.splu
    monkeypatch.setattr(assembly, "spla", SimpleNamespace(
        splu=lambda *args, **kwargs: _Corrupted(splu(*args, **kwargs),
                                                perturb)))


def relative_noise(rel, seed=0):
    """A seeded perturbation of ``rel`` relative size, entry by entry."""
    return lambda x: rel * x * np.random.default_rng(seed).standard_normal(
        x.size)


def lshape(rounds):
    mesh0, problem = benchmark("lshape_sing").make()
    return uniform_refine(mesh0, rounds), problem


def test_failed_factorization_raises(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr(assembly, "spla", SimpleNamespace(splu=singular))
    with pytest.raises(SolverError, match="^sparse factorization failed: "
                       "Factor is exactly singular$"):
        solve_poisson(*lshape(1))


def test_residual_check_fires_on_corrupted_multipliers(monkeypatch):
    """On 6,144 triangles, multipliers off by 1e-11 relative miss the
    residual target; at 1e-13 the solve passes."""
    mesh, problem = lshape(5)
    corrupt_multipliers(monkeypatch, relative_noise(1e-13))
    sol = solve_poisson(mesh, problem)
    assert max(sol.residual_sigma, sol.residual_u) < 1e-10
    corrupt_multipliers(monkeypatch, relative_noise(1e-11))
    with pytest.raises(SolverError, match="^solve residual too large"):
        solve_poisson(mesh, problem)


def smooth_scaled(scale):
    """Five uniform rounds of the unit square and its smooth load times
    ``scale``."""
    mesh0, problem = benchmark("smooth_square").make()
    return uniform_refine(mesh0, 5), ProblemSpec(
        f=lambda x, y: scale * problem.f(x, y))


@pytest.mark.parametrize("scale", [1.0, 1e-12])
def test_residual_check_fires_at_every_data_scale(monkeypatch, scale):
    """Multipliers off by 1e-3 relative are caught whatever the size of the
    load.  ``recover`` runs its checks on the load scaled by a power of two
    to unit norm, so both kinds fire at both scales: the residuals,
    relative to 1 and to 1 + ||rhs_u||, read 4.6e-2 / 9.0e-2 at unit scale
    and 5.1e-2 / 9.5e-2 at 1e-12 (the scaled loads differ by a factor
    below 2), and the backward errors, relative to |M||sigma| + |B^T||u|
    and |B||sigma| + |rhs_u|, read 2.0e-4 / 6.1e-3 at both."""
    mesh, problem = smooth_scaled(scale)
    sol = solve_poisson(mesh, problem)
    assert max(sol.residual_sigma, sol.residual_u) < 1e-10
    corrupt_multipliers(monkeypatch, relative_noise(1e-3))
    with pytest.raises(SolverError, match="^solve residual too large"):
        solve_poisson(mesh, problem)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_multipliers_raise(monkeypatch, bad):
    corrupt_multipliers(monkeypatch, lambda x: np.where(
        np.arange(x.size) == x.size // 2, bad, 0.0))
    with pytest.raises(SolverError, match="^solver produced non-finite"):
        solve_poisson(*lshape(2))


def edge_at(mesh, midpoint):
    mid = mesh.points[mesh.edge_verts].mean(axis=1)
    return int(np.flatnonzero(np.all(mid == midpoint, axis=1))[0])


@pytest.mark.parametrize("delta, outcome", [
    (1.5e-11, None),
    (3e-11, "^conservation defect .* exceeds 1.0e-10$"),
    (6e-11, "^solve residual too large"),
])
def test_conservation_check_fires_on_its_own(monkeypatch, delta, outcome):
    """One multiplier of S' off by ``delta``: on the 24-triangle L-shape
    mesh the interior edge at (-0.75, -0.75), one of the four multipliers
    that the elimination passes leave to SuperLU, has a window in which
    the elementwise conservation check fires while both residuals pass
    (about 2.8e-11 and 6.5e-11 at delta = 3e-11, with a defect of
    1.1e-10); above it the residual check fires first, below it the solve
    passes."""
    mesh, problem = lshape(1)
    edge = edge_at(mesh, [-0.75, -0.75])
    assert not mesh.edge_boundary[edge]
    cond = condense(RTSpace(mesh))
    full = cond.L[mesh.tri_edge == edge][0]
    pos = np.flatnonzero(superlu_rows(cond) == full)    # its row of S'
    assert pos.size == 1
    corrupt_multipliers(monkeypatch, lambda x: np.where(
        np.arange(x.size) == pos[0], delta, 0.0))
    if outcome is None:
        sol = solve_poisson(mesh, problem)
        assert sol.conservation_defect < 1e-10
    else:
        with pytest.raises(SolverError, match=outcome):
            solve_poisson(mesh, problem)


def test_lost_edge_bound_fires_on_a_reversed_pair():
    mesh0, _ = benchmark("lshape_sing").make()
    coarse = uniform_refine(mesh0, 1)
    fine = refine_edges(coarse, np.arange(0, coarse.ne, 3))[0]
    assert len(_combinatorial_check(coarse, fine)) > 0
    with pytest.raises(AssertionError, match="edges vanished but only -"):
        _combinatorial_check(fine, coarse)
