import dataclasses
import itertools
import os
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from amfem.adapt import (AdaptParams, ConvergenceHistory, HISTORY_COLUMNS,
                         amfem, approx, dorfler_mark, osc_mark, two_stage)
from amfem.assembly import ProblemSpec
from amfem.mesh import Mesh, uniform_refine
from amfem.sources import P0Source, as_source
from amfem.verify import (benchmark, lshape_f, lshape_mesh, smooth_f,
                          unit_square_mesh)


def brute_force_minimum_cards(eta2, theta):
    """Smallest subset size reaching theta * total, by exhaustion."""
    total = eta2.sum()
    n = len(eta2)
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            if eta2[list(combo)].sum() >= theta * total - 1e-12:
                return k
    return n


def test_dorfler_known_profile():
    eta2 = np.array([9.0, 4.0, 1.0, 1.0, 1.0])
    ms = dorfler_mark(eta2, theta=0.5)
    assert ms.dtype == np.int64
    assert ms.tolist() == [0]
    assert eta2[ms].sum() / eta2.sum() == pytest.approx(9.0 / 16.0)


def test_dorfler_feasible_and_tight():
    # on larger sets exhaustion is out of reach; check feasibility plus
    # tightness instead: the set reaches the target and dropping its
    # smallest member falls below it, which pins minimal cardinality for
    # sorted prefixes
    rng = np.random.default_rng(12)
    m = uniform_refine(unit_square_mesh())   # 16 edges
    for trial in range(25):
        eta2 = rng.uniform(0.0, 1.0, m.ne) ** 2
        theta = float(rng.uniform(0.05, 0.95))
        ms = dorfler_mark(eta2, theta)
        total = eta2.sum()
        got = eta2[ms].sum()
        assert got >= theta * total - 1e-12
        if len(ms) > 0:
            smallest = min(eta2[ms])
            assert got - smallest < theta * total


def test_dorfler_small_case_true_brute_force():
    rng = np.random.default_rng(3)
    m = unit_square_mesh()   # 5 edges keeps exhaustion cheap
    for _ in range(20):
        eta2 = rng.uniform(0.0, 2.0, m.ne)
        theta = float(rng.uniform(0.1, 0.9))
        ms = dorfler_mark(eta2, theta)
        assert len(ms) == brute_force_minimum_cards(eta2, theta)


def test_dorfler_theta_one_marks_all():
    m = unit_square_mesh()
    ms = dorfler_mark(np.ones(m.ne), 1.0)
    assert len(ms) == m.ne


def test_dorfler_zero_total_marks_nothing():
    m = unit_square_mesh()
    ms = dorfler_mark(np.zeros(m.ne), 0.5)
    assert ms.dtype == np.int64 and len(ms) == 0


def test_dorfler_ties_resolved_by_edge_id():
    m = unit_square_mesh()
    ms = dorfler_mark(np.ones(m.ne), 0.4)
    assert ms.tolist() == [0, 1]


def test_osc_mark_reaches_target_share():
    m = uniform_refine(unit_square_mesh(), 2)
    rng = np.random.default_rng(7)
    osc2 = rng.uniform(0.0, 1.0, m.nt)
    for tt in (0.3, 0.5, 0.9):
        ms = osc_mark(m, osc2, theta_tilde=tt)
        assert ms.dtype == np.int64
        covered = set()
        for e in ms:
            tl, tr = m.edge_tri[e]
            covered.update(t for t in (tl, tr) if t >= 0)
        pos = np.array(sorted(covered), dtype=np.int64)
        assert osc2[pos].sum() >= tt * tt * osc2.sum() - 1e-12


def test_osc_mark_zero_oscillation_marks_nothing():
    m = unit_square_mesh()
    ms = osc_mark(m, np.zeros(m.nt), theta_tilde=0.7)
    assert ms.dtype == np.int64 and len(ms) == 0


def test_markers_take_array_likes():
    eta2 = [9.0, 4.0, 1.0, 1.0, 1.0]
    assert dorfler_mark(eta2, 0.5).tolist() == [0]
    assert np.array_equal(dorfler_mark(eta2, 0.5),
                          dorfler_mark(np.array(eta2), 0.5))
    m = uniform_refine(unit_square_mesh(), 1)
    osc2 = np.random.default_rng(3).uniform(0.0, 1.0, m.nt)
    assert np.array_equal(osc_mark(m, osc2.tolist(), 0.5),
                          osc_mark(m, osc2, 0.5))


@pytest.mark.parametrize("bad", [np.nan, -5.0, np.inf, -np.inf])
def test_markers_reject_a_non_finite_or_negative_indicator(bad):
    with pytest.raises(ValueError, match="eta2 must be finite and "
                       "nonnegative"):
        dorfler_mark(np.array([1.0, bad, 2.0]), 0.5)
    m = unit_square_mesh()
    with pytest.raises(ValueError, match="osc2 must be finite"):
        osc_mark(m, np.full(m.nt, bad), 0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        AdaptParams(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        AdaptParams(theta=1.5).validate()
    with pytest.raises(ValueError):
        AdaptParams(theta_tilde=-0.1).validate()
    with pytest.raises(ValueError):
        AdaptParams(mu=0.0).validate()
    AdaptParams().validate()


@pytest.mark.parametrize("cap", ["max_iters", "max_triangles"])
def test_a_nan_cap_is_rejected(cap):
    # every comparison with nan is false: a cap of nan would never stop
    with pytest.raises(ValueError, match="bad stopping parameters"):
        AdaptParams(**{cap: np.nan}).validate()
    if cap == "max_triangles":
        with pytest.raises(ValueError, match="max_triangles must be at least"):
            approx(smooth_f, unit_square_mesh(), 1e-2, max_triangles=np.nan)


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_non_finite_tolerance_is_rejected(eps):
    # nan <= 0 is false: a sign test alone would let nan through
    with pytest.raises(ValueError, match="epsilon must be finite"):
        AdaptParams(epsilon=eps).validate()
    with pytest.raises(ValueError, match="epsilon must be finite"):
        approx(smooth_f, unit_square_mesh(), eps)


def test_amfem_zero_load_stops_immediately():
    m = unit_square_mesh()
    prob = ProblemSpec(f=lambda x, y: np.zeros_like(x))
    mesh, sol, hist = amfem(m, prob, AdaptParams(epsilon=1e-6))
    assert hist.status == "tol"
    assert len(hist.records) == 1
    assert mesh.nt == 2
    assert np.max(np.abs(sol.sigma.values)) < 1e-12


def test_amfem_checker_converges_monotonically():
    mesh0, prob = benchmark("checker_const").make()
    mesh, sol, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.05))
    assert hist.status == "tol"
    eta2 = hist.column("eta2")
    assert np.sqrt(eta2[-1]) < 0.05
    assert np.all(np.diff(eta2[1:]) < 0.0)
    assert hist.gamma_hat() < 0.95
    # P0 data on the root mesh oscillates nowhere
    assert np.all(hist.column("osc2") == 0.0)


def test_amfem_tolerance_means_final_eta():
    mesh0, prob = benchmark("smooth_square").make()
    eps = 0.3
    mesh, sol, hist = amfem(mesh0, prob, AdaptParams(epsilon=eps))
    assert hist.status == "tol"
    assert np.sqrt(hist.records[-1].eta2) < eps
    # the true flux error sits well below the indicator
    from amfem.assembly import error_sigma
    from amfem.verify import smooth_sigma
    assert error_sigma(sol, smooth_sigma) < eps


def test_amfem_cap_status():
    mesh0, prob = benchmark("lshape_sing").make()
    pars = AdaptParams(epsilon=1e-9, max_triangles=40)
    mesh, sol, hist = amfem(mesh0, prob, pars)
    assert hist.status == "capped"
    assert mesh.nt >= 40


def test_amfem_iteration_cap():
    mesh0, prob = benchmark("lshape_sing").make()
    pars = AdaptParams(epsilon=1e-9, max_iters=3)
    mesh, sol, hist = amfem(mesh0, prob, pars)
    assert hist.status == "capped"
    assert len(hist.records) == 4


def test_amfem_combinatorial_monitor():
    mesh0, prob = benchmark("lshape_sing").make()
    pars = AdaptParams(epsilon=0.3, theta=0.3)
    mesh, sol, hist = amfem(mesh0, prob, pars, monitors=True)
    n_gone = hist.monitors["n_gone"]
    nTs = hist.column("nT")
    assert len(n_gone) == len(nTs) - 1
    for k, gone in enumerate(n_gone):
        assert gone <= 3 * (nTs[k + 1] - nTs[k])
    ratios = hist.monitors["upper_ratio"]
    assert len(ratios) == len(n_gone)
    assert max(ratios) < 10.0
    # triangles in the patches of each step's marked edges
    n_patch = hist.monitors["n_patch"]
    n_marked = hist.column("n_marked")
    assert len(n_patch) == len(n_gone)
    for k, count in enumerate(n_patch):
        assert 0 < count <= 2 * n_marked[k]


def test_amfem_without_monitors_records_none():
    mesh0, prob = benchmark("lshape_sing").make()
    _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.3))
    assert len(hist.records) > 2
    assert hist.monitors == {"upper_ratio": [], "n_gone": [], "n_patch": []}


def test_approx_reduces_oscillation_to_tolerance():
    m0 = unit_square_mesh()
    eps = 5e-3
    mesh, hist = approx(smooth_f, m0, eps)
    assert hist.status == "tol"
    assert np.sqrt(hist.records[-1].osc2) < eps
    assert np.all(np.diff(hist.column("nT")) > 0)
    assert all(r.stage == "approx" for r in hist.records)


def test_approx_at_theta_one_covers_all_oscillation():
    # the picks' running sum may end a few ulps short of theta^2 times
    # the pairwise total; covering every triangle still meets the target
    mesh, hist = approx(smooth_f, unit_square_mesh(), 1e-2, theta_osc=1.0)
    assert hist.status == "tol"
    assert np.sqrt(hist.records[-1].osc2) <= 1e-2


def test_approx_ladder_matches_golden():
    """The whole greedy ladder of one ``approx`` run: counts per step and
    the oscillation to the last bit, against a recorded run."""
    path = os.path.join(os.path.dirname(__file__), "golden",
                        "approx_smooth_2e-3.csv")
    with open(path) as fh:
        want = fh.read().splitlines()
    mesh, hist = approx(smooth_f, benchmark("smooth_square").make()[0], 2e-3)
    got = [want[0]] + ["%d,%d,%d,%d,%d,%r" % (
        r.k, r.nT, r.nE, r.n_marked, r.n_bisected, float(r.osc2))
        for r in hist.records]
    assert hist.status == "tol" and mesh.nt == 15264
    assert got == want


GOLDEN_AMFEM = os.path.join(os.path.dirname(__file__), "golden",
                            "amfem_lshape_0.1.csv")


def monitored_amfem_rows():
    """The status and the rows, as recorded in ``GOLDEN_AMFEM``, of one
    monitored ``amfem`` run on ``lshape_sing`` (epsilon 0.1, theta 0.3):
    every history column but wall_ms, and the three monitors, which compare
    a row's mesh with the previous row's."""
    mesh0, prob = benchmark("lshape_sing").make()
    _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.1, theta=0.3),
                       monitors=True)
    names = ("upper_ratio", "n_gone", "n_patch")
    rows = ["k,stage,nT,nE,eta2,osc2,err,n_marked,n_bisected,"
            + ",".join(names)]
    for i, r in enumerate(hist.records):
        rows.append(",".join(
            ["%d" % r.k, r.stage, "%d" % r.nT, "%d" % r.nE,
             repr(float(r.eta2)), repr(float(r.osc2)), repr(float(r.err)),
             "%d" % r.n_marked, "%d" % r.n_bisected]
            + [repr(hist.monitors[m][i - 1]) if i else "" for m in names]))
    return hist.status, rows


def test_monitored_amfem_matches_golden():
    """A monitored ``amfem`` run to the last bit, against a recorded run."""
    with open(GOLDEN_AMFEM) as fh:
        want = fh.read().splitlines()
    status, got = monitored_amfem_rows()
    assert status == "tol"
    assert got == want


def test_approx_p0_source_on_own_mesh_is_noop():
    m0 = unit_square_mesh()
    src = P0Source(m0, np.array([1.0, -1.0]))
    mesh, hist = approx(src, m0, 1e-12)
    assert mesh.nt == m0.nt
    assert len(hist.records) == 1
    assert hist.records[0].osc2 == 0.0


def test_two_stage_matches_plain_loop_on_p0_data():
    # checker data has zero oscillation, so stage one is a no-op and stage
    # two must reproduce the plain loop run at half the tolerance with the
    # oscillation branch disabled
    mesh0, prob = benchmark("checker_const").make()
    eps = 0.1
    pars = AdaptParams(epsilon=eps, theta=0.3)
    mesh_a, sol_a, hist_a = two_stage(prob.f, mesh0, pars)
    ref_pars = AdaptParams(epsilon=eps / 2.0, theta=0.3, theta_tilde=0.0,
                           mu=1.0)
    mesh_b, sol_b, hist_b = amfem(mesh0, prob, ref_pars)
    a = [r for r in hist_a.records if r.stage == "amfem"]
    assert hist_a.status == "tol"
    assert len(a) == len(hist_b.records)
    assert mesh_a.nt == mesh_b.nt
    for ra, rb in zip(a, hist_b.records):
        assert ra.eta2 == pytest.approx(rb.eta2, rel=1e-12, abs=1e-300)


def test_two_stage_validates_before_its_first_stage(monkeypatch):
    from amfem import adapt
    calls = []
    monkeypatch.setattr(adapt, "approx",
                        lambda *a, **kw: calls.append(a) or approx(*a, **kw))
    mesh0, prob = benchmark("smooth_square").make()
    with pytest.raises(ValueError, match="theta must lie"):
        two_stage(prob.f, mesh0, AdaptParams(epsilon=0.01, theta=5.0))
    assert calls == []


def test_two_stage_smooth_runs_both_stages():
    mesh0, prob = benchmark("smooth_square").make()
    mesh, sol, hist = two_stage(prob.f, mesh0, AdaptParams(epsilon=0.25))
    stages = [r.stage for r in hist.records]
    assert "approx" in stages and "amfem" in stages
    # approx rows come first, never interleaved
    assert stages.index("amfem") == stages.count("approx")
    assert "approx" not in stages[stages.index("amfem"):]
    assert hist.status == "tol"
    assert np.sqrt(hist.records[-1].eta2) < 0.25 / 2.0
    # stage one rows carry no estimator value
    assert all(np.isnan(r.eta2) for r in hist.records if r.stage == "approx")


def without_wall_ms(hist):
    return [row.rsplit(",", 1)[0] for row in hist.to_csv().splitlines()]


@pytest.mark.parametrize("name,eps", [("smooth_square", 0.3),
                                      ("lshape_sing", 0.2)])
def test_two_stage_runs_stage_two_with_the_users_params(name, eps):
    # stage two's data is piecewise constant, so its oscillation is zero on
    # every mesh and the user's theta_tilde and mu cannot change its marks
    mesh0, prob = benchmark(name).make()
    params = AdaptParams(epsilon=eps, theta=0.4, theta_tilde=0.9, mu=0.2)
    mesh, sol, hist = two_stage(prob.f, mesh0, params)
    src = as_source(prob.f)
    mesh_h, want = approx(src, mesh0, eps / 2.0,
                          max_triangles=params.max_triangles)
    fh = P0Source(mesh_h, src.cell_means(mesh_h))
    mesh_b, sol_b, hist_b = amfem(mesh_h, ProblemSpec(f=fh),
                                  dataclasses.replace(params,
                                                      epsilon=eps / 2.0))
    want.extend(hist_b)
    assert {r.stage for r in hist.records} == {"approx", "amfem"}
    assert all(r.osc2 == 0.0 for r in hist.records if r.stage == "amfem")
    assert without_wall_ms(hist) == without_wall_ms(want)
    assert hist.status == want.status == "tol"
    assert mesh.nt == mesh_b.nt
    assert np.array_equal(sol.sigma.values, sol_b.sigma.values)


def test_history_csv_layout():
    mesh0, prob = benchmark("checker_const").make()
    _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.2))
    text = hist.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert len(lines) == len(hist.records) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "amfem"
    # eta2 column round-trips through repr
    assert float(first[4]) == hist.records[0].eta2


def test_history_extend_and_column():
    h1 = ConvergenceHistory()
    h1.add(k=0, stage="a", nT=1, nE=1, eta2=1.0, osc2=0.0, err=np.nan,
           n_marked=0, n_bisected=0, wall_ms=0.1)
    h2 = ConvergenceHistory()
    h2.add(k=0, stage="b", nT=2, nE=2, eta2=0.5, osc2=0.0, err=np.nan,
           n_marked=1, n_bisected=2, wall_ms=0.2)
    h2.status = "tol"
    h1.extend(h2)
    assert h1.status == "tol"
    assert np.array_equal(h1.column("nT"), [1, 2])


def test_gamma_hat_geometric_mean():
    h = ConvergenceHistory()
    for k, e2 in enumerate([1.0, 0.5, 0.25, 0.125]):
        h.add(k=k, stage="amfem", nT=k + 1, nE=k + 1, eta2=e2, osc2=0.0,
              err=np.nan, n_marked=1, n_bisected=1, wall_ms=0.0)
    assert h.gamma_hat() == pytest.approx(np.sqrt(0.5), rel=1e-12)


class CountingLoad:
    """Vectorized load that records the size of every evaluation."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x, y):
        self.calls.append(x.size)
        return self.f(x, y)


def record_meshes(monkeypatch, mesh0):
    """The meshes a driver visits, starting with ``mesh0``: every mesh
    that ``refine_edges`` returns to the adaptive drivers is appended."""
    from amfem import adapt
    meshes = [mesh0]
    real = adapt.refine_edges

    def recording(mesh, marked):
        out = real(mesh, marked)
        meshes.append(out[0])
        return out

    monkeypatch.setattr(adapt, "refine_edges", recording)
    return meshes


def assert_load_once_per_row(calls, meshes):
    """One evaluation per mesh, of 6 points on each row that is live there
    and was not live on the previous mesh; 6 points per row in total."""
    new = [meshes[0].nt] + [np.setdiff1d(m.live, p.live).size
                            for p, m in zip(meshes, meshes[1:])]
    assert calls == [6 * n for n in new]
    ever = np.unique(np.concatenate([m.live for m in meshes]))
    assert sum(calls) == 6 * ever.size


def test_amfem_evaluates_load_once_per_row(monkeypatch):
    mesh0, prob = benchmark("lshape_sing").make()
    meshes = record_meshes(monkeypatch, mesh0)
    load = CountingLoad(prob.f)
    prob = ProblemSpec(f=load, sigma_exact=prob.sigma_exact)
    _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.3), monitors=True)
    assert len(hist.records) > 2
    assert len(meshes) == len(hist.records)
    assert_load_once_per_row(load.calls, meshes)


def test_approx_evaluates_load_once_per_row(monkeypatch):
    mesh0, _ = benchmark("smooth_square").make()
    meshes = record_meshes(monkeypatch, mesh0)
    load = CountingLoad(smooth_f)
    _, hist = approx(load, mesh0, 2e-3)
    assert len(hist.records) > 2
    assert len(meshes) == len(hist.records)
    assert_load_once_per_row(load.calls, meshes)


def test_approx_rejects_a_non_finite_load():
    mesh0, _ = benchmark("smooth_square").make()
    with pytest.raises(ValueError, match="not finite .* of triangle 0$"):
        approx(lambda x, y: np.where(x > 0.9, np.nan, 1.0), mesh0, 1e-3)


def test_amfem_builds_one_mass_per_mesh(monkeypatch):
    """The local masses M_T are computed once per mesh: the solve's checks
    compute them, and the upper_ratio monitor reads them from the same
    space."""
    from amfem import fespace
    built = []
    real = fespace.RTSpace.mass_blocks

    def counting(space):
        if space._M is None:
            built.append(space.mesh.nt)
        return real(space)

    monkeypatch.setattr(fespace.RTSpace, "mass_blocks", counting)
    mesh0, prob = benchmark("lshape_sing").make()
    _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.3), monitors=True)
    assert built == list(hist.column("nT"))


@pytest.mark.parametrize("driver", ["amfem", "uniform_study", "pythagoras"])
def test_solve_and_monitor_path_builds_no_sparse_matrix(monkeypatch, driver):
    """A monitored ``amfem`` run, ``uniform_study`` and the flux error
    against a finer solution (the Pythagoras check) read the element
    blocks only: none builds the sparse divergence B."""
    from amfem import adapt, assembly, fespace, verify

    def forbidden(space):
        raise AssertionError("sparse matrix built on the solve path")

    for module in (adapt, assembly, fespace, verify):
        if hasattr(module, "div_matrix"):
            monkeypatch.setattr(module, "div_matrix", forbidden)
    mesh0, prob = benchmark("lshape_sing").make()
    if driver == "amfem":
        _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.3),
                           monitors=True)
        assert len(hist.records) > 2
    elif driver == "uniform_study":
        assert len(verify.uniform_study(mesh0, prob, 3).records) == 4
    else:
        assert verify.check_pythagoras()[0].passed


@pytest.mark.parametrize("driver", ["amfem", "uniform_study"])
def test_only_the_factored_mesh_is_alive_at_each_factor(monkeypatch, driver):
    """When SuperLU factors S, every mesh the run made before the one being
    factored is gone, and nothing the checks after the factor read exists
    yet: no space holds local masses.  The caller's initial mesh is the
    caller's to keep."""
    from amfem import assembly, mesh, verify
    mesh0, prob = benchmark("lshape_sing").make()
    made, spaces, factored = [], [], []
    init, condense, splu = mesh.Mesh.__init__, assembly.condense, \
        assembly.spla.splu

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    def recording_condense(space):
        spaces.append(weakref.ref(space))
        return condense(space)

    def checking_splu(*args, **kwargs):
        space = spaces[-1]()
        alive = [m() for m in made]
        assert all(m is None or m is space.mesh for m in alive)
        assert all(s() is None or s()._M is None for s in spaces)
        factored.append(space.mesh.nt)
        return splu(*args, **kwargs)

    monkeypatch.setattr(mesh.Mesh, "__init__", recording_init)
    monkeypatch.setattr(assembly, "condense", recording_condense)
    monkeypatch.setattr(assembly, "spla",
                        SimpleNamespace(splu=checking_splu))
    if driver == "amfem":
        _, _, hist = amfem(mesh0, prob, AdaptParams(epsilon=0.3),
                           monitors=True)
    else:
        hist = verify.uniform_study(mesh0, prob, 3)
    assert len(factored) == len(hist.records) > 2


def test_the_loop_is_exact_under_powers_of_two(monkeypatch):
    """The ``lshape_sing`` load times 2^a on the L-shape scaled by L = 2^b,
    the load read at x / L, with the tolerance times 2^(a + 2b): the loop
    marks the same edges and visits the same meshes.  sigma and u (fluxes
    through edges and cell values) scale by 2^(a + 2b), the squared
    indicators and oscillation by 2^(2a + 4b), all to the last bit."""
    from amfem import adapt
    marks = []
    real = adapt.refine_edges

    def recording(mesh, marked):
        marks[-1].append(marked)
        return real(mesh, marked)

    monkeypatch.setattr(adapt, "refine_edges", recording)
    base, problem = benchmark("lshape_sing").make()

    def run(a, b):
        scale, L = 2.0 ** a, 2.0 ** b
        mesh0 = Mesh(base.points * L, base.tri_verts, base.tri_refedge,
                     base.tri_gen, base.tri_parent, base.alive)
        f = lambda x, y: scale * problem.f(x / L, y / L)    # noqa: E731
        marks.append([])
        _, sol, hist = amfem(mesh0, ProblemSpec(f=f),
                             AdaptParams(epsilon=0.2 * scale * L * L))
        return sol, hist, marks[-1]

    sol, hist, marked = run(0, 0)
    assert len(marked) >= 10
    for a, b in [(40, 0), (-40, 0), (0, 10), (0, -10)]:
        sol_s, hist_s, marked_s = run(a, b)
        assert len(marked_s) == len(marked)
        assert all(np.array_equal(m, m_s) for m, m_s in zip(marked, marked_s))
        assert np.array_equal(hist_s.column("nT"), hist.column("nT"))
        for name, p in (("eta2", 2 * a + 4 * b), ("osc2", 2 * a + 4 * b)):
            assert np.array_equal(hist_s.column(name),
                                  np.ldexp(hist.column(name), p))
        for field in ("sigma", "u"):
            assert np.array_equal(getattr(sol_s, field).values,
                                  np.ldexp(getattr(sol, field).values,
                                           a + 2 * b))
