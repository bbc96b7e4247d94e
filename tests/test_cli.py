import os
import subprocess
import sys

import numpy as np
import pytest

from amfem import cli
from amfem.adapt import HISTORY_COLUMNS
from amfem.estimator import oscillation
from amfem.fespace import dof_from_text
from amfem.mesh import load_mesh
from amfem.verify import benchmark

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "solve_smooth_u3.txt")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "amfem.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def golden_summary():
    with open(GOLDEN) as fh:
        return parse_summary(fh.read().strip())


def parse_summary(line):
    out = {}
    for tok in line.split():
        if "=" in tok:
            key, val = tok.split("=", 1)
            out[key] = val
    return out


def test_solve_matches_golden(tmp_path):
    res = run_cli("solve", "--benchmark", "smooth_square",
                  "--refine-uniform", "3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    got = parse_summary(res.stdout.strip())
    want = golden_summary()
    assert got["nT"] == want["nT"] and got["nE"] == want["nE"]
    for key in ("eta2", "osc2", "err"):
        assert float(got[key]) == pytest.approx(float(want[key]), abs=1e-10)


def test_solve_writes_loadable_artifacts(tmp_path):
    res = run_cli("solve", "--benchmark", "smooth_square",
                  "--refine-uniform", "2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    mesh = load_mesh((tmp_path / "mesh.txt").read_text())
    assert mesh.nt == 32
    sigma = dof_from_text((tmp_path / "sigma.dof").read_text(), mesh)
    assert sigma.kind == "RT" and sigma.values.shape == (mesh.ne,)
    u = dof_from_text((tmp_path / "u.dof").read_text(), mesh)
    assert u.kind == "P0"
    eta_lines = (tmp_path / "eta.csv").read_text().strip().splitlines()
    assert len(eta_lines) == mesh.ne + 1
    meta = read_meta(tmp_path)
    assert meta["command"] == "solve"
    # only check reads a seed, and no command takes a thread count
    assert "seed" not in meta and "threads" not in meta
    assert meta["unused_options"] == ""


def test_solve_eta_csv_matches_golden_to_the_last_bit(tmp_path):
    """Every squared edge indicator of two uniform rounds of the L-shape,
    as ``repr(float)``."""
    res = run_cli("solve", "--benchmark", "lshape_sing", "--refine-uniform",
                  "2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    golden = os.path.join(os.path.dirname(GOLDEN), "eta_lshape_u2.csv")
    with open(golden) as fh:
        assert (tmp_path / "eta.csv").read_text() == fh.read()


def test_solve_rejects_benchmark_and_mesh_together(tmp_path):
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text("amfemmesh 1\n3 1\n0 0\n1 0\n0 1\n0 1 2 -\n")
    res = run_cli("solve", "--benchmark", "smooth_square", "--mesh",
                  str(mesh_file), "--out", str(tmp_path))
    assert res.returncode == 1


def test_solve_mesh_file_input(tmp_path):
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text("amfemmesh 1\n4 2\n0 0\n1 0\n1 1\n0 1\n"
                         "0 1 2 -\n0 2 3 -\n")
    res = run_cli("solve", "--mesh", str(mesh_file), "--refine-uniform", "1",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "nT=8" in res.stdout


def test_solve_on_a_large_square_exits_zero(tmp_path):
    """f = 1 on a square of side 1024: sigma and u grow with the side
    squared, and the solve, checked with its load scaled to unit norm,
    passes its residual checks."""
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text("amfemmesh 1\n4 2\n0 0\n1024 0\n1024 1024\n"
                         "0 1024\n0 1 2 -\n0 2 3 -\n")
    res = run_cli("solve", "--mesh", str(mesh_file), "--refine-uniform", "6",
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    assert "nT=8192" in res.stdout


def test_solve_mesh_file_is_closed(tmp_path):
    mesh_file = tmp_path / "m.txt"
    mesh_file.write_text("amfemmesh 1\n4 2\n0 0\n1 0\n1 1\n0 1\n"
                         "0 1 2 -\n0 2 3 -\n")
    res = subprocess.run([sys.executable, "-W", "error::ResourceWarning",
                          "-m", "amfem.cli", "solve", "--mesh",
                          str(mesh_file), "--out", str(tmp_path / "out")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert "ResourceWarning" not in res.stderr


def test_exit_one_on_bad_mesh(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a mesh\n")
    res = run_cli("solve", "--mesh", str(bad), "--out", str(tmp_path))
    assert res.returncode == 1
    assert "error:" in res.stderr


def test_exit_one_on_non_finite_mesh(tmp_path):
    bad = tmp_path / "nan.txt"
    bad.write_text("amfemmesh 1\n3 1\n0 0\nnan 1\n0 1\n0 1 2 -\n")
    res = run_cli("solve", "--mesh", str(bad), "--out", str(tmp_path))
    assert res.returncode == 1
    assert "line 4: non-finite coordinate" in res.stderr


def test_exit_one_on_mesh_with_non_finite_geometry(tmp_path):
    from test_mesh import HUGE_SQUARE
    bad = tmp_path / "huge.txt"
    bad.write_text(HUGE_SQUARE)
    res = run_cli("solve", "--mesh", str(bad), "--out", str(tmp_path))
    assert res.returncode == 1
    assert "triangle 0 has a non-finite area or edge length" in res.stderr
    assert "RuntimeWarning" not in res.stderr


def test_exit_one_on_disconnected_mesh(tmp_path):
    from test_mesh import RING_AND_TRIANGLE
    bad = tmp_path / "ring.txt"
    bad.write_text(RING_AND_TRIANGLE)
    res = run_cli("solve", "--mesh", str(bad), "--out", str(tmp_path / "o"))
    assert res.returncode == 1
    assert "disconnected mesh" in res.stderr
    assert not (tmp_path / "o").exists()


def test_exit_one_on_bad_config(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta 0.5\n")          # missing equals sign
    res = run_cli("adapt", "--benchmark", "checker_const", "--config",
                  str(cfg), "--out", str(tmp_path))
    assert res.returncode == 1


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta = 0.9\nepsilon = 0.3\n# a comment\n"
                   "theta-tilde = 0.4\n")
    res = run_cli("adapt", "--benchmark", "checker_const", "--config",
                  str(cfg), "--epsilon", "0.2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = (tmp_path / "run.meta").read_text()
    assert "theta=0.9" in meta              # from the config file
    assert "epsilon=0.2" in meta            # flag beats config
    assert "theta_tilde=0.4" in meta        # either spelling of the key


def test_out_env_variable(tmp_path):
    out = tmp_path / "nested"
    res = run_cli("adapt", "--benchmark", "checker_const", "--epsilon", "0.3",
                  env_extra={"AMFEM_OUT": str(out)})
    assert res.returncode == 0, res.stderr
    assert (out / "history.csv").exists()


def test_adapt_history_file(tmp_path):
    res = run_cli("adapt", "--benchmark", "checker_const", "--epsilon",
                  "0.05", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    eta2 = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert np.all(np.diff(eta2[1:]) < 0)
    assert "status=tol" in res.stdout


def test_adapt_two_stage(tmp_path):
    """Stage 2 solves with the projected load and no exact flux, so its
    history rows read osc2 = 0 and err = nan.  The summary line and osc.csv
    evaluate the final solution against the original f and sigma_exact."""
    res = run_cli("adapt", "--benchmark", "smooth_square", "--epsilon",
                  "0.3", "--two-stage", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    text = (tmp_path / "history.csv").read_text()
    assert ",approx," in text and ",amfem," in text
    row = dict(zip(HISTORY_COLUMNS, text.strip().splitlines()[-1].split(",")))
    assert row["stage"] == "amfem"
    assert float(row["osc2"]) == 0.0 and np.isnan(float(row["err"]))
    got = parse_summary(res.stdout.strip())
    assert float(got["osc2"]) > 0.0 and np.isfinite(float(got["err"]))
    mesh = load_mesh((tmp_path / "mesh.txt").read_text())
    _, problem = benchmark("smooth_square").make()
    want = oscillation(problem.f, mesh)
    lines = (tmp_path / "osc.csv").read_text().strip().splitlines()[1:]
    # one row per live triangle, in the live order mesh.txt is written in
    osc2 = np.loadtxt(lines, delimiter=",", ndmin=2)[:, 1]
    assert np.allclose(osc2, want, rtol=1e-12, atol=0.0)
    assert float(got["osc2"]) == pytest.approx(want.sum(), rel=1e-12)


def test_adapt_two_stage_records_the_stage_settings(tmp_path):
    res = run_cli("adapt", "--benchmark", "smooth_square", "--epsilon",
                  "0.3", "--two-stage", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path)
    assert meta["stage1_theta_osc"] == "0.5"
    assert meta["stage1_max_iters"] == "100"
    assert meta["stage1_epsilon"] == "0.15"
    assert meta["stage2_epsilon"] == "0.15"
    # stage 2 runs with the options given, on piecewise constant data:
    # its oscillation is zero, so theta_tilde and mu never come into play
    assert "stage2_theta_tilde" not in meta and "stage2_mu" not in meta
    assert meta["theta_tilde"] == "0.5" and meta["mu"] == "0.7"
    assert meta["unused_options"] == "mu,theta_tilde"
    # the plain loop reads theta_tilde and mu and records no stages
    res = run_cli("adapt", "--benchmark", "smooth_square", "--epsilon",
                  "0.3", "--out", str(tmp_path / "plain"))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path / "plain")
    assert meta["unused_options"] == ""
    assert not any(key.startswith("stage") for key in meta)


@pytest.mark.parametrize("mode,stages", [("uniform", {"uniform"}),
                                         ("adaptive", {"amfem"})],
                         ids=["uniform", "adaptive"])
def test_study_writes_its_driver_history(tmp_path, mode, stages):
    res = run_cli("study", "--benchmark", "smooth_square", "--mode", mode,
                  "--levels", "3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(HISTORY_COLUMNS)
    assert {line.split(",")[1] for line in lines[1:]} == stages
    if mode == "uniform":
        # one row per round, the initial mesh's included
        assert len(lines) == 5


def test_approx_command(tmp_path):
    res = run_cli("approx", "--benchmark", "smooth_square", "--epsilon",
                  "0.02", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "mesh.txt").exists()
    assert (tmp_path / "history.csv").exists()
    assert "status=tol" in res.stdout


def test_study_command(tmp_path):
    res = run_cli("study", "--benchmark", "checker_const", "--levels", "3",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "study.csv").read_text().strip().splitlines()
    assert lines[0] == "level,nT,nE,eta2,osc2,err"
    assert len(lines) == 4
    # checker_const's load is piecewise constant: no quadrature runs, and
    # with no oscillation the loop never reads theta_tilde or mu
    assert (read_meta(tmp_path)["unused_options"]
            == "mu,quad_degree,theta_tilde")


def test_uniform_study_records_the_loop_options_as_unused(tmp_path):
    res = run_cli("study", "--benchmark", "checker_const", "--mode",
                  "uniform", "--levels", "2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert read_meta(tmp_path)["unused_options"].split(",") == [
        "max_iters", "max_triangles", "mu", "quad_degree", "theta",
        "theta_tilde"]


def test_check_single_suite(tmp_path):
    res = run_cli("check", "--suite", "marking", "--seed", "5",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "check: all passed" in res.stdout
    assert (tmp_path / "check_marking.csv").exists()
    meta = read_meta(tmp_path)
    assert meta["seed"] == "5" and "quad_degree" not in meta
    assert meta["unused_options"] == ""


def test_check_records_an_unread_seed_as_unused(tmp_path):
    res = run_cli("check", "--suite", "identities", "--seed", "1",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path)
    assert meta["seed"] == "1" and meta["unused_options"] == "seed"
    assert "identities.seed" not in (tmp_path / "check_identities.csv"
                                     ).read_text()


def test_check_reports_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        res = run_cli("check", "--suite", "estimator", "--seed", "7",
                      "--out", str(d))
        assert res.returncode == 0, res.stderr
    a = (d1 / "check_estimator.csv").read_bytes()
    b = (d2 / "check_estimator.csv").read_bytes()
    assert a == b


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0


def solve_smooth_u3(tmp_path, *extra):
    res = run_cli("solve", "--benchmark", "smooth_square",
                  "--refine-uniform", "3", "--out", str(tmp_path), *extra)
    return res, parse_summary(res.stdout.strip())


def test_quad_degree_rounds_up_to_an_available_rule(tmp_path):
    # degree 3 runs the degree-4 rule, which is the default
    res, got = solve_smooth_u3(tmp_path, "--quad-degree", "3")
    assert res.returncode == 0, res.stderr
    want = golden_summary()
    for key in ("eta2", "osc2", "err"):
        assert float(got[key]) == pytest.approx(float(want[key]), abs=1e-10)
    meta = (tmp_path / "run.meta").read_text().splitlines()
    assert "quad_degree=4" in meta


def test_quad_degree_reaches_the_load(tmp_path):
    res, got = solve_smooth_u3(tmp_path, "--quad-degree", "5")
    assert res.returncode == 0, res.stderr
    assert float(got["osc2"]) == pytest.approx(0.05165912463977354,
                                               abs=1e-12)
    assert "quad_degree=5" in (tmp_path / "run.meta").read_text().splitlines()


def test_quad_degree_without_rule_is_rejected(tmp_path):
    out = tmp_path / "out"
    res, _ = solve_smooth_u3(out, "--quad-degree", "6")
    assert res.returncode == 1
    assert "degree 6" in res.stderr
    assert not out.exists()


def read_meta(outdir):
    return dict(line.split("=", 1)
                for line in (outdir / "run.meta").read_text().splitlines())


def test_run_meta_records_solver_and_peak_rss(tmp_path):
    from amfem.assembly import SOLVER
    res, _ = solve_smooth_u3(tmp_path / "solve")
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path / "solve")
    assert meta["solver"] == SOLVER
    assert float(meta["peak_rss_mb"]) > 1.0
    # 128 triangles: 176 interior edges, one multiplier each
    assert int(meta["n_multipliers"]) == 176
    assert int(meta["factor_nnz"]) > 176
    assert 0 < int(meta["factor_rows"]) < 176
    # approx never solves, so it names no solver
    res = run_cli("approx", "--benchmark", "checker_const", "--epsilon",
                  "1e-3", "--out", str(tmp_path / "approx"))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path / "approx")
    assert "solver" not in meta and float(meta["peak_rss_mb"]) > 1.0


def per_level_study(levels, **caps):
    """study.csv as the per-level loop wrote it: one adaptive run from
    scratch for every level, keeping each run's last record."""
    from amfem.adapt import AdaptParams, amfem
    from amfem.assembly import solve_poisson
    from amfem.estimator import estimate
    from amfem.sources import as_source
    from amfem.verify import benchmark
    mesh0, problem = benchmark("lshape_sing").make()
    sol0 = solve_poisson(mesh0, problem)
    eta0 = np.sqrt(estimate(sol0, as_source(problem.f)).eta2_total)
    lines = ["level,nT,nE,eta2,osc2,err"]
    for j in range(1, levels + 1):
        params = AdaptParams(epsilon=eta0 / 2.0 ** j, theta=0.3,
                             theta_tilde=0.5, mu=0.7, **caps)
        r = amfem(mesh0, problem, params)[2].records[-1]
        lines.append("%d,%d,%d,%s,%s,%s" % (j - 1, r.nT, r.nE, repr(r.eta2),
                                            repr(r.osc2), repr(r.err)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("caps", [{}, {"max_iters": 2}],
                         ids=["tol", "capped"])
def test_adaptive_study_matches_per_level_runs(tmp_path, caps):
    cfg = tmp_path / "cfg"
    cfg.write_text("".join("%s = %s\n" % kv for kv in caps.items()))
    res = run_cli("study", "--benchmark", "lshape_sing", "--levels", "3",
                  "--config", str(cfg), "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "study.csv").read_text() == per_level_study(3, **caps)


def test_study_takes_the_loop_caps_as_flags(tmp_path):
    res = run_cli("study", "--benchmark", "lshape_sing", "--levels", "3",
                  "--max-iters", "2", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert ((tmp_path / "study.csv").read_text()
            == per_level_study(3, max_iters=2))


@pytest.mark.parametrize("value,stages", [
    ("1", {"approx", "amfem"}), ("true", {"approx", "amfem"}),
    ("0", {"amfem"}), ("False", {"amfem"})])
def test_config_sets_two_stage(tmp_path, value, stages):
    cfg = tmp_path / "cfg"
    cfg.write_text("two_stage = %s\n" % value)
    res = run_cli("adapt", "--benchmark", "smooth_square", "--epsilon", "0.3",
                  "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "out" / "history.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == stages
    meta = read_meta(tmp_path / "out")
    assert meta["two_stage"] == str(stages != {"amfem"})


@pytest.mark.parametrize("command,line", [
    ("adapt", "epsilonn = 5"),          # no command declares it
    ("adapt", "levels = 9"),            # a study option
    ("approx", "max_iters = 9"),        # an adapt and study option
    ("approx", "theta = 0.9"),          # not an abbreviation of theta_osc
    ("adapt", "two_stage = yes"),       # not a boolean spelling
    ("adapt", "epsilon = small"),
    ("adapt", "config = other"),
])
def test_bad_config_key_exits_one(tmp_path, command, line):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    res = run_cli(command, "--benchmark", "checker_const", "--config",
                  str(cfg), "--out", str(out))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("adapt", "--benchmark", "nope"),
    ("adapt", "--benchmark", "checker_const", "--bogus", "1"),
    ("adapt", "--benchmark", "checker_const", "--eps", "0.3"),
    ("approx", "--benchmark", "checker_const", "--max-iters", "3"),
    ("study",),
    (),
    # the uniform study is study --mode uniform's alone
    ("adapt", "--benchmark", "smooth_square", "--uniform", "1"),
    ("study", "--benchmark", "smooth_square", "--mode", "uniform",
     "--levels", "-1"),
    ("study", "--benchmark", "smooth_square", "--mode", "uniform",
     "--levels", "0"),
    ("study", "--benchmark", "smooth_square", "--levels", "0"),
    # options that could change no output are not declared
    ("check", "--suite", "marking", "--threads", "1"),
    ("solve", "--benchmark", "smooth_square", "--seed", "0"),
    ("check", "--suite", "marking", "--quad-degree", "5"),
    # a tolerance must be finite
    ("adapt", "--benchmark", "smooth_square", "--epsilon", "nan",
     "--max-iters", "4"),
    ("adapt", "--benchmark", "smooth_square", "--epsilon", "inf"),
    ("approx", "--benchmark", "smooth_square", "--epsilon", "nan"),
    ("approx", "--benchmark", "smooth_square", "--epsilon", "inf"),
])
def test_usage_errors_exit_one(tmp_path, args):
    out = tmp_path / "out"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 1
    assert "error:" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


def test_a_key_error_inside_a_driver_is_not_a_usage_error(tmp_path,
                                                           monkeypatch):
    """Unknown --benchmark and --suite names are rejected by the parser, so
    a KeyError raised by a driver is a defect: it leaves ``main`` with its
    traceback instead of exiting 1 as a usage error."""
    def defect(*args, **kwargs):
        raise KeyError("defect")

    monkeypatch.setattr(cli, "amfem", defect)
    with pytest.raises(KeyError, match="defect"):
        cli.main(["adapt", "--benchmark", "smooth_square",
                  "--out", str(tmp_path)])


def test_two_stage_iterations_count_the_refinements(tmp_path):
    """The hand-over from stage 1 to stage 2 refines nothing: iterations
    counts the rows that refined, the last row of each stage excluded."""
    res = run_cli("adapt", "--benchmark", "smooth_square", "--epsilon",
                  "0.3", "--two-stage", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
    stages = [row.split(",")[1] for row in rows]
    # approx refines at k = 0..21 of its 23 rows, amfem at k = 0..11 of 13
    assert stages.count("approx") == 23 and stages.count("amfem") == 13
    assert read_meta(tmp_path)["iterations"] == "34"


@pytest.mark.parametrize("argv,driver", [
    (["check", "--suite", "marking"], "run_suite"),
    (["adapt", "--benchmark", "smooth_square", "--epsilon", "0.3"], "amfem"),
], ids=["check", "adapt"])
def test_a_failed_command_writes_nothing(tmp_path, monkeypatch, argv, driver):
    from amfem.assembly import SolverError

    def fail(*args, seed=0, **kwargs):     # the parser reads seed's default
        raise SolverError("injected")

    monkeypatch.setattr(cli, driver, fail)
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("argv,options", [
    (["solve"], "benchmark mesh refine_uniform quad_degree"),
    (["adapt", "--benchmark", "smooth_square"],
     "benchmark epsilon theta theta_tilde mu max_iters max_triangles "
     "two_stage quad_degree"),
    (["approx", "--benchmark", "smooth_square"],
     "benchmark epsilon theta_osc max_triangles quad_degree"),
    (["check"], "suite seed"),
    (["study", "--benchmark", "smooth_square"],
     "benchmark mode levels theta theta_tilde mu max_iters max_triangles "
     "quad_degree"),
], ids=["solve", "adapt", "approx", "check", "study"])
def test_each_command_declares_the_options_it_reads(argv, options):
    # 39 settable values in all: every command also takes --out and --config
    from amfem.cli import _build_parser
    got = set(vars(_build_parser().parse_args(argv))) - {"command"}
    assert got == {"out", "config", *options.split()}


def test_run_meta_lists_the_options_of_the_command_only(tmp_path):
    res = run_cli("approx", "--benchmark", "checker_const", "--epsilon",
                  "1e-3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path)
    for key in ("theta", "theta_tilde", "mu", "levels", "refine_uniform",
                "max_iters", "two_stage", "suite", "mode"):
        assert key not in meta
    assert meta["theta_osc"] == "0.5" and meta["max_triangles"] == "300000"
    assert meta["epsilon"] == "0.001"
    assert meta["unused_options"] == "quad_degree"


@pytest.mark.parametrize("argv,unused", [
    (("solve", "--refine-uniform", "1"), "quad_degree"),
    (("adapt", "--epsilon", "0.3"), "mu,quad_degree,theta_tilde"),
    (("approx", "--epsilon", "1e-3"), "quad_degree"),
], ids=["solve", "adapt", "approx"])
def test_a_piecewise_constant_load_records_quad_degree_as_unused(tmp_path,
                                                                  argv,
                                                                  unused):
    command, *rest = argv
    res = run_cli(command, "--benchmark", "checker_const", "--quad-degree",
                  "5", *rest, "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path)
    assert meta["quad_degree"] == "5"
    assert meta["unused_options"] == unused


@pytest.mark.parametrize("argv", [
    ("adapt", "--benchmark", "checker_const", "--epsilon", "0.05"),
    ("adapt", "--benchmark", "smooth_square", "--epsilon", "0.3",
     "--two-stage"),
    ("study", "--benchmark", "checker_const", "--levels", "2"),
], ids=["adapt", "two_stage", "study"])
def test_a_zero_oscillation_loop_records_mu_and_theta_tilde_as_unused(
        tmp_path, argv):
    """With no oscillation the loop's oscillation marking never runs: the
    history is the same for any theta_tilde and mu, and run.meta says so."""
    histories = []
    given = ("--theta-tilde", "0.95", "--mu", "0.05")
    for name, options in (("default", ()), ("given", given)):
        res = run_cli(*argv, *options, "--out", str(tmp_path / name))
        assert res.returncode == 0, res.stderr
        unused = read_meta(tmp_path / name)["unused_options"].split(",")
        assert "mu" in unused and "theta_tilde" in unused
        rows = (tmp_path / name / "history.csv").read_text().splitlines()
        histories.append([row.rsplit(",", 1)[0] for row in rows])
    assert histories[0] == histories[1]
