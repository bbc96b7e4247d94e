import os
import subprocess
import sys

import numpy as np
import pytest

from amfem.adapt import HISTORY_COLUMNS
from amfem.fespace import dof_from_text
from amfem.mesh import load_mesh

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "solve_smooth_u3.txt")


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "amfem.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


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
    want = parse_summary(open(GOLDEN).read().strip())
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
    meta = (tmp_path / "run.meta").read_text()
    assert "command=solve" in meta
    assert "seed=0" in meta and "threads=1" in meta


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


def test_exit_one_on_bad_config(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("theta 0.5\n")          # missing equals sign
    res = run_cli("adapt", "--benchmark", "checker_const", "--config",
                  str(cfg), "--out", str(tmp_path))
    assert res.returncode == 1


def test_exit_one_on_bad_threads(tmp_path):
    res = run_cli("check", "--suite", "marking", "--threads", "0",
                  "--out", str(tmp_path))
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
    res = run_cli("adapt", "--benchmark", "smooth_square", "--epsilon",
                  "0.3", "--two-stage", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    text = (tmp_path / "history.csv").read_text()
    assert ",approx," in text and ",amfem," in text


def test_adapt_uniform_mode(tmp_path):
    res = run_cli("adapt", "--benchmark", "smooth_square", "--uniform", "3",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    assert "status=uniform" in res.stdout


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


def test_check_single_suite(tmp_path):
    res = run_cli("check", "--suite", "marking", "--seed", "5",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    assert "check: all passed" in res.stdout
    assert (tmp_path / "check_marking.csv").exists()


def test_check_reports_are_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        res = run_cli("check", "--suite", "estimator", "--seed", "7",
                      "--threads", "1", "--out", str(d))
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
    want = parse_summary(open(GOLDEN).read().strip())
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


def test_threads_is_recorded_as_unused(tmp_path):
    res = run_cli("check", "--suite", "marking", "--threads", "1",
                  "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path)
    assert meta["threads"] == "1"
    assert "threads" in meta["unused_options"].split(",")
    help_text = run_cli("check", "--help").stdout
    assert "no effect" in " ".join(help_text.split())


def read_meta(outdir):
    return dict(line.split("=", 1)
                for line in (outdir / "run.meta").read_text().splitlines())


def test_check_records_quad_degree_as_unused(tmp_path):
    res = run_cli("check", "--suite", "marking", "--quad-degree", "5",
                  "--out", str(tmp_path / "check"))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path / "check")
    assert meta["quad_degree"] == "5"
    assert meta["unused_options"] == "quad_degree,threads"
    # a command that integrates the load uses the degree
    res, _ = solve_smooth_u3(tmp_path / "solve", "--quad-degree", "5")
    assert res.returncode == 0, res.stderr
    assert read_meta(tmp_path / "solve")["unused_options"] == "seed,threads"


def test_run_meta_records_solver_and_peak_rss(tmp_path):
    from amfem.assembly import SOLVER
    res, _ = solve_smooth_u3(tmp_path / "solve")
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path / "solve")
    assert meta["solver"] == SOLVER
    assert float(meta["peak_rss_mb"]) > 1.0
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
])
def test_usage_errors_exit_one(tmp_path, args):
    out = tmp_path / "out"
    res = run_cli(*args, "--out", str(out))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert not out.exists()


def test_run_meta_lists_the_options_of_the_command_only(tmp_path):
    res = run_cli("approx", "--benchmark", "checker_const", "--epsilon",
                  "1e-3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    meta = read_meta(tmp_path)
    for key in ("theta", "theta_tilde", "mu", "levels", "refine_uniform",
                "max_iters", "two_stage", "uniform", "suite", "mode"):
        assert key not in meta
    assert meta["theta_osc"] == "0.5" and meta["max_triangles"] == "300000"
    assert meta["epsilon"] == "0.001"
