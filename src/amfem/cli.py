"""Command line driver.

Subcommands: solve, adapt, approx, check, study.  Outputs land in the
directory given by --out (or the AMFEM_OUT environment variable); every run
writes a run.meta with the resolved configuration and library versions.
A --config file holds key=value lines with the same names as the long
options; explicit command line flags win over it.

Exit codes: 0 success, 1 configuration or input parse error, 2 solver
failure, 3 a check suite reported a failed assertion.
"""
from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np
import scipy

from . import __version__, quadrature
from .adapt import AdaptParams, amfem, approx, two_stage
from .assembly import (SOLVER, ProblemSpec, SolverError, solve_poisson,
                       error_sigma)
from .estimator import estimate, report_to_csv
from .fespace import dof_to_text
from .mesh import MeshFormatError, load_mesh, save_mesh, uniform_refine
from .sources import FunctionSource, as_source
from .verify import (SUITES, benchmark, benchmark_names, fit_points, fit_rate,
                     run_suite, suite_csv, uniform_study)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _read_config(path):
    out = {}
    try:
        text = open(path).read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected key=value, got %r"
                              % (path, lineno, raw))
        key, val = line.split("=", 1)
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _build_parser():
    top = argparse.ArgumentParser(prog="amfem", description=__doc__)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output directory "
                       "(default: $AMFEM_OUT or ./amfem_out)")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and recorded, but has no effect: "
                       "amfem runs in one thread")
        p.add_argument("--quad-degree", type=int, default=None,
                       help="degree of the load quadrature, rounded up to "
                       "the next available rule")

    p = sub.add_parser("solve", help="assemble and solve on one mesh")
    common(p)
    p.add_argument("--benchmark", default=None, choices=benchmark_names())
    p.add_argument("--mesh", default=None, help="mesh file (f=1, g=0)")
    p.add_argument("--refine-uniform", type=int, default=None)

    p = sub.add_parser("adapt", help="run the adaptive loop")
    common(p)
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--theta-tilde", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--max-triangles", type=int, default=None)
    p.add_argument("--two-stage", action="store_true")
    p.add_argument("--uniform", type=int, default=None, metavar="ROUNDS",
                   help="uniform refinement study instead of adaptivity")

    p = sub.add_parser("approx", help="data approximation only")
    common(p)
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--theta-osc", type=float, default=None)

    p = sub.add_parser("check", help="run verification suites")
    common(p)
    p.add_argument("--suite", default=None, choices=sorted(SUITES))

    p = sub.add_parser("study", help="rate table over a tolerance ladder")
    common(p)
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    p.add_argument("--mode", default="adaptive",
                   choices=("adaptive", "uniform"))
    p.add_argument("--levels", type=int, default=None)
    return top


_DEFAULTS = {
    "seed": 0, "threads": 1, "quad_degree": 4, "refine_uniform": 0,
    "epsilon": 1e-3, "theta": 0.3, "theta_tilde": 0.5, "mu": 0.7,
    "max_iters": 60, "max_triangles": 300000, "theta_osc": 0.5, "levels": 4,
}

_CASTS = {
    "seed": int, "threads": int, "quad_degree": int, "refine_uniform": int,
    "max_iters": int, "max_triangles": int, "levels": int,
    "epsilon": float, "theta": float, "theta_tilde": float, "mu": float,
    "theta_osc": float,
}


def _resolve(args):
    """Merge defaults, config file and explicit flags into one dict."""
    cfg = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, val in _read_config(args.config).items():
            cast = _CASTS.get(key, str)
            try:
                cfg[key] = cast(val)
            except ValueError:
                raise ConfigError("config key %s: cannot parse %r as %s"
                                  % (key, val, cast.__name__))
    for key in list(vars(args)):
        val = getattr(args, key)
        if val is not None and key not in ("command", "config"):
            cfg[key] = val
    cfg.setdefault("out", None)
    if cfg["out"] in (None, ""):
        cfg["out"] = os.environ.get("AMFEM_OUT", "amfem_out")
    if cfg["threads"] < 1:
        raise ConfigError("threads must be at least 1")
    if cfg["quad_degree"] < 1:
        raise ConfigError("quad-degree must be at least 1")
    cfg["quad_degree"] = quadrature.rule_degree(cfg["quad_degree"])
    return cfg


def _make(cfg):
    """The benchmark's mesh and problem, with a callable load integrated
    by the configured rule."""
    mesh0, problem = benchmark(cfg["benchmark"]).make()
    if callable(problem.f):
        problem = replace(problem, f=FunctionSource(problem.f,
                                                    cfg["quad_degree"]))
    return mesh0, problem


def _write(outdir, name, text):
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# options a command accepts and records but that take no effect: amfem runs
# in one thread, and the check suites build their own problems
_UNUSED = {"check": "quad_degree,threads"}


def _write_meta(cfg, command, wall_ms, extra=None):
    lines = ["command=%s" % command]
    for key in sorted(cfg):
        lines.append("%s=%s" % (key, cfg[key]))
    lines.append("amfem_version=%s" % __version__)
    lines.append("numpy_version=%s" % np.__version__)
    lines.append("scipy_version=%s" % scipy.__version__)
    lines.append("python_version=%s" % sys.version.split()[0])
    lines.append("wall_ms=%.3f" % wall_ms)
    lines.append("unused_options=%s" % _UNUSED.get(command, "threads"))
    if command != "approx":
        lines.append("solver=%s" % SOLVER)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines.append("peak_rss_mb=%.1f" % (peak_kib / 1024.0))
    for key, val in (extra or {}).items():
        lines.append("%s=%s" % (key, val))
    _write(cfg["out"], "run.meta", "\n".join(lines) + "\n")


def _emit_solution(cfg, sol, problem):
    """Estimate and write the final solution; returns its summary."""
    mesh = sol.mesh
    report = estimate(sol, as_source(problem.f))
    err = (error_sigma(sol, problem.sigma_exact)
           if problem.sigma_exact is not None else float("nan"))
    _write(cfg["out"], "mesh.txt", save_mesh(mesh))
    _write(cfg["out"], "sigma.dof", dof_to_text(sol.sigma))
    _write(cfg["out"], "u.dof", dof_to_text(sol.u))
    eta_csv, osc_csv = report_to_csv(report)
    _write(cfg["out"], "eta.csv", eta_csv)
    _write(cfg["out"], "osc.csv", osc_csv)
    return ("nT=%d nE=%d eta2=%s osc2=%s err=%s"
            % (mesh.nt, mesh.ne, repr(report.eta2_total),
               repr(report.osc2_total), repr(float(err))))


def _cmd_solve(args):
    cfg = _resolve(args)
    if bool(cfg.get("benchmark")) == bool(cfg.get("mesh")):
        raise ConfigError("solve needs exactly one of --benchmark or --mesh")
    t0 = time.perf_counter()
    if cfg.get("benchmark"):
        mesh, problem = _make(cfg)
        label = cfg["benchmark"]
    else:
        mesh = load_mesh(open(cfg["mesh"]).read())
        problem = ProblemSpec(f=FunctionSource(lambda x, y: np.ones_like(x),
                                               cfg["quad_degree"]),
                              name="unit-load")
        label = cfg["mesh"]
    mesh = uniform_refine(mesh, int(cfg["refine_uniform"]))
    sol = solve_poisson(mesh, problem)
    os.makedirs(cfg["out"], exist_ok=True)
    line = "solve %s %s" % (label, _emit_solution(cfg, sol, problem))
    _write_meta(cfg, "solve", (time.perf_counter() - t0) * 1e3)
    print(line)
    return 0


def _cmd_adapt(args):
    cfg = _resolve(args)
    t0 = time.perf_counter()
    mesh0, problem = _make(cfg)
    params = AdaptParams(epsilon=cfg["epsilon"], theta=cfg["theta"],
                         theta_tilde=cfg["theta_tilde"], mu=cfg["mu"],
                         max_iters=cfg["max_iters"],
                         max_triangles=cfg["max_triangles"]).validate()
    if cfg.get("uniform") is not None:
        hist = uniform_study(mesh0, problem, int(cfg["uniform"]))
        status = "uniform"
        mesh = None
    elif cfg.get("two_stage"):
        mesh, sol, hist = two_stage(problem.f, mesh0, cfg["epsilon"], params)
        status = hist.status
    else:
        mesh, sol, hist = amfem(mesh0, problem, params)
        status = hist.status
    os.makedirs(cfg["out"], exist_ok=True)
    _write(cfg["out"], "history.csv", hist.to_csv())
    if mesh is not None:
        summary = _emit_solution(cfg, sol, problem)
    else:
        last = hist.records[-1]
        summary = "nT=%d nE=%d eta2=%s" % (last.nT, last.nE, repr(last.eta2))
    extra = {"status": status, "iterations": len(hist.records) - 1}
    try:
        extra["rate_s"] = "%r" % fit_rate(hist, "eta").s
    except ValueError:
        pass
    _write_meta(cfg, "adapt", (time.perf_counter() - t0) * 1e3, extra)
    print("adapt %s status=%s %s" % (cfg["benchmark"], status, summary))
    return 0


def _cmd_approx(args):
    cfg = _resolve(args)
    t0 = time.perf_counter()
    mesh0, problem = _make(cfg)
    mesh, hist = approx(problem.f, mesh0, cfg["epsilon"],
                        theta_osc=cfg["theta_osc"],
                        max_triangles=cfg["max_triangles"])
    os.makedirs(cfg["out"], exist_ok=True)
    _write(cfg["out"], "history.csv", hist.to_csv())
    _write(cfg["out"], "mesh.txt", save_mesh(mesh))
    _write_meta(cfg, "approx", (time.perf_counter() - t0) * 1e3,
                {"status": hist.status})
    last = hist.records[-1]
    print("approx %s status=%s nT=%d osc2=%s"
          % (cfg["benchmark"], hist.status, last.nT, repr(last.osc2)))
    return 0


def _cmd_check(args):
    cfg = _resolve(args)
    t0 = time.perf_counter()
    names = [cfg["suite"]] if cfg.get("suite") else sorted(SUITES)
    os.makedirs(cfg["out"], exist_ok=True)
    failed = 0
    for name in names:
        results = run_suite(name, seed=int(cfg["seed"]))
        _write(cfg["out"], "check_%s.csv" % name, suite_csv(results))
        for r in results:
            ok = "PASS" if r.passed else "FAIL"
            print("%s %s value=%r threshold=%r" % (ok, r.check, r.value,
                                                   r.threshold))
            failed += 0 if r.passed else 1
    _write_meta(cfg, "check", (time.perf_counter() - t0) * 1e3,
                {"suites": "+".join(names), "failed": failed})
    if failed:
        print("check: %d failed assertion(s)" % failed)
        return 3
    print("check: all passed")
    return 0


def _cmd_study(args):
    cfg = _resolve(args)
    t0 = time.perf_counter()
    mesh0, problem = _make(cfg)
    levels = int(cfg["levels"])
    lines = ["level,nT,nE,eta2,osc2,err"]
    if cfg["mode"] == "uniform":
        records = uniform_study(mesh0, problem, levels).records
    else:
        # the trajectory does not depend on epsilon: one run to the
        # smallest tolerance holds the stopping record of every level
        sol0 = solve_poisson(mesh0, problem)
        eta0 = np.sqrt(estimate(sol0, as_source(problem.f)).eta2_total)
        params = AdaptParams(epsilon=eta0 / 2.0 ** levels, theta=cfg["theta"],
                             theta_tilde=cfg["theta_tilde"], mu=cfg["mu"],
                             max_iters=cfg["max_iters"],
                             max_triangles=cfg["max_triangles"])
        run = amfem(mesh0, problem, params)[2].records
        records = [next((r for r in run if np.sqrt(r.eta2) < eta0 / 2.0 ** j),
                        run[-1]) for j in range(1, levels + 1)]
    for i, r in enumerate(records):
        lines.append("%d,%d,%d,%s,%s,%s" % (i, r.nT, r.nE, repr(r.eta2),
                                            repr(r.osc2), repr(r.err)))
    ns = [r.nT for r in records]
    vals = [np.sqrt(r.eta2) for r in records]
    extra = {}
    try:
        extra["rate_s"] = "%r" % fit_points(ns, vals).s
    except ValueError:
        pass
    os.makedirs(cfg["out"], exist_ok=True)
    _write(cfg["out"], "study.csv", "\n".join(lines) + "\n")
    _write_meta(cfg, "study", (time.perf_counter() - t0) * 1e3, extra)
    print("study %s mode=%s levels=%d%s"
          % (cfg["benchmark"], cfg["mode"], len(records),
             " s=%s" % extra.get("rate_s", "") if extra else ""))
    return 0


_COMMANDS = {"solve": _cmd_solve, "adapt": _cmd_adapt, "approx": _cmd_approx,
             "check": _cmd_check, "study": _cmd_study}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, MeshFormatError, KeyError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
