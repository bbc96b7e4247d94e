"""Command line driver.

Subcommands and the options each one reads (every command also takes
--out, --config, --seed, --threads and --quad-degree):

  solve   --benchmark | --mesh, --refine-uniform
  adapt   --benchmark, --epsilon, --theta, --theta-tilde, --mu, --max-iters,
          --max-triangles, --two-stage, --uniform
  approx  --benchmark, --epsilon, --theta-osc, --max-triangles
  check   --suite
  study   --benchmark, --mode, --levels, --theta, --theta-tilde, --mu,
          --max-iters, --max-triangles

Outputs land in the directory given by --out (or the AMFEM_OUT environment
variable).  Every run writes a run.meta with the options of the command
that ran, as they took effect, and the library versions.  A --config file
holds key=value lines whose keys are the command's own long options
(theta_tilde or theta-tilde); they are parsed like flags placed before the
command line ones, so explicit flags win, and an unknown key or one that
belongs to another command is an error.  A boolean such as two_stage takes
0, 1, true or false.  Options must be spelled in full.

Exit codes: 0 success, 1 usage, configuration or input parse error,
2 solver failure, 3 a check suite reported a failed assertion.
"""
from __future__ import annotations

import argparse
import inspect
import os
import resource
import sys
import time
from dataclasses import asdict, replace

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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the code for configuration errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def boolean(text):
    """0, 1, true or false (any case)."""
    flags = {"0": False, "1": True, "false": False, "true": True}
    if text.lower() not in flags:
        raise ValueError(text)
    return flags[text.lower()]


def _config_args(path):
    """The key=value lines of a config file as ``--key=value`` tokens."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("%s line %d: expected key=value, got %r"
                              % (path, lineno, raw))
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("_", "-")
        if key == "config":
            raise ConfigError("%s line %d: a config file cannot name another"
                              % (path, lineno))
        out.append("--%s=%s" % (key, val))
    return out


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


def _build_parser():
    top = _Parser(prog="amfem", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help):
        # no abbreviations: a config key must name an option of its own
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--out", default=os.environ.get("AMFEM_OUT")
                       or "amfem_out",
                       help="output directory (default: $AMFEM_OUT or "
                       "./amfem_out)")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--seed", type=int, default=_default(run_suite, "seed"),
                       help="seed of the check suites")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and recorded, but has no effect: "
                       "amfem runs in one thread")
        p.add_argument("--quad-degree", type=int,
                       default=quadrature.DEFAULT_DEGREE,
                       help="degree of the load quadrature, rounded up to "
                       "the next available rule")
        return p

    def typed(p, name, default):
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)

    loop = asdict(AdaptParams())

    p = command("solve", "assemble and solve on one mesh")
    p.add_argument("--benchmark", default=None, choices=benchmark_names())
    p.add_argument("--mesh", default=None, help="mesh file (f=1, g=0)")
    p.add_argument("--refine-uniform", type=int, default=0)

    p = command("adapt", "run the adaptive loop")
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    for name, default in loop.items():
        typed(p, name, default)
    p.add_argument("--two-stage", type=boolean, nargs="?", const=True,
                   default=False, metavar="BOOL",
                   help="approximate the data first")
    p.add_argument("--uniform", type=int, default=None, metavar="ROUNDS",
                   help="uniform refinement study instead of adaptivity")

    p = command("approx", "data approximation only")
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    typed(p, "epsilon", loop["epsilon"])
    for name in ("theta_osc", "max_triangles"):
        typed(p, name, _default(approx, name))

    p = command("check", "run verification suites")
    p.add_argument("--suite", default=None, choices=sorted(SUITES))

    p = command("study", "rate table over a tolerance ladder")
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    p.add_argument("--mode", default="adaptive",
                   choices=("adaptive", "uniform"))
    p.add_argument("--levels", type=int, default=4)
    for name, default in loop.items():
        if name != "epsilon":           # it follows from the levels
            typed(p, name, default)
    return top


def _parse(argv):
    """Parse the command line, with the --config file's options placed
    before the explicit flags; quad_degree becomes the rule's degree."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_args(args.config)
                                 + argv[at:])
    if args.threads < 1:
        raise ConfigError("threads must be at least 1")
    if args.quad_degree < 1:
        raise ConfigError("quad-degree must be at least 1")
    args.quad_degree = quadrature.rule_degree(args.quad_degree)
    return args


def _make(args):
    """The benchmark's mesh and problem, with a callable load integrated
    by the configured rule."""
    mesh0, problem = benchmark(args.benchmark).make()
    if callable(problem.f):
        problem = replace(problem, f=FunctionSource(problem.f,
                                                    args.quad_degree))
    return mesh0, problem


def _params(args, epsilon):
    """The loop's parameters: the parsed options and this tolerance."""
    given = {name: getattr(args, name) for name in asdict(AdaptParams())
             if name != "epsilon"}
    return AdaptParams(epsilon=epsilon, **given).validate()


def _write(outdir, name, text):
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# options a command accepts and records but that take no effect: amfem runs
# in one thread, only the check suites draw random numbers, and they build
# their own problems
_UNUSED = {"check": "quad_degree,threads"}


def _write_meta(args, wall_ms, extra=None):
    opts = vars(args)
    lines = ["command=%s" % args.command]
    for key in sorted(opts):
        if key not in ("command", "config"):
            lines.append("%s=%s" % (key, opts[key]))
    lines.append("amfem_version=%s" % __version__)
    lines.append("numpy_version=%s" % np.__version__)
    lines.append("scipy_version=%s" % scipy.__version__)
    lines.append("python_version=%s" % sys.version.split()[0])
    lines.append("wall_ms=%.3f" % wall_ms)
    lines.append("unused_options=%s" % _UNUSED.get(args.command,
                                                   "seed,threads"))
    if args.command != "approx":
        lines.append("solver=%s" % SOLVER)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines.append("peak_rss_mb=%.1f" % (peak_kib / 1024.0))
    for key, val in (extra or {}).items():
        lines.append("%s=%s" % (key, val))
    _write(args.out, "run.meta", "\n".join(lines) + "\n")


def _emit_solution(out, sol, problem):
    """Estimate and write the final solution; returns its summary."""
    mesh = sol.mesh
    report = estimate(sol, as_source(problem.f))
    err = (error_sigma(sol, problem.sigma_exact)
           if problem.sigma_exact is not None else float("nan"))
    _write(out, "mesh.txt", save_mesh(mesh))
    _write(out, "sigma.dof", dof_to_text(sol.sigma))
    _write(out, "u.dof", dof_to_text(sol.u))
    eta_csv, osc_csv = report_to_csv(report)
    _write(out, "eta.csv", eta_csv)
    _write(out, "osc.csv", osc_csv)
    return ("nT=%d nE=%d eta2=%s osc2=%s err=%s"
            % (mesh.nt, mesh.ne, repr(report.eta2_total),
               repr(report.osc2_total), repr(float(err))))


def _cmd_solve(args):
    if bool(args.benchmark) == bool(args.mesh):
        raise ConfigError("solve needs exactly one of --benchmark or --mesh")
    t0 = time.perf_counter()
    if args.benchmark:
        mesh, problem = _make(args)
        label = args.benchmark
    else:
        mesh = load_mesh(open(args.mesh).read())
        problem = ProblemSpec(f=FunctionSource(lambda x, y: np.ones_like(x),
                                               args.quad_degree),
                              name="unit-load")
        label = args.mesh
    mesh = uniform_refine(mesh, args.refine_uniform)
    sol = solve_poisson(mesh, problem)
    os.makedirs(args.out, exist_ok=True)
    line = "solve %s %s" % (label, _emit_solution(args.out, sol, problem))
    _write_meta(args, (time.perf_counter() - t0) * 1e3)
    print(line)
    return 0


def _cmd_adapt(args):
    t0 = time.perf_counter()
    mesh0, problem = _make(args)
    params = _params(args, args.epsilon)
    if args.uniform is not None:
        hist = uniform_study(mesh0, problem, args.uniform)
        status = "uniform"
        mesh = None
    elif args.two_stage:
        mesh, sol, hist = two_stage(problem.f, mesh0, args.epsilon, params)
        status = hist.status
    else:
        mesh, sol, hist = amfem(mesh0, problem, params)
        status = hist.status
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "history.csv", hist.to_csv())
    if mesh is not None:
        summary = _emit_solution(args.out, sol, problem)
    else:
        last = hist.records[-1]
        summary = "nT=%d nE=%d eta2=%s" % (last.nT, last.nE, repr(last.eta2))
    extra = {"status": status, "iterations": len(hist.records) - 1}
    try:
        extra["rate_s"] = "%r" % fit_rate(hist, "eta").s
    except ValueError:
        pass
    _write_meta(args, (time.perf_counter() - t0) * 1e3, extra)
    print("adapt %s status=%s %s" % (args.benchmark, status, summary))
    return 0


def _cmd_approx(args):
    t0 = time.perf_counter()
    mesh0, problem = _make(args)
    mesh, hist = approx(problem.f, mesh0, args.epsilon,
                        theta_osc=args.theta_osc,
                        max_triangles=args.max_triangles)
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "history.csv", hist.to_csv())
    _write(args.out, "mesh.txt", save_mesh(mesh))
    _write_meta(args, (time.perf_counter() - t0) * 1e3,
                {"status": hist.status})
    last = hist.records[-1]
    print("approx %s status=%s nT=%d osc2=%s"
          % (args.benchmark, hist.status, last.nT, repr(last.osc2)))
    return 0


def _cmd_check(args):
    t0 = time.perf_counter()
    names = [args.suite] if args.suite else sorted(SUITES)
    os.makedirs(args.out, exist_ok=True)
    failed = 0
    for name in names:
        results = run_suite(name, seed=args.seed)
        _write(args.out, "check_%s.csv" % name, suite_csv(results))
        for r in results:
            ok = "PASS" if r.passed else "FAIL"
            print("%s %s value=%r threshold=%r" % (ok, r.check, r.value,
                                                   r.threshold))
            failed += 0 if r.passed else 1
    _write_meta(args, (time.perf_counter() - t0) * 1e3,
                {"suites": "+".join(names), "failed": failed})
    if failed:
        print("check: %d failed assertion(s)" % failed)
        return 3
    print("check: all passed")
    return 0


def _cmd_study(args):
    t0 = time.perf_counter()
    mesh0, problem = _make(args)
    levels = args.levels
    lines = ["level,nT,nE,eta2,osc2,err"]
    if args.mode == "uniform":
        records = uniform_study(mesh0, problem, levels).records
    else:
        # the trajectory does not depend on epsilon: one run to the
        # smallest tolerance holds the stopping record of every level
        sol0 = solve_poisson(mesh0, problem)
        eta0 = np.sqrt(estimate(sol0, as_source(problem.f)).eta2_total)
        run = amfem(mesh0, problem,
                    _params(args, eta0 / 2.0 ** levels))[2].records
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
    os.makedirs(args.out, exist_ok=True)
    _write(args.out, "study.csv", "\n".join(lines) + "\n")
    _write_meta(args, (time.perf_counter() - t0) * 1e3, extra)
    print("study %s mode=%s levels=%d%s"
          % (args.benchmark, args.mode, len(records),
             " s=%s" % extra.get("rate_s", "") if extra else ""))
    return 0


_COMMANDS = {"solve": _cmd_solve, "adapt": _cmd_adapt, "approx": _cmd_approx,
             "check": _cmd_check, "study": _cmd_study}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, MeshFormatError, KeyError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
