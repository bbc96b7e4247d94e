"""Command line driver.

Subcommands and the options each one reads (every command also takes
--out and --config):

  solve   --benchmark | --mesh, --refine-uniform, --quad-degree
  adapt   --benchmark, --epsilon, --theta, --theta-tilde, --mu, --max-iters,
          --max-triangles, --two-stage, --quad-degree
  approx  --benchmark, --epsilon, --theta-osc, --max-triangles, --quad-degree
  check   --suite, --seed
  study   --benchmark, --mode, --levels, --theta, --theta-tilde, --mu,
          --max-iters, --max-triangles, --quad-degree

Outputs land in the directory given by --out (or the AMFEM_OUT environment
variable).  A command computes its outputs; main makes the directory and
writes them and run.meta once the command has finished, so a command that
fails writes nothing.  Every run writes a run.meta with the options of the
command that ran, as they took effect, the library versions and the options
that took no effect (unused_options): the loop options of a uniform study,
quad_degree where the load is piecewise constant, theta_tilde and mu where
the loop's data has no oscillation (a piecewise-constant load, or
--two-stage), and the seed of a check whose suites draw no random
numbers.  A solve also records the number of multipliers, the values its
factor stores, SuperLU's plus each elimination pass's coupling block and
diagonal, and the rows SuperLU factors (n_multipliers, factor_nnz,
factor_rows); adapt records its status and iterations, the number of
history rows that refined (both stages' with --two-stage).  A --config
file holds key=value lines whose keys are the command's own long options
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
from .adapt import (APPROX_MAX_ITERS, AdaptParams, amfem, approx, two_stage,
                    two_stage_settings)
from .assembly import (SOLVER, ProblemSpec, SolverError, solve_poisson,
                       error_sigma)
from .estimator import estimate, report_to_csv
from .fespace import dof_to_text
from .mesh import load_mesh, save_mesh, uniform_refine
from .sources import FunctionSource, as_source
from .verify import (SUITES, benchmark, benchmark_names, fit_points, fit_rate,
                     run_suite, suite_csv, suite_draws, uniform_study)

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
        return p

    def typed(p, name, default):
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)

    loop = asdict(AdaptParams())

    p = command("solve", "assemble and solve on one mesh")
    p.add_argument("--benchmark", default=None, choices=benchmark_names())
    p.add_argument("--mesh", default=None, help="mesh file (f=1)")
    p.add_argument("--refine-uniform", type=int, default=0)

    p = command("adapt", "run the adaptive loop")
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    for name, default in loop.items():
        typed(p, name, default)
    p.add_argument("--two-stage", type=boolean, nargs="?", const=True,
                   default=False, metavar="BOOL",
                   help="approximate the data first")

    p = command("approx", "data approximation only")
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    typed(p, "epsilon", loop["epsilon"])
    for name in ("theta_osc", "max_triangles"):
        typed(p, name, _default(approx, name))

    p = command("check", "run verification suites")
    p.add_argument("--suite", default=None, choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=_default(run_suite, "seed"),
                   help="seed of the random fields the suites draw")

    p = command("study", "rate table over a tolerance ladder")
    p.add_argument("--benchmark", required=True, choices=benchmark_names())
    p.add_argument("--mode", default="adaptive",
                   choices=("adaptive", "uniform"))
    p.add_argument("--levels", type=int, default=4)
    for name, default in loop.items():
        if name != "epsilon":           # it follows from the levels
            typed(p, name, default)
    for name in ("solve", "adapt", "approx", "study"):   # the load commands
        sub.choices[name].add_argument(
            "--quad-degree", type=int, default=quadrature.DEFAULT_DEGREE,
            help="degree of the load quadrature, rounded up to the next "
            "available rule")
    return top


def _parse(argv):
    """Parse the command line, with the --config file's options placed
    before the explicit flags; quad_degree, where declared, becomes the
    rule's degree."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_args(args.config)
                                 + argv[at:])
    if "quad_degree" in vars(args):
        if args.quad_degree < 1:
            raise ConfigError("quad-degree must be at least 1")
        args.quad_degree = quadrature.rule_degree(args.quad_degree)
    return args


def _make(args):
    """The benchmark's mesh and problem, with a callable load integrated
    by the configured rule.  A piecewise-constant load is integrated
    exactly, and the run records quad_degree as unused."""
    mesh0, problem = benchmark(args.benchmark).make()
    args._exact_load = not callable(problem.f)
    if not args._exact_load:
        problem = replace(problem, f=FunctionSource(problem.f,
                                                    args.quad_degree))
    return mesh0, problem


def _params(args, epsilon):
    """The loop's parameters: the parsed options and this tolerance."""
    given = {name: getattr(args, name) for name in asdict(AdaptParams())
             if name != "epsilon"}
    return AdaptParams(epsilon=epsilon, **given)


def _write(outdir, name, text):
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)


def _suites(args):
    return [args.suite] if args.suite else sorted(SUITES)


def _unused_options(args):
    """The options of the command that ran which took no effect: a uniform
    study reads none of the loop options, a piecewise-constant load no
    quad_degree, a loop on data with no oscillation (a piecewise-constant
    load, or the second stage of --two-stage) no theta_tilde or mu, and a
    check whose suites draw no random numbers no seed."""
    opts = vars(args)
    if args.command == "check":
        return [] if any(map(suite_draws, _suites(args))) else ["seed"]
    unused = ["quad_degree"] if opts.get("_exact_load") else []
    if opts.get("mode") == "uniform":
        unused += [name for name in asdict(AdaptParams()) if name in opts]
    elif "mu" in opts and (opts.get("_exact_load") or opts.get("two_stage")):
        unused += ["mu", "theta_tilde"]
    return sorted(unused)


def _write_meta(args, wall_ms, extra):
    opts = vars(args)
    lines = ["command=%s" % args.command]
    for key in sorted(opts):
        if key not in ("command", "config") and not key.startswith("_"):
            lines.append("%s=%s" % (key, opts[key]))
    lines.append("amfem_version=%s" % __version__)
    lines.append("numpy_version=%s" % np.__version__)
    lines.append("scipy_version=%s" % scipy.__version__)
    lines.append("python_version=%s" % sys.version.split()[0])
    lines.append("wall_ms=%.3f" % wall_ms)
    lines.append("unused_options=%s" % ",".join(_unused_options(args)))
    if args.command != "approx":
        lines.append("solver=%s" % SOLVER)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lines.append("peak_rss_mb=%.1f" % (peak_kib / 1024.0))
    for key, val in extra.items():
        lines.append("%s=%s" % (key, val))
    _write(args.out, "run.meta", "\n".join(lines) + "\n")


def _solution_files(sol, problem):
    """The final solution's files, estimated against the problem's load
    and exact flux, and its summary."""
    mesh = sol.mesh
    report = estimate(sol, as_source(problem.f))
    err = error_sigma(sol, problem.sigma_exact)
    eta_csv, osc_csv = report_to_csv(report)
    files = {"mesh.txt": save_mesh(mesh), "sigma.dof": dof_to_text(sol.sigma),
             "u.dof": dof_to_text(sol.u), "eta.csv": eta_csv,
             "osc.csv": osc_csv}
    return files, ("nT=%d nE=%d eta2=%s osc2=%s err=%s"
                   % (mesh.nt, mesh.ne, repr(report.eta2_total),
                      repr(report.osc2_total), repr(float(err))))


def _cmd_solve(args):
    if bool(args.benchmark) == bool(args.mesh):
        raise ConfigError("solve needs exactly one of --benchmark or --mesh")
    if args.benchmark:
        mesh, problem = _make(args)
        label = args.benchmark
    else:
        with open(args.mesh) as fh:
            mesh = load_mesh(fh.read())
        problem = ProblemSpec(f=FunctionSource(lambda x, y: np.ones_like(x),
                                               args.quad_degree))
        label = args.mesh
    mesh = uniform_refine(mesh, args.refine_uniform)
    sol = solve_poisson(mesh, problem)
    files, summary = _solution_files(sol, problem)
    extra = {"n_multipliers": sol.n_multipliers,
             "factor_nnz": sol.factor_nnz, "factor_rows": sol.factor_rows}
    return files, extra, "solve %s %s" % (label, summary), 0


def _load_solver():
    """Import the factorization's scipy.sparse.linalg ahead of the driver,
    so that the first history row does not time the import; run.meta's
    wall_ms still does."""
    import scipy.sparse.linalg  # noqa: F401


def _cmd_adapt(args):
    _load_solver()
    mesh0, problem = _make(args)
    params = _params(args, args.epsilon)
    stages = {}
    if args.two_stage:
        _, sol, hist = two_stage(problem.f, mesh0, params)
        stage1, stage2 = two_stage_settings(params.epsilon)
        stage1 = {"theta_osc": _default(approx, "theta_osc"),
                  "max_iters": APPROX_MAX_ITERS, **stage1}
        for stage, settings in (("stage1", stage1), ("stage2", stage2)):
            stages.update(("%s_%s" % (stage, key), val)
                          for key, val in sorted(settings.items()))
    else:
        _, sol, hist = amfem(mesh0, problem, params)
    files, summary = _solution_files(sol, problem)
    # the last row of each stage does not refine
    extra = {"status": hist.status,
             "iterations": sum(r.n_bisected > 0 for r in hist.records),
             **stages}
    try:
        extra["rate_s"] = "%r" % fit_rate(hist, "eta")
    except ValueError:
        pass
    return ({"history.csv": hist.to_csv(), **files}, extra,
            "adapt %s status=%s %s" % (args.benchmark, hist.status, summary),
            0)


def _cmd_approx(args):
    mesh0, problem = _make(args)
    mesh, hist = approx(problem.f, mesh0, args.epsilon,
                        theta_osc=args.theta_osc,
                        max_triangles=args.max_triangles)
    last = hist.records[-1]
    return ({"history.csv": hist.to_csv(), "mesh.txt": save_mesh(mesh)},
            {"status": hist.status},
            "approx %s status=%s nT=%d osc2=%s"
            % (args.benchmark, hist.status, last.nT, repr(last.osc2)), 0)


def _cmd_check(args):
    names = _suites(args)
    files = {}
    failed = 0
    for name in names:
        results = run_suite(name, seed=args.seed)
        files["check_%s.csv" % name] = suite_csv(results)
        for r in results:
            ok = "PASS" if r.passed else "FAIL"
            print("%s %s value=%r threshold=%r" % (ok, r.check, r.value,
                                                   r.threshold))
            failed += 0 if r.passed else 1
    extra = {"suites": "+".join(names), "failed": failed}
    if failed:
        return files, extra, "check: %d failed assertion(s)" % failed, 3
    return files, extra, "check: all passed", 0


def _cmd_study(args):
    if args.levels < 1:
        raise ConfigError("levels must be at least 1")
    _load_solver()
    mesh0, problem = _make(args)
    levels = args.levels
    lines = ["level,nT,nE,eta2,osc2,err"]
    if args.mode == "uniform":
        hist = uniform_study(mesh0, problem, levels)
        records = hist.records
    else:
        # the trajectory does not depend on epsilon: one run to the
        # smallest tolerance holds the stopping record of every level
        sol0 = solve_poisson(mesh0, problem)
        eta0 = np.sqrt(estimate(sol0, as_source(problem.f)).eta2_total)
        hist = amfem(mesh0, problem, _params(args, eta0 / 2.0 ** levels))[2]
        run = hist.records
        records = [next((r for r in run if np.sqrt(r.eta2) < eta0 / 2.0 ** j),
                        run[-1]) for j in range(1, levels + 1)]
    for i, r in enumerate(records):
        lines.append("%d,%d,%d,%s,%s,%s" % (i, r.nT, r.nE, repr(r.eta2),
                                            repr(r.osc2), repr(r.err)))
    ns = [r.nT for r in records]
    vals = [np.sqrt(r.eta2) for r in records]
    extra = {}
    try:
        extra["rate_s"] = "%r" % fit_points(ns, vals)
    except ValueError:
        pass
    return ({"history.csv": hist.to_csv(),
             "study.csv": "\n".join(lines) + "\n"}, extra,
            "study %s mode=%s levels=%d%s"
            % (args.benchmark, args.mode, len(records),
               " s=%s" % extra.get("rate_s", "") if extra else ""), 0)


# each returns (files, run.meta entries, summary line, exit code)
_COMMANDS = {"solve": _cmd_solve, "adapt": _cmd_adapt, "approx": _cmd_approx,
             "check": _cmd_check, "study": _cmd_study}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        t0 = time.perf_counter()
        files, extra, line, code = _COMMANDS[args.command](args)
        os.makedirs(args.out, exist_ok=True)
        for name, text in files.items():
            _write(args.out, name, text)
        _write_meta(args, (time.perf_counter() - t0) * 1e3, extra)
        print(line)
        return code
    except (OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SolverError as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
