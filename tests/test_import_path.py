"""The never-solving half of the loop loads no scipy.sparse.

``import amfem``, a benchmark's ``make()``, the data-oscillation loop
``approx`` and the ``approx`` command run in a fresh interpreter without
importing any ``scipy.sparse`` module; the first solve imports them, and
the lazily bound ``assembly.spla`` is then scipy's own
``scipy.sparse.linalg``.  The solving commands ``adapt`` and ``study``
import it before their drivers start, so that no history row times the
import.  Each test starts a child process, so that no import made by
another test counts."""
import json
import subprocess
import sys

import pytest

from test_cli import run_cli

_CHILD = """\
import json, sys

def sparse_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy.sparse"))

import amfem
from amfem.verify import benchmark
mesh, problem = benchmark("smooth_square").make()
seen = {"import": sparse_modules()}
amfem.approx(problem.f, mesh, 5e-3)
seen["approx"] = sparse_modules()
amfem.solve_poisson(mesh, problem)
seen["solve"] = sparse_modules()
import scipy.sparse.linalg
from amfem import assembly
seen["spla"] = assembly.spla is scipy.sparse.linalg
print(json.dumps(seen))
"""


def imported_modules(stderr):
    """The modules ``python -X importtime`` reports as imported."""
    return {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_import_and_approx_load_no_scipy_sparse():
    res = subprocess.run([sys.executable, "-c", _CHILD],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.strip().splitlines()[-1])
    assert seen["import"] == []
    assert seen["approx"] == []
    assert "scipy.sparse.linalg" in seen["solve"]
    assert seen["spla"] is True


def test_approx_command_loads_no_scipy_sparse(tmp_path):
    res = run_cli("approx", "--benchmark", "smooth_square", "--epsilon",
                  "5e-3", "--out", str(tmp_path), env_extra={
                      "PYTHONPROFILEIMPORTTIME": "1"})
    assert res.returncode == 0, res.stderr
    modules = imported_modules(res.stderr)
    assert "amfem.adapt" in modules
    assert not any(m.startswith("scipy.sparse") for m in modules)


def test_solve_command_loads_scipy_sparse(tmp_path):
    """The scan above sees scipy.sparse where a command does load it."""
    res = run_cli("solve", "--benchmark", "smooth_square", "--out",
                  str(tmp_path), env_extra={"PYTHONPROFILEIMPORTTIME": "1"})
    assert res.returncode == 0, res.stderr
    assert "scipy.sparse.linalg" in imported_modules(res.stderr)


_DRIVERS_CHILD = """\
import json, sys
from amfem import cli

seen = []

def spy(fn):
    def wrapped(*args, **kwargs):
        seen.append("scipy.sparse.linalg" in sys.modules)
        return fn(*args, **kwargs)
    return wrapped

for name in ("amfem", "two_stage", "uniform_study", "solve_poisson"):
    setattr(cli, name, spy(getattr(cli, name)))
assert cli.main(sys.argv[1:]) == 0
print(json.dumps(seen))
"""


@pytest.mark.parametrize("args", [
    ["adapt", "--epsilon", "0.5"],
    ["adapt", "--epsilon", "0.5", "--two-stage"],
    ["study", "--levels", "1"],
    ["study", "--levels", "1", "--mode", "uniform"],
], ids=["adapt", "two-stage", "study", "study-uniform"])
def test_solving_drivers_start_with_scipy_loaded(tmp_path, args):
    """Every driver the command calls finds scipy.sparse.linalg imported,
    so the first factorization, inside the first history row, does not
    import it."""
    res = subprocess.run(
        [sys.executable, "-c", _DRIVERS_CHILD, args[0], "--benchmark",
         "smooth_square", "--out", str(tmp_path), *args[1:]],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    seen = json.loads(res.stdout.strip().splitlines()[-1])
    assert seen and all(seen)
