"""The never-solving half of the loop loads no scipy.sparse.

``import amfem``, a benchmark's ``make()``, the data-oscillation loop
``approx`` and the ``approx`` command run in a fresh interpreter without
importing any ``scipy.sparse`` module; the first solve imports them, and
the lazily bound ``assembly.spla`` and ``verify.spla`` are then scipy's own
``scipy.sparse.linalg``.  Each test starts a child process, so that no
import made by another test counts."""
import json
import subprocess
import sys

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
from amfem import assembly, verify
seen["spla"] = [assembly.spla is scipy.sparse.linalg,
                verify.spla is scipy.sparse.linalg]
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
    assert seen["spla"] == [True, True]


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
