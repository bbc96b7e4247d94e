"""The outputs do not depend on how many threads BLAS runs.

A child process prints the monitored ``amfem`` golden run, the L-shape
solve golden, the CSV of every check suite at seed 0 and the solver
statistics of the ``lshape_sing`` solve on two and six uniform rounds of
the L-shape (the residuals, the conservation defect and the factor's
stored values, which decide whether ``SolverError`` fires); it runs once
with OpenBLAS and OpenMP held to one thread and once with two, and the two
prints must agree byte for byte.  A reduction that BLAS splits across its
threads (the 1-D ``@`` and ``np.linalg.norm`` are ``ddot``) sums in an
order that depends on the thread count, so its last bits would differ."""
import json
import os
import subprocess
import sys

_CHILD = """\
import json
from amfem.assembly import solve_poisson
from amfem.mesh import uniform_refine
from amfem.verify import SUITES, benchmark, run_suite, suite_csv
from test_adapt import monitored_amfem_rows
from test_assembly import golden_solve_rows

mesh0, problem = benchmark("lshape_sing").make()
stats = []
for rounds in (2, 6):
    sol = solve_poisson(uniform_refine(mesh0, rounds), problem)
    stats.append([repr(sol.residual_sigma), repr(sol.residual_u),
                  repr(sol.conservation_defect), sol.factor_nnz])
print(json.dumps({
    "amfem": monitored_amfem_rows(),
    "solve": golden_solve_rows(),
    "suites": {name: suite_csv(run_suite(name, seed=0))
               for name in sorted(SUITES)},
    "solver": stats,
}))
"""


def run_child(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.dirname(os.path.abspath(__file__)),
                      env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", _CHILD], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_outputs_agree_at_one_and_two_blas_threads():
    one, two = run_child(1), run_child(2)
    assert json.loads(one).keys() == {"amfem", "solve", "suites", "solver"}
    assert one == two
