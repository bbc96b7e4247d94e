"""Every benchmark workload, at a small size, meets the output contract of
``bench/workloads.py``: status 'tol', the conservation recheck through the
public ``RTSpace``/``div_matrix`` API, and the oscillation recheck.  The
module is loaded from ``bench/`` as it stands."""
import importlib.util
import os
import sys

import pytest

WORKLOADS_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, params", [
    ("uniform_lshape", {"rounds": 2}),
    ("approx_smooth", {"epsilon": 5e-3, "theta_osc": 0.5}),
    ("adapt_lshape", {"epsilon": 0.2, "theta": 0.3}),
])
def test_small_workload_meets_the_benchmark_contract(workloads, name,
                                                     params):
    result = workloads.attempt(workloads.WORKLOADS[name], params)
    assert result.problems == []
    assert result.outputs["status"] == "tol"
    if name == "approx_smooth":
        assert "osc2_recomputed" in result.outputs
    else:
        assert result.outputs["defect"] <= workloads.CONSERVATION_TOL
