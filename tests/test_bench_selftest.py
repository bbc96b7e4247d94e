"""The benchmark harness's self-test, run as a test: a change that removes
or renames a function the tracer patches (``assembly.spla``,
``adapt.oscillation``, ...) fails here, not in a later traced run."""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: 0 failed checks" in proc.stdout
