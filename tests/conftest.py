import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.fixture(autouse=True, scope="session")
def cli_imports_checkout():
    """Child processes running ``python -m amfem.cli`` import the package
    from this checkout's ``src``, as the test process does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
