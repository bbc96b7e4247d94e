"""The project as a reader meets it: the README's quick start runs as
printed, and every third-party module the tests import is declared in
pyproject.toml."""
import ast
import contextlib
import io
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def quick_start():
    """The first python block of README.md."""
    text = (ROOT / "README.md").read_text()
    return re.search(r"```python\n(.*?)```", text, re.S).group(1)


def test_readme_quick_start_runs_as_printed():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(quick_start(), {})
    status, rate = out.getvalue().splitlines()
    assert status == "tol 3358"
    label, s = rate.split(" = ")
    assert label == "rate s" and 0.45 <= float(s) <= 0.55


def imported_modules(paths):
    """The top-level names of the absolute imports in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_modules():
    """The distributions pyproject.toml declares, runtime and extras, as
    module names."""
    tomllib = pytest.importorskip("tomllib")        # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    specs = list(project["dependencies"])
    for extra in project.get("optional-dependencies", {}).values():
        specs.extend(extra)
    return {re.match(r"[\w.-]+", spec).group(0).lower().replace("-", "_")
            for spec in specs}


def test_every_third_party_module_the_tests_import_is_declared():
    local = {p.stem for folder in ("tests", "bench")
             for p in (ROOT / folder).glob("*.py")} | {"amfem"}
    third_party = (imported_modules(sorted((ROOT / "tests").glob("*.py")))
                   - set(sys.stdlib_module_names) - local)
    assert {"numpy", "scipy", "pytest", "hypothesis"} <= third_party
    assert sorted(third_party - declared_modules()) == []
