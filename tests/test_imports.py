"""Every name a module of src/amfem imports is used there or listed in its
``__all__``: a stand-in for a linter's unused-import rule."""
import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "amfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            exported.update(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport scipy.sparse as sp\nimport numpy as np\n"
              "from .mesh import Mesh, load_mesh, save_mesh\n"
              "__all__ = ['save_mesh']\n"
              "def f(m: Mesh):\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["load_mesh", "os", "sp"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
