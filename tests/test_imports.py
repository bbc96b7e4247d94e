"""Every name a module of src/amfem imports is used there or listed in its
``__all__``, every name in an ``__all__`` is defined in its module, the
package imports only exported names, every private top-level name is used
somewhere in the package, and every attribute a class stores is read
somewhere: stand-ins for a linter's unused-import, undefined-export,
unused-definition and write-only-attribute rules.  No module imports
scipy.sparse when it is imported itself: the functions that build a sparse
matrix or a factor import it."""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "amfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def exports(tree):
    """The names listed in a module's ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            out.update(ast.literal_eval(node.value))
    return out


def unused_imports(source):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exports(tree))


def undefined_exports(source):
    """Names in ``__all__`` that no top-level def, class or assignment of
    the module defines."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets
                           if isinstance(t, ast.Name))
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            defined.add(node.target.id)
    return sorted(exports(tree) - defined)


def package_imports():
    """(module, name) for every name ``amfem/__init__.py`` imports from a
    module of the package."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, a.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names]


def top_level_private(tree):
    """(name, node) for every top-level def, class or assignment of a
    ``_name`` (dunder names excluded)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, ast.Assign):
            out.extend((t.id, node) for t in node.targets
                       if isinstance(t, ast.Name))
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            out.append((node.target.id, node))
    return [(name, node) for name, node in out
            if name.startswith("_") and not name.startswith("__")]


def stranded_privates(sources):
    """``module:name`` for every private top-level name of the modules in
    ``sources`` (module name -> source) that no module reads outside the
    name's own definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    out = []
    for module, tree in trees.items():
        for name, node in top_level_private(tree):
            own = {id(n) for n in ast.walk(node)}
            used = any(
                id(n) not in own
                and ((isinstance(n, ast.Name) and n.id == name
                      and isinstance(n.ctx, ast.Load))
                     or (isinstance(n, ast.Attribute) and n.attr == name))
                for other in trees.values() for n in ast.walk(other))
            if not used:
                out.append("%s:%s" % (module, name))
    return sorted(out)


def _is_dataclass(decorator):
    """``@dataclass``, ``@dataclass(...)`` or ``@dataclasses.dataclass``."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return "dataclass" in (getattr(decorator, "id", None),
                           getattr(decorator, "attr", None))


def stored_attributes(tree):
    """(class, name) for every dataclass field and every ``self.name = ...``
    target of a class in ``tree``."""
    out = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if any(map(_is_dataclass, cls.decorator_list)):
            out.update((cls.name, node.target.id) for node in cls.body
                       if isinstance(node, ast.AnnAssign)
                       and isinstance(node.target, ast.Name))
        out.update((cls.name, node.attr) for node in ast.walk(cls)
                   if isinstance(node, ast.Attribute)
                   and isinstance(node.ctx, ast.Store)
                   and getattr(node.value, "id", None) == "self")
    return out


def write_only_state(sources, readers):
    """``Class.name`` for every attribute a class of ``sources`` stores that
    no module of ``readers`` reads as an attribute (``x.name``).  The match
    is by name alone, so a field is missed when any object anywhere has an
    attribute read of the same name: an unread ``name`` field hides behind
    the many ``.name`` reads of unrelated objects."""
    reads = {node.attr for text in readers
             for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    return sorted("%s.%s" % item for text in sources
                  for item in stored_attributes(ast.parse(text))
                  if item[1] not in reads)


def _import_time_nodes(node):
    """The nodes below ``node`` that run when the module is imported: all
    but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def module_level_sparse_imports(source):
    """``line:module`` for every import of scipy.sparse or a submodule of it
    that runs when the module is imported.  A plain ``import scipy`` loads
    no submodule and is allowed."""
    out = []
    for node in _import_time_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module] + ["%s.%s" % (node.module, a.name)
                                     for a in node.names]
        else:
            continue
        sparse = [name for name in names if name == "scipy.sparse"
                  or name.startswith("scipy.sparse.")]
        if sparse:
            out.append("%d:%s" % (node.lineno, sparse[0]))
    return out


def test_scan_finds_module_level_sparse_imports():
    source = ("import scipy\nimport scipy.sparse as sp\n"
              "from scipy.sparse.linalg import splu\n"
              "from scipy import sparse\nfrom scipy import linalg\n"
              "import numpy, scipy.sparse.linalg\n"
              "try:\n    import scipy.sparse\nexcept ImportError:\n    pass\n"
              "class Box:\n    from scipy.sparse import csr_matrix\n"
              "    def f(self):\n        import scipy.sparse as sp\n"
              "        return sp\n"
              "def g():\n    from scipy.sparse import linalg\n"
              "    return linalg\n"
              "h = lambda: __import__('scipy.sparse')\n")
    assert module_level_sparse_imports(source) == [
        "2:scipy.sparse", "3:scipy.sparse.linalg", "4:scipy.sparse",
        "6:scipy.sparse.linalg", "8:scipy.sparse", "12:scipy.sparse"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_scipy_sparse_import(path):
    assert module_level_sparse_imports(path.read_text()) == []


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport scipy.sparse as sp\nimport numpy as np\n"
              "from .mesh import Mesh, load_mesh, save_mesh\n"
              "__all__ = ['save_mesh']\n"
              "def f(m: Mesh):\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["load_mesh", "os", "sp"]


def test_scan_finds_undefined_exports():
    source = ("from .mesh import Mesh\n"
              "__all__ = ['Mesh', 'f', 'Box', 'K', 'T', 'gone']\n"
              "K = 1\nT: int = 2\n"
              "def f():\n    gone = 3\n    return gone\n"
              "class Box:\n    pass\n")
    assert undefined_exports(source) == ["Mesh", "gone"]


def test_scan_finds_stranded_privates():
    sources = {
        "a": ("_K = 1\n_T: int = 2\n__all__ = ['f']\n"
              "def _loop(n):\n    return _loop(n - 1) if n else 0\n"
              "def _used():\n    return _K\n"
              "class _Box:\n    pass\n"
              "def f():\n    return _used()\n"),
        "b": ("from . import a\nfrom .a import _T\n"
              "def g():\n    return a._Box, _T\n"),
    }
    assert stranded_privates(sources) == ["a:_loop"]


def test_scan_finds_write_only_state():
    source = ("from dataclasses import dataclass, field\n"
              "import dataclasses\n"
              "@dataclass(frozen=True)\nclass Fit:\n"
              "    slope: float\n    intercept: float\n    K = 3\n"
              "@dataclasses.dataclass\nclass Log:\n"
              "    rows: list = field(default_factory=list)\n"
              "class Source:\n"
              "    def __init__(self, f, degree):\n"
              "        self.f = f\n        self.degree = degree\n"
              "        self._a = self._b = None\n"
              "        self.c, self.d = 1, 2\n"
              "    def value(self):\n"
              "        self._b = 1\n        return self.f(self._a), self.c\n")
    reader = "def g(fit, log):\n    return fit.slope, log.rows\n"
    assert write_only_state([source], [source, reader]) == [
        "Fit.intercept", "Source._b", "Source.d", "Source.degree"]


def test_no_write_only_state():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    readers = sources + [p.read_text() for folder in ("tests", "bench")
                         for p in sorted((ROOT / folder).glob("*.py"))]
    assert write_only_state(sources, readers) == []


def test_no_stranded_private_helpers():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert stranded_privates(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert imports, "amfem/__init__.py imports nothing from its modules"
    stale = [(module, name) for module, name in imports
             if name not in exports(ast.parse(
                 (SRC / (module + ".py")).read_text()))]
    assert stale == []
