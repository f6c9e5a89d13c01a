"""Every module of the package uses each name it imports, and every private name it defines."""

import ast
from pathlib import Path

import pytest

import monofact

SOURCES = sorted(Path(monofact.__file__).parent.glob("*.py"))
# the package's __init__ imports names to re-export them
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """The names ``source`` imports, other than ``__future__`` features, and never reads."""
    imported, used = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_catches_an_unused_import():
    source = "import os.path\nfrom .core import _pair_monoid, units\nunits(None)\n"
    assert unused_imports(source) == ["_pair_monoid", "os"]


def private_definitions(source):
    """The private names, dunders aside, that ``source`` defines at module level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def references(source):
    """The names ``source`` reads or imports, and the attributes it reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def unreferenced_privates(sources):
    """(module, name) for each private module-level name that no source refers to."""
    used = set().union(*(references(text) for text in sources.values()))
    return sorted(
        (module, name)
        for module, text in sources.items()
        for name in private_definitions(text) - used
    )


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unreferenced_privates(sources) == []


def test_catches_an_unreferenced_private_name():
    sources = {
        "a": "_LIMIT = 3\n__all__ = []\ndef _used(): return _LIMIT\ndef _unused(): pass\n",
        "b": "from .a import _used\nclass _Shape: pass\n_used()\n",
    }
    assert unreferenced_privates(sources) == [("a", "_unused"), ("b", "_Shape")]
