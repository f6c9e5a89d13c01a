"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import monofact

# the package's __init__ imports names to re-export them
MODULES = sorted(p for p in Path(monofact.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
