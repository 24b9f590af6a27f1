"""Every name a module of the package or of its tests imports is
referenced in it, and neither a reference implementation nor a module
of the package imports a private name of another package module.

The package's __init__.py is skipped: its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import patternrace

MODULES = sorted(p for p in Path(patternrace.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))
REFERENCES = sorted(Path(__file__).parent.glob("*_reference.py"))


def imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in used]
    assert not unused


@pytest.mark.parametrize("path", MODULES + REFERENCES, ids=lambda p: p.name)
def test_references_import_no_private_names(path):
    """A reference shares no private helper with the code it checks, and
    a package module keeps its private helpers to itself.  Dunder names
    such as __version__ are public."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "patternrace")
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private
