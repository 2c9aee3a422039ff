"""Every name a module of ``conres`` imports is used in it.

An import left behind when the code that read it moved away still loads,
so nothing else fails; this reads each module's syntax tree instead.  A
name counts as used when the module reads it, or, in a package
``__init__``, when ``__all__`` re-exports it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "conres"


def _imported(tree):
    """The names the module's imports bind, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    """(name, line) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .qcombinat import MultiIndex, partitions\nimport os.path\n\n\ndef f():\n    return MultiIndex\n"
    assert unused_imports(source) == [("partitions", 1), ("os", 2)]
    assert unused_imports("import os.path\nos.sep\n__all__ = ['x']\nfrom . import x\n") == []
