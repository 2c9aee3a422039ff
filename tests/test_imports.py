"""What importing ``conres`` costs: every name a module imports is used in
it, and a cold start loads no standard module that only a rare path needs.

An import left behind when the code that read it moved away still loads,
so nothing else fails; this reads each module's syntax tree instead.  A
name counts as used when the module reads it, or, in a package
``__init__``, when ``__all__`` re-exports it.
"""

import ast
import json
import subprocess
import sys
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


#: Standard modules a cold start must not load: ``dataclasses`` (with
#: ``inspect`` under it) costs more to import than a small table takes to
#: compute, and ``csv`` and ``traceback`` serve one rare path each.
NOT_AT_IMPORT = ("dataclasses", "inspect", "csv", "traceback")

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import conres, conres.cli
added = set(sys.modules) - before
from conres.cli import OutputDocument
csv_text = OutputDocument("order", "0", {}, {"order": 1, "sequence": [0, 1]}, "csv").render()
print(json.dumps({"added": sorted(added), "csv": csv_text, "csv_loaded": "csv" in sys.modules}))
"""


def test_a_cold_import_loads_no_module_that_only_a_rare_path_needs():
    out = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(SRC.parent)], capture_output=True, text=True, check=True, timeout=60
    ).stdout
    probe = json.loads(out)
    assert "conres.cli" in probe["added"]
    assert sorted(set(NOT_AT_IMPORT) & set(probe["added"])) == []
    # the csv writer loads its module when it runs, in a fresh interpreter too
    assert probe["csv_loaded"] and probe["csv"] == "order,sequence\n1,\"[0, 1]\"\n"
