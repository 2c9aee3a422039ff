"""Mutation gate: each live check must be seen to fail.

Run from the root of a checkout (stdlib only; the tests it runs need pytest
and hypothesis):

    python tests/mutants.py

Each mutant is one exact text edit of one source file, with the tests that
must kill it.  For every mutant the runner copies the tree to a temporary
directory, applies the edit there and runs the listed tests with ``-x``.  A
mutant is killed when one of them fails.  Pins see any change to an output,
so they do not show that a check works: tests named as sha256 digests,
golden values or ``repr`` pins are deselected, and cannot kill a mutant.
Before any mutant, the same tests must pass on an unedited copy.

The runner fails when a mutant's old text does not occur exactly once in
its file, so that a refactor updates the mutant in the same change instead
of losing it without notice; and when any mutant survives.  pytest does not
collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: pytest ``-k`` expression that deselects the pins: the CLI and demo sha256
#: digests, the golden tables and link polynomials, and the pinned values and
#: ``repr`` texts.
NOT_A_PIN = "not (digest or sha256 or golden or pinned or repr)"

#: Seconds one pytest run may take; a run that takes longer fails the gate.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "miller always passes",
        "src/conres/resolution.py",
        'yield f"n={n}", report.ok, ',
        'yield f"n={n}", True, ',
        ("tests/test_resolution.py",),
    ),
    Mutant(
        "block-parity always passes",
        "src/conres/resolution.py",
        "bad = [e for e in poly.support() if e % 2 == n % 2]",
        "bad = []",
        ("tests/test_resolution.py",),
    ),
    Mutant(
        "table-total skips the n! - 1 rank",
        "src/conres/resolution.py",
        "elif got(1) != factorial(n) - 1:",
        "elif False:",
        ("tests/test_resolution.py",),
    ),
    Mutant(
        "q-multinomial sign check skipped",
        "src/conres/qcombinat.py",
        "    if not result.nonnegative():\n        raise ConsistencyError(f\"negative coefficient in [",
        "    if False:\n        raise ConsistencyError(f\"negative coefficient in [",
        ("tests/test_resolution.py",),
    ),
    Mutant(
        "product slot one bit too narrow",
        "src/conres/qcombinat.py",
        "if bound < 1 << (width - 1):",
        "if bound < 1 << width:",
        ("tests/test_qcombinat.py::test_products_at_the_slot_edges_match_reference",),
    ),
    Mutant(
        "orbit cycle type not dilated by c",
        "src/conres/flagchar.py",
        "counts[tuple(c * part for part in cycle_type(pi))] += count",
        "counts[cycle_type(pi)] += count",
        ("tests/test_flagchar.py::test_orbit_counts_equal_the_concatenate_and_walk_reference",),
    ),
)


def _copy_tree(target: Path) -> None:
    shutil.copytree(
        ROOT,
        target,
        ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out"),
    )


def _run_tests(tree: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code over ``tests`` in ``tree``, pins deselected, and
    the node ids of its failed tests (or the tail of its output)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider", "-k", NOT_A_PIN, *tests]
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    failed = re.findall(r"^FAILED (\S+)", done.stdout, re.MULTILINE)
    return done.returncode, ", ".join(failed) or done.stdout.strip()[-400:]


def _occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.file).read_text().count(mutant.old)


def main() -> int:
    stale = [m for m in MUTANTS if _occurrences(m) != 1]
    for m in stale:
        print(f"STALE {m.name}: its old text occurs {_occurrences(m)} times in {m.file}, not once")
    if stale:
        return 1
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "base"
        _copy_tree(base)
        tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, detail = _run_tests(base, tests)
        if code != 0:
            print(f"BASELINE the unedited tree fails its mutants' tests (exit {code}): {detail}")
            return 1
        survivors = 0
        for i, m in enumerate(MUTANTS):
            tree = Path(scratch) / f"mutant{i}"
            _copy_tree(tree)
            path = tree / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            code, detail = _run_tests(tree, m.tests)
            # exit 1: a test failed; anything else (no test collected, a
            # collection error, a timeout) does not show a check failing
            killed = code == 1
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'} {m.name} (exit {code}): {detail}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
