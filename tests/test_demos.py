"""The demos print what they printed when these digests were taken.

Each ``demos/*.py`` runs in a fresh interpreter with ``PYTHONPATH=src``, as
the documentation runs it, and the SHA-256 of its stdout is compared with
the pinned digest.  The demos are deterministic; a mismatch means their
output changed.  If that change is intended, regenerate the digest from the
new output and say why in the changelog.
"""

import doctest
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_links_and_tables.py": "c4a4af9e6319f4aac907371dbfeb73f89b91dc32260d0677d665ddcd3b573eb8",
    "02_flag_quotients.py": "38e5c21634f1a743f298501a89eea0dd369024958e2a0d3014d3b4a7f2f3a24f",
    "03_complement_ring.py": "7c72f6e87493206b5fc61b7e35154b44cc591420af75d3178bd1d28b4794ba8c",
    "04_stabilization.py": "9bb5e5b258aa835f2b04f4db63120393d693f5643f5f58c801ae25e945cf2319",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_digest(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, check=True,
    )
    assert hashlib.sha256(result.stdout).hexdigest() == DIGESTS[name]


def test_readme_library_tour_runs():
    # the README's examples are doctests: each output line is what runs print
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False, verbose=False)
    assert result.attempted > 0
    assert result.failed == 0
