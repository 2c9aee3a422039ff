"""Job mixes of the benchmark workloads and the expected result of every operation.

A round is the whole job list of a workload: every entry of the mix once, in
an order the seed shuffles, with the free inputs (the table view, the random
ring elements) drawn from the seed.  Each job runs in a fresh interpreter, so
it starts with cold memo caches, and is a list of operations; each operation is
one call of a public entry point of ``conres`` and is capped in time.

Every operation carries an expectation that the gate checks against the
child's digest of its canonical output:

* ``("digest", key)`` -- the stored digest ``DIGESTS[key]`` (finite mixes);
* ``("zero",)`` -- the ring element is zero (formal e_k, high powers);
* ``("same_as", i)`` -- equal to operation ``i`` of the same job (cup(x, y)
  against cup(y, x)).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "digests.json"

#: Canonical text of the zero ring element (an empty term list).
ZERO_TEXT = "[]"

#: Per-operation time cap in wall-clock seconds.  The table, verify and stable
#: jobs take at most about ten seconds, so their cap only catches a
#: pathological slowdown.  The ring cap sits between the slowest operation
#: that finishes, (c^6)^5 (0.8 s, 1.2 s when the host is slow), and the
#: fastest one on the normal-form cliff, (c^5)^6 (2.5 s), so the same
#: operations fail on every run.
CAP_S = {"table": 60.0, "verify": 60.0, "stable": 60.0, "ring": 1.75}
TINY_RING_CAP_S = 0.25

TABLE_NS = (12, 13, 14, 15, 16)
VERIFY_NS = (9, 10, 11, 12)
STABLE_ARGS = ((-4, 10), (-5, 12), (-6, 14))

TINY_TABLE_NS = (4, 5, 6)
TINY_VERIFY_NS = (4, 5, 6)
TINY_STABLE_ARGS = ((-2, 4), (-3, 6))


@dataclass(frozen=True)
class RingShape:
    """One ring job: random cups of ``cup_terms``-term staircase elements (both
    orders), normal forms of the formal e_1..e_n, and of (c^n)^k for k in
    ``powers``."""

    n: int
    cup_terms: int = 0
    elementary: bool = False
    powers: tuple[int, ...] = ()


# Sizes are the natural ones of each operation; the shapes marked "cliff" hit
# the exponential rewrite order of ``cohomring._reduce`` (ROADMAP open item 1)
# and fail on the cap (see NOTES.md).  Each shape is either always fast or always
# far over the cap, so the number of failures does not depend on the seed.
RING_SHAPES = (
    RingShape(4, cup_terms=24, elementary=True, powers=(1, 2, 3, 4, 5)),
    RingShape(5, cup_terms=3, elementary=True),
    RingShape(5, powers=(1, 2, 3, 4, 5, 6)),  # cliff at k = 6
    RingShape(5, cup_terms=40),  # cliff
    RingShape(6, elementary=True, powers=(1, 2, 3, 4, 5, 6, 7)),  # cliff at k = 6, 7
    RingShape(6, cup_terms=10),  # cliff
)
TINY_RING_SHAPES = (
    RingShape(3, cup_terms=6, elementary=True, powers=(1, 2, 3, 4)),
    RingShape(4, cup_terms=5, elementary=True, powers=(1, 2, 3, 4, 5)),
    RingShape(5, cup_terms=40),  # cliff
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_digests() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text())


# --------------------------------------------------------------------------
# job lists
# --------------------------------------------------------------------------


def table_key(n: int, view: str) -> str:
    return f"table:n={n}:view={view}"


def verify_key(n: int) -> str:
    return f"verify:n={n}"


def stable_key(p_min: int, q_max: int) -> str:
    return f"stable:p_min={p_min}:q_max={q_max}"


def power_key(n: int, k: int) -> str:
    return f"ring:power:n={n}:k={k}"


def _job(label: str, ops: list[dict[str, Any]]) -> dict[str, Any]:
    return {"label": label, "ops": ops}


def table_job(n: int, view: str) -> dict[str, Any]:
    argv = ["table", "--n", str(n), "--view", view, "--format", "json", "--max-n", str(n)]
    op = {"call": "cli", "argv": argv, "canon": "table", "expect": ["digest", table_key(n, view)]}
    return _job(f"table n={n} view={view}", [op])


def verify_job(n: int) -> dict[str, Any]:
    argv = ["verify", "--n", str(n), "--format", "json", "--max-n", str(n)]
    op = {"call": "cli", "argv": argv, "canon": "verify", "expect": ["digest", verify_key(n)]}
    return _job(f"verify n={n}", [op])


def stable_job(p_min: int, q_max: int) -> dict[str, Any]:
    op = {
        "call": "stable_table",
        "args": [p_min, q_max],
        "expect": ["digest", stable_key(p_min, q_max)],
    }
    return _job(f"stable p_min={p_min} q_max={q_max}", [op])


def staircase(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(n - i + 1) for i in range(1, n + 1))))


def _random_element(rng: random.Random, n: int, terms: int) -> list[list[Any]]:
    monomials = rng.sample(staircase(n), terms)
    return [[list(m), rng.choice((-3, -2, -1, 1, 2, 3))] for m in sorted(monomials)]


def power_input(n: int, k: int) -> list[list[Any]]:
    return [[[0] * (n - 1) + [k], 1]]


def elementary_input(n: int, k: int) -> list[list[Any]]:
    return [
        [[1 if j in combo else 0 for j in range(n)], 1]
        for combo in itertools.combinations(range(n), k)
    ]


def ring_job(shape: RingShape, rng: random.Random) -> dict[str, Any]:
    n = shape.n
    ops: list[dict[str, Any]] = []
    if shape.cup_terms:
        x = _random_element(rng, n, shape.cup_terms)
        y = _random_element(rng, n, shape.cup_terms)
        ops.append({"call": "cup", "n": n, "x": x, "y": y, "expect": ["same_as", 1]})
        ops.append({"call": "cup", "n": n, "x": y, "y": x, "expect": ["same_as", 0]})
    if shape.elementary:
        for k in range(1, n + 1):
            ops.append(
                {"call": "normal_form", "n": n, "expr": elementary_input(n, k), "expect": ["zero"]}
            )
    for k in shape.powers:
        # every generator satisfies (c^i)^n = 0, so powers k >= n vanish
        expect = ["zero"] if k >= n else ["digest", power_key(n, k)]
        ops.append({"call": "normal_form", "n": n, "expr": power_input(n, k), "expect": expect})
    parts = [f"ring n={n}"]
    if shape.cup_terms:
        parts.append(f"cup {shape.cup_terms}x{shape.cup_terms}")
    if shape.elementary:
        parts.append("e_k")
    if shape.powers:
        parts.append(f"powers {shape.powers[0]}..{shape.powers[-1]}")
    return _job(" ".join(parts), ops)


@dataclass(frozen=True)
class Workload:
    name: str
    cap_s: float
    make_round: Callable[[random.Random], list[dict[str, Any]]]


def _shuffled(rng: random.Random, jobs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    rng.shuffle(jobs)
    return jobs


def workloads(tiny: bool = False) -> dict[str, Workload]:
    table_ns = TINY_TABLE_NS if tiny else TABLE_NS
    verify_ns = TINY_VERIFY_NS if tiny else VERIFY_NS
    stable_args = TINY_STABLE_ARGS if tiny else STABLE_ARGS
    ring_shapes = TINY_RING_SHAPES if tiny else RING_SHAPES
    ring_cap = TINY_RING_CAP_S if tiny else CAP_S["ring"]
    return {
        "table": Workload(
            "table",
            CAP_S["table"],
            lambda rng: _shuffled(
                rng, [table_job(n, rng.choice(("hom", "cohom"))) for n in table_ns]
            ),
        ),
        "verify": Workload(
            "verify",
            CAP_S["verify"],
            lambda rng: _shuffled(rng, [verify_job(n) for n in verify_ns]),
        ),
        "stable": Workload(
            "stable",
            CAP_S["stable"],
            lambda rng: _shuffled(rng, [stable_job(*a) for a in stable_args]),
        ),
        "ring": Workload(
            "ring",
            ring_cap,
            lambda rng: _shuffled(rng, [ring_job(s, rng) for s in ring_shapes]),
        ),
    }


def all_digest_jobs(tiny: bool) -> list[dict[str, Any]]:
    """Every job whose operations are checked against stored digests."""
    table_ns = TINY_TABLE_NS if tiny else TABLE_NS
    verify_ns = TINY_VERIFY_NS if tiny else VERIFY_NS
    stable_args = TINY_STABLE_ARGS if tiny else STABLE_ARGS
    jobs = [table_job(n, view) for n in table_ns for view in ("hom", "cohom")]
    jobs += [verify_job(n) for n in verify_ns]
    jobs += [stable_job(*a) for a in stable_args]
    return jobs


def all_power_inputs(tiny: bool) -> list[tuple[int, int]]:
    shapes = TINY_RING_SHAPES if tiny else RING_SHAPES
    return sorted({(s.n, k) for s in shapes for k in s.powers if k < s.n})


# --------------------------------------------------------------------------
# the gate
# --------------------------------------------------------------------------


def check_job(job: dict[str, Any], results: list[dict[str, Any]], digests: dict[str, str]) -> list[str]:
    """Verdict per operation: "ok", "timeout", "error" or "mismatch"."""
    zero = digest(ZERO_TEXT)
    verdicts = []
    for op, res in zip(job["ops"], results):
        if res["status"] != "ok":
            verdicts.append(res["status"])
            continue
        kind = op["expect"][0]
        if kind == "digest":
            expected = digests.get(op["expect"][1])
        elif kind == "zero":
            expected = zero
        else:
            partner = results[op["expect"][1]]
            # an identity whose partner did not finish cannot be checked
            expected = partner["digest"] if partner["status"] == "ok" else res["digest"]
        verdicts.append("ok" if expected is not None and res["digest"] == expected else "mismatch")
    return verdicts
