"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ZERO_TEXT, check_job, digest  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seconds", "1", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_benchmark_prints() -> None:
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == run.per_layer_catalogue()
    assert max(m["bound"] for m in BENCH["end_to_end"]) == next(
        m["bound"] for m in BENCH["end_to_end"] if m["name"] == "setup_s"
    )
    assert WORKLOADS == list(run.workloads())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_runs_tiny_and_prints_every_metric(workload: str) -> None:
    proc = bench("--workload", workload, "--seed", "3", "--tiny")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    units = dict(run.END_TO_END)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert name in proc.stdout.splitlines()[1 + list(units).index(name)]
    if workload == "ring":
        # the tiny mix keeps one cup on the normal-form cliff, which hits the cap
        assert result["failed"] == 2 * (result["attempted"] // 22)
    else:
        assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload: str) -> None:
    result = result_of(bench("--workload", workload, "--seed", "4", "--tiny", "--trace", "1"))
    assert result["correct"] is True
    metrics = result["metrics"]
    assert [(k, m["unit"]) for k, m in metrics.items()] == run.per_layer_catalogue()
    layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in run.LAYERS)
    traced = metrics["traced_job_s"]["value"]
    assert layers == pytest.approx(traced, rel=0.05)
    root_layer = {"table": "cli", "verify": "cli", "stable": "stab", "ring": "cohomring"}[workload]
    assert metrics[f"{root_layer}.self_s"]["value"] > 0


def copy_checkout(tmp_path: Path, with_program: bool) -> Path:
    """A checkout in tmp_path holding BENCHMARK.json and perfbench/, and src/
    when ``with_program``."""
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


@pytest.mark.parametrize(
    ("workload", "keys"),
    [("table", ["table:n=5:view=hom", "table:n=5:view=cohom"]), ("ring", ["ring:power:n=4:k=2"])],
)
def test_corrupted_digest_is_caught_by_the_gate(tmp_path: Path, workload: str, keys: list[str]) -> None:
    # a stored digest that the program's output does not match stands for a
    # wrong output: the gate must report it
    checkout = copy_checkout(tmp_path, with_program=True)
    digest_file = checkout / "perfbench" / "digests.json"
    digests = json.loads(digest_file.read_text())
    for key in keys:
        digests[key] = digest("not the canonical output")
    digest_file.write_text(json.dumps(digests))
    result = result_of(bench("--workload", workload, "--seed", "5", "--tiny", cwd=checkout))
    assert result["correct"] is False
    assert result["failed"] > 0


def test_gate_verdicts() -> None:
    job = {
        "ops": [
            {"expect": ["digest", "k"]},
            {"expect": ["zero"]},
            {"expect": ["same_as", 3]},
            {"expect": ["same_as", 2]},
            {"expect": ["digest", "missing"]},
        ]
    }
    results = [
        {"status": "ok", "digest": "d1"},
        {"status": "ok", "digest": digest(ZERO_TEXT + " ")},
        {"status": "ok", "digest": "x"},
        {"status": "ok", "digest": "y"},
        {"status": "timeout", "s": 1.0},
    ]
    assert check_job(job, results, {"k": "d1"}) == ["ok", "mismatch", "mismatch", "mismatch", "timeout"]


@contextlib.contextmanager
def installed_tracer() -> Iterator[Tracer]:
    """A tracer installed in this process's ``conres``, removed on exit."""
    import conres.cli
    from conres import qcombinat, resolution

    saved = {
        cls: dict(vars(cls))
        for cls in (qcombinat._SparsePoly, resolution.SpectralTable, conres.cli.OutputDocument)
    }
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("conres")}
    tracer = Tracer()
    try:
        tracer.install()
        yield tracer
    finally:
        # undo the wrapping so later imports see the plain package
        for owner, attrs in [*saved.items(), *((sys.modules[n], a) for n, a in modules.items())]:
            for key, value in attrs.items():
                if vars(owner).get(key) is not value:
                    setattr(owner, key, value)


def test_tracer_reports_a_removed_name_as_absent(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from conres import qcombinat, resolution

    monkeypatch.delattr(qcombinat, "integer_combination")
    monkeypatch.delattr(resolution.SpectralTable, "breakdown")
    with installed_tracer() as tracer:
        pass
    assert "qcombinat.integer_combination" in tracer.absent
    # the other two methods behind the same span are still traced
    assert "resolution.table_cells" not in tracer.absent
    trace = {"calls": {}, "self_ns": {}, "counters": {}, "errors": {}, "cache": {}, "absent": tracer.absent}
    job = {"job_s": 1.0, "ops": [{"s": 1.0, "sampled_s": 0.0}], "trace": trace}
    rounds = [
        {"traced": False, "wall_s": 1.0, "jobs": [dict(job, trace=None)]},
        {"traced": True, "wall_s": 1.1, "jobs": [job]},
    ]
    metrics, _ = run.per_layer({"rounds": rounds})
    assert "qcombinat.integer_combination.calls" not in metrics
    assert "qcombinat.mul.calls" in metrics


def test_tracer_counts_every_class_over_the_oracle_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from conres import qcombinat, resolution

    n, budget = 6, 24
    over = [
        A
        for A in qcombinat.multiindices(n, n - 1)
        if math.prod(math.factorial(a) for a in A.parts) * math.factorial(n - A.size) > budget
    ]
    expected = sum(len(qcombinat.conjugacy_classes(A)) for A in over)
    with installed_tracer() as tracer:
        tracer.active = True
        resolution.verify(n, checks=("gamma-oracle",), budget=budget)
        tracer.active = False
    assert expected > 1
    assert tracer.counters["flagchar.gamma_trace_naive.skipped"] == expected


def test_fails_without_the_program(tmp_path: Path) -> None:
    proc = bench("--workload", "table", "--seed", "1", cwd=copy_checkout(tmp_path, with_program=False))
    assert proc.returncode != 0
    assert "{" not in proc.stdout
