"""Cold-job benchmark of ``conres``: a closed loop with one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table --seed 1 --seconds 24 --trace 0

Each job runs in a fresh interpreter (``child.py``), so every job starts with
cold memo caches, as a user's CLI call or a new session does; the benchmark
runs one job at a time.  A round is the workload's whole job list (see
``workloads.py``); rounds repeat while the next one is expected to end within
``--seconds``, and at least MIN_ROUNDS run unless that would overrun
``--seconds`` by more than OVERRUN.  Every operation's output goes through
the correctness gate.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds alternate between untraced and
traced, and it carries the per-layer metrics of the traced rounds.
``--workload all`` runs every workload in turn.  ``--tiny`` swaps in tiny
inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import CACHED, LAYERS  # noqa: E402
from workloads import check_job, load_digests, workloads  # noqa: E402

#: Seconds the child's calibration step takes on the reference machine (a
#: shared 2-core Xeon VM at 2.0 GHz, Python 3.11) when the host is fast.
#: Reported times are reference seconds: each job's measured times are
#: multiplied by this over the mean time of the steps taken during the job
#: and at its edges.  The mean, not the median, follows the share of time
#: the host spent in each of its speed states.  On a shared host the speed
#: drifts by 20-40% between runs; the scaling cancels most of that drift
#: (see NOTES.md).
CALIBRATION_REF_S = 0.0005
#: Rounds per run at least; with --trace 1, one untraced and one traced.
MIN_ROUNDS = 2
#: A run may take this share of --seconds at most to reach MIN_ROUNDS (except
#: for the traced round), which bounds it when the host is slow.
OVERRUN = 1.3
#: No job starts after this many seconds, and a running job is killed then,
#: so a run always ends within three minutes.
DEADLINE_S = 160.0

END_TO_END = (
    ("wall_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

#: Span metrics: span name -> reported statistics.
SPAN_METRICS = {
    "qcombinat.mul": ("calls", "self_s"),
    "qcombinat.exact_div": ("calls", "self_s"),
    "qcombinat.integer_combination": ("calls", "self_s"),
    "qcombinat.gauss_multinomial": ("calls", "self_s"),
    "flagchar.gamma_trace": ("calls", "self_s"),
    "flagchar.coinvariant_trace": ("calls",),
    "flagchar.gamma_trace_naive": ("calls", "self_s"),
    "resolution.spectral_table": ("calls", "self_s"),
    "resolution.block_poincare": ("calls", "self_s"),
    "resolution.fiber_char": ("calls", "self_s"),
    "resolution.table_cells": ("self_s",),
    "cohomring.normal_form": ("calls", "self_s"),
    "cohomring.cup": ("calls", "self_s"),
    "stab.stab_index": ("calls", "self_s"),
    "stab.cohomological_rank": ("calls", "self_s"),
    "stab.stable_table": ("calls", "self_s"),
    "cli.render": ("self_s",),
}
#: Counters: counter name -> (unit, span whose wrapper counts it).
COUNTER_METRICS = {
    "qcombinat.mul.term_products": ("count", "qcombinat.mul"),
    "qcombinat.exact_div.quotient_terms": ("count", "qcombinat.exact_div"),
    "flagchar.gamma_trace_naive.perms": ("count", "flagchar.gamma_trace_naive"),
    "flagchar.gamma_trace_naive.skipped": ("count", "flagchar.gamma_trace_naive"),
    "cohomring.normal_form.terms_in": ("count", "cohomring.normal_form"),
    "cohomring.normal_form.terms_out": ("count", "cohomring.normal_form"),
    "cohomring.cup.term_products": ("count", "cohomring.cup"),
    "cli.render.bytes_out": ("B", "cli.render"),
}
UNITS = {"calls": "count", "self_s": "s", "hits": "count", "misses": "count", "hit_ratio": "ratio"}


def per_layer_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{span}.{stat}", UNITS[stat]) for span, stats in SPAN_METRICS.items() for stat in stats]
    out += [(name, unit) for name, (unit, _) in COUNTER_METRICS.items()]
    out += [(f"{name}.{stat}", UNITS[stat]) for _, _, name in CACHED for stat in ("hits", "misses", "hit_ratio")]
    out += [(f"{layer}.{stat}", "s" if stat == "self_s" else "count") for layer in LAYERS for stat in ("self_s", "errors")]
    out += [("trace_overhead_ratio", "ratio"), ("traced_job_s", "s"), ("untraced_job_s", "s")]
    return out


# --------------------------------------------------------------------------
# jobs and rounds
# --------------------------------------------------------------------------


def run_job(job: dict[str, Any], cap_s: float, trace: bool, deadline: float) -> dict[str, Any]:
    spec = {"cap_s": cap_s, "trace": trace, "ops": job["ops"]}
    limit = max(1.0, min(cap_s * len(job["ops"]) + 60.0, deadline - time.monotonic()))
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(HERE / "child.py"), str(SRC), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return _failed_job(job, "timeout", time.monotonic_ns() - spawn_ns, "killed at the job limit")
    wall_ns = time.monotonic_ns() - spawn_ns
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failed_job(job, "error", wall_ns, err.strip()[-500:])
    report = json.loads(lines[-1])
    return {
        "label": job["label"],
        "scale": CALIBRATION_REF_S / statistics.fmean(report["calibration_s"]),
        "setup_scale": CALIBRATION_REF_S / statistics.fmean(report["setup_calibration_s"]),
        "capped_s": sum(op["s"] for op in report["ops"] if op["status"] == "timeout"),
        "wall_s": wall_ns / 1e9 - report["calibration_busy_s"],
        "setup_s": (report["import_ns"] - spawn_ns) / 1e9,
        "job_s": sum(op["s"] for op in report["ops"]),
        "rss_mb": report["rss_kb"] / 1024,
        "ops": report["ops"],
        "trace": report["trace"],
    }


def _failed_job(job: dict[str, Any], status: str, wall_ns: int, detail: str) -> dict[str, Any]:
    print(f"job {job['label']!r} failed ({status}): {detail}", file=sys.stderr)
    ops = [{"status": status, "s": 0.0, "sampled_s": 0.0, "error": detail} for _ in job["ops"]]
    wall_s = wall_ns / 1e9
    return {
        "label": job["label"],
        "scale": 1.0,
        "setup_scale": 1.0,
        "capped_s": 0.0,
        "wall_s": wall_s,
        "setup_s": None,
        "job_s": wall_s,
        "rss_mb": None,
        "ops": ops,
        "trace": None,
    }


def calibrated(seconds: float, job: dict[str, Any]) -> float:
    """Reference seconds; time spent up to the cap in timed-out operations
    is wall-clock time on any host and is not scaled."""
    return (seconds - job["capped_s"]) * job["scale"] + job["capped_s"]


def run_rounds(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict[str, Any]:
    workload = workloads(tiny)[name]
    digests = load_digests()
    rng = random.Random(seed)
    per_round = len(workload.make_round(random.Random(0)))
    rounds: list[dict[str, Any]] = []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    job_id = 0
    while True:
        elapsed = time.monotonic() - start
        if rounds:
            expected_end = elapsed + statistics.median(r["elapsed_s"] for r in rounds)
            if len(rounds) >= MIN_ROUNDS and expected_end > seconds:
                break
            if expected_end > OVERRUN * seconds and not (trace and len(rounds) == 1):
                break
        if elapsed > DEADLINE_S:
            break
        traced = trace and len(rounds) % 2 == 1
        jobs = workload.make_round(rng)
        round_start = time.perf_counter()
        results = []
        for job in jobs:
            if time.monotonic() > deadline:
                break
            job_id += 1
            result = run_job(job, workload.cap_s, traced, deadline)
            result["verdicts"] = check_job(job, result["ops"], digests)
            result["id"] = job_id
            results.append(result)
        rounds.append(
            {
                "traced": traced,
                "complete": len(results) == len(jobs),
                "elapsed_s": time.perf_counter() - round_start,
                "wall_s": sum(calibrated(j["wall_s"], j) for j in results),
                "jobs": results,
            }
        )
    return {"workload": workload, "rounds": rounds, "per_round": per_round}


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def _quantile(values: list[float], level: float) -> float:
    """Quantile of sorted values with the midpoint rule: value i sits at
    level (i + 0.5) / n, linear in between."""
    pos = min(max(level * len(values) - 0.5, 0.0), len(values) - 1.0)
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(run: dict[str, Any]) -> tuple[dict[str, Any], list[str]]:
    rounds = [r for r in run["rounds"] if not r["traced"]]
    complete = [r for r in rounds if r["complete"]] or rounds
    jobs = [j for r in run["rounds"] for j in r["jobs"]]
    job_times = sorted(calibrated(j["job_s"], j) for r in complete for j in r["jobs"])
    # A run holds a few rounds of 3 to 6 jobs, too few for a percentile with
    # ten jobs beyond it.  The tail is the percentile in the middle of the
    # slowest job of the mix, interpolated (the median of that job's times):
    # its level depends only on the mix, not on how many rounds fit.
    level = 1 - 1 / (2 * run["per_round"])
    tail = _quantile(job_times, level)
    verdicts = [v for j in jobs for v in j["verdicts"]]
    ok = sum(v == "ok" for v in verdicts)
    setups = [j["setup_s"] * j["setup_scale"] for j in jobs if j["setup_s"] is not None]
    rss = [j["rss_mb"] for j in jobs if j["rss_mb"] is not None]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in complete),
        "job_s_p50": statistics.median(job_times),
        "job_s_tail": tail,
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": max(rss) if rss else float("nan"),
        "ok_ratio": ok / len(verdicts),
    }
    raw_wall = statistics.median(sum(j["wall_s"] for j in r["jobs"]) for r in complete)
    notes = {
        "wall_s": f"median of {len(complete)} rounds (uncalibrated {raw_wall:.3f} s)",
        "job_s_p50": f"median of {len(job_times)} jobs",
        "job_s_tail": f"p{100 * level:.0f} of {len(job_times)} jobs, {len(job_times) * (1 - level):.1f} beyond it",
        "setup_s": f"median of {len(setups)} interpreter starts",
        "peak_rss_mb": f"largest of {len(rss)} jobs",
        "ok_ratio": f"{ok} of {len(verdicts)} operations",
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
    lines = [f"  {name:<12} {values[name]:>12.6g} {unit:<6} {notes[name]}" for name, unit in END_TO_END]
    speed = statistics.median(1 / j["scale"] for j in jobs)
    lines.append(f"  times are reference seconds; this host ran at {speed:.3f} x the reference time")
    return metrics, lines


def _round_totals(rnd: dict[str, Any]) -> dict[str, Any]:
    totals: dict[str, Any] = {key: Counter() for key in ("calls", "self_ns", "counters", "errors", "hits", "misses")}
    absent: set[str] = set()
    for job in rnd["jobs"]:
        trace = job["trace"]
        if trace is None:
            continue
        for key in ("calls", "self_ns", "counters", "errors"):
            totals[key].update(trace[key])
        for name, (hits, misses) in trace["cache"].items():
            totals["hits"][name] += hits
            totals["misses"][name] += misses
        absent.update(trace["absent"])
    totals["self_s"] = {name: ns / 1e9 for name, ns in totals["self_ns"].items()}
    totals["absent"] = absent
    return totals


def _in_call_s(rnd: dict[str, Any]) -> float:
    return sum(op["s"] + op["sampled_s"] for j in rnd["jobs"] for op in j["ops"])


def per_layer(run: dict[str, Any]) -> tuple[dict[str, Any], list[str]]:
    traced = [r for r in run["rounds"] if r["traced"]]
    untraced = [r for r in run["rounds"] if not r["traced"]]
    totals = [_round_totals(r) for r in traced]
    absent = set().union(*(t["absent"] for t in totals))

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    values: dict[str, float] = {}
    for span, stats in SPAN_METRICS.items():
        if span in absent:
            continue
        for stat in stats:
            values[f"{span}.{stat}"] = mean([t[stat].get(span, 0) for t in totals])
    for name, (_, span) in COUNTER_METRICS.items():
        if span not in absent and f"{span} counter" not in absent:
            values[name] = mean([t["counters"].get(name, 0) for t in totals])
    for _, _, name in CACHED:
        if f"{name} cache" in absent:
            continue
        hits = sum(t["hits"][name] for t in totals)
        misses = sum(t["misses"][name] for t in totals)
        values[f"{name}.hits"] = hits / len(totals)
        values[f"{name}.misses"] = misses / len(totals)
        values[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = mean(
            [sum(v for k, v in t["self_s"].items() if k.split(".")[0] == layer) for t in totals]
        )
        values[f"{layer}.errors"] = mean([t["errors"].get(layer, 0) for t in totals])
    values["trace_overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in untraced
    )
    # in-call time as the spans see it: uncalibrated, with the speed samples
    values["traced_job_s"] = mean([_in_call_s(r) for r in traced])
    values["untraced_job_s"] = mean([_in_call_s(r) for r in untraced])
    metrics = {name: _metric(values[name], unit) for name, unit in per_layer_catalogue() if name in values}
    lines = [f"  {name:<42} {m['value']:>14.6g} {m['unit']}" for name, m in metrics.items()]
    if absent:
        lines.append(f"  absent (renamed or removed in the code): {', '.join(sorted(absent))}")
    return metrics, lines


def write_spans(run: dict[str, Any], seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{run['workload'].name}-seed{seed}.tsv.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("job\tspan\tparent\tname\tstart_ns\tend_ns\n")
        for rnd in run["rounds"]:
            for job in rnd["jobs"]:
                for span in (job["trace"] or {}).get("spans", ()):
                    fh.write(f"{job['id']}\t" + "\t".join(map(str, span)) + "\n")
    return path


def write_jobs(run: dict[str, Any], seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"jobs-{run['workload'].name}-seed{seed}.json"
    path.write_text(json.dumps(run["rounds"], indent=1) + "\n")
    return path


def report(run: dict[str, Any], trace: bool, seed: int) -> tuple[dict[str, Any], list[str]]:
    jobs = [j for r in run["rounds"] for j in r["jobs"]]
    verdicts = [(j["label"], i, v) for j in jobs for i, v in enumerate(j["verdicts"])]
    failed = [(label, i, v) for label, i, v in verdicts if v != "ok"]
    correct = not any(v in ("mismatch", "error") for _, _, v in failed)
    workload = run["workload"]
    head = (
        f"workload {workload.name}: {len(run['rounds'])} rounds, {len(jobs)} jobs, "
        f"{len(verdicts)} operations, {len(failed)} failed, correct={correct}"
    )
    if trace:
        metrics, lines = per_layer(run)
        lines.append(f"  spans written to {write_spans(run, seed).relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(run)
        lines.append(f"  job records written to {write_jobs(run, seed).relative_to(ROOT)}")
    if failed:
        counts = Counter(failed)
        lines.append(f"  failed operations (cap {workload.cap_s} s):")
        lines += [f"    {label} op {i}: {v} x{c}" for (label, i, v), c in sorted(counts.items())]
    result = {"correct": correct, "attempted": len(verdicts), "failed": len(failed), "metrics": metrics}
    return result, [head] + lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table", "verify", "stable", "ring", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if not (SRC / "conres" / "__init__.py").is_file():
        print(f"no conres package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads()) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = run_rounds(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        results[name], lines = report(run, bool(args.trace), args.seed)
        print("\n".join(lines), flush=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
