"""Run one benchmark job in a fresh interpreter and report it as one JSON line.

Usage: ``python3 -I perfbench/child.py SRC_DIR JOB_JSON``.  The job is a list
of operations (see ``workloads.py``); each is one call of a public entry point
of ``conres``, timed around the call and cut off by a SIGALRM timer at the
job's cap.  The output of each finished operation is reduced to a canonical
text and sent back as a digest; the parent compares it.  A calibration step
is timed right after the import, every SAMPLE_CPU_S of CPU time during the
job and after the last operation, with the garbage collector off.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


class OperationTimeout(BaseException):
    """Raised by the cap timer; a BaseException so no library handler eats it."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise OperationTimeout()


def _ring_text(element: Any) -> str:
    return json.dumps([[list(m), c] for m, c in sorted(element.terms)], separators=(",", ":"))


def _cli_text(canon: str, code: int, out: str) -> str:
    try:
        payload = json.loads(out)["payload"]
    except (ValueError, KeyError):
        return json.dumps({"exit": code, "raw": out})
    if canon == "verify":
        payload = {
            "n": payload["n"],
            "passed": payload["passed"],
            "checks": [[c["name"], c["location"], c["passed"]] for c in payload["checks"]],
        }
    return json.dumps({"exit": code, "payload": payload}, sort_keys=True, separators=(",", ":"))


def run_op(conres: Any, op: dict[str, Any]) -> tuple[Any, Any]:
    """Prepare the arguments (untimed) and return (call, canonicalize)."""
    call = op["call"]
    if call == "cli":
        out = io.StringIO()

        def invoke() -> tuple[int, str]:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = conres.cli.main(op["argv"])
            return code, out.getvalue()

        return invoke, lambda r: _cli_text(op["canon"], r[0], r[1])
    if call == "stable_table":
        p_min, q_max = op["args"]
        return (
            lambda: conres.stable_table(p_min, q_max),
            lambda cells: json.dumps([[c.p, c.q, c.bound_n, c.rank] for c in cells]),
        )
    n = op["n"]
    if call == "cup":
        x = conres.RingElement(n, tuple(sorted((tuple(m), c) for m, c in op["x"])))
        y = conres.RingElement(n, tuple(sorted((tuple(m), c) for m, c in op["y"])))
        return lambda: conres.cup(x, y), _ring_text
    if call == "normal_form":
        expr = {tuple(m): c for m, c in op["expr"]}
        return lambda: conres.normal_form(expr, n), _ring_text
    raise ValueError(f"unknown call {call!r}")


#: Calibration steps timed right after the import; they scale setup_s.
SETUP_STEPS = 30
#: Steps timed right before the first and after the last operation that,
#: with the steps timed during the job, scale the job's times.  The steps at
#: the edges take a few ms and stand for no more of the job than that.
EDGE_STEPS = 5
#: CPU seconds between the calibration steps timed while the job runs.
SAMPLE_CPU_S = 0.025

_CALIBRATION_POLY = {i: (i * 7919) % 101 - 50 for i in range(40)}
_CALIBRATION_WEIGHT = Fraction(1, 3)


def calibration_step() -> float:
    """Seconds taken by a fixed step like the polynomial core's work: a
    product of two sparse integer polynomials held in dicts, and a sum with
    Fraction weights (about half a millisecond)."""
    a, w = _CALIBRATION_POLY, _CALIBRATION_WEIGHT
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    weighted: dict[int, Fraction] = {}
    for e, c in acc.items():
        weighted[e] = weighted.get(e, Fraction(0)) + w * c
    return time.perf_counter() - start


def calibrate(steps: int) -> list[float]:
    """Time the calibration step ``steps`` times with the garbage collector
    off, so that collections of the program's heap stay out of the samples."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [calibration_step() for _ in range(steps)]
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Times the calibration step every SAMPLE_CPU_S of CPU time while the
    job runs, so the samples follow the host's speed through the job."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0  # time spent sampling, subtracted from the job's times

    def _tick(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self.samples += calibrate(1)
        self.busy_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)


def main(argv: list[str]) -> int:
    src, job = argv[1], json.loads(argv[2])
    sys.path.insert(0, src)
    sys.path.insert(0, str(HERE))
    import conres
    import conres.cli

    import_ns = time.monotonic_ns()
    if Path(conres.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"imported conres from {conres.__file__}, not from {src}")
    from workloads import digest

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    setup = calibrate(SETUP_STEPS)
    sampler = SpeedSampler()
    sampler.start()
    results = []
    for op in job["ops"]:
        invoke, canonical = run_op(conres, op)
        status, error, result = "ok", "", None
        if tracer is not None:
            tracer.active = True
        signal.setitimer(signal.ITIMER_REAL, job["cap_s"])
        busy = sampler.busy_s
        start = time.perf_counter()
        try:
            try:
                result = invoke()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OperationTimeout:
            status = "timeout"
        except Exception as exc:  # reported as a failed operation
            status, error = "error", f"{type(exc).__name__}: {exc}"
        sampled = sampler.busy_s - busy
        elapsed = time.perf_counter() - start - sampled
        if tracer is not None:
            tracer.active = False
            tracer.unwind()
        entry: dict[str, Any] = {"status": status, "s": elapsed, "sampled_s": sampled}
        if status == "ok":
            entry["digest"] = digest(canonical(result))
        if error:
            entry["error"] = error[:500]
        results.append(entry)
    sampler.stop()
    after = calibrate(EDGE_STEPS)
    report = {
        "import_ns": import_ns,
        "setup_calibration_s": setup,
        "calibration_s": setup[-EDGE_STEPS:] + sampler.samples + after,
        "calibration_busy_s": sum(setup) + sampler.busy_s + sum(after),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": results,
        "trace": tracer.report() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
