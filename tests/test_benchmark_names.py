"""The names the benchmark's per-layer metrics read still exist in ``conres``.

``perfbench/tracer.py`` wraps entry points by name and reports a name that no
longer resolves as absent instead of failing, so a rename or a dropped memo
would silently empty a metric.  This reads the tracer's tables (without
changing them) and requires every name behind a metric that
``BENCHMARK.json`` declares to resolve the way the tracer resolves it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_spans():
    # a per-layer metric is "<span or memo name>.<statistic>"
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"].rpartition(".")[0] for m in metrics}


def test_every_traced_name_behind_a_metric_resolves():
    tracer = _tracer()
    read = _read_spans()
    checked = 0
    for module_name, path, name, _ in tracer.TRACED:
        if name not in read:
            continue
        module = importlib.import_module(f"conres.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        assert attr in vars(owner), f"{name}: conres.{module_name}.{path} is gone"
        checked += 1
    assert checked


def test_every_cached_name_behind_a_metric_is_memoized():
    tracer = _tracer()
    read = _read_spans()
    cached = [entry for entry in tracer.CACHED if entry[2] in read]
    assert cached
    for module_name, attr, name in cached:
        fn = getattr(importlib.import_module(f"conres.{module_name}"), attr, None)
        assert hasattr(fn, "cache_info"), f"{name}: conres.{module_name}.{attr} has no memo"
