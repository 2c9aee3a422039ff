"""Span tracer for one benchmark job, installed from outside the package.

``install`` replaces each traced entry point of ``conres`` by a wrapper: a
module-level function is re-bound under every name that holds it in any
``conres`` module (so ``from .resolution import spectral_table`` in ``stab``
is traced too), and a method is replaced on its class.  A name that no longer
exists is skipped and listed in ``absent``; its metrics are then missing from
the report instead of breaking the run.

A span records (id, parent id, name, start, end); spans stay in memory until
the job ends.  A span's self time is its duration minus the time its child
spans cover, so the self times of the root spans' subtrees add up to the
time spent inside traced calls.  Cache hits and misses are ``cache_info()``
deltas of the memoized functions over the job.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from math import factorial, prod
from typing import Any, Callable

Counter = Callable[["Tracer", tuple, Any], None]


def _nterms(poly: Any) -> int:
    coeffs = getattr(poly, "_coeffs", None)
    return len(coeffs) if type(coeffs) is dict else len(poly.items())


def _count_mul(tracer: "Tracer", args: tuple, result: Any) -> None:
    if not isinstance(args[1], int):
        tracer.count("qcombinat.mul.term_products", _nterms(args[0]) * _nterms(args[1]))


def _count_exact_div(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("qcombinat.exact_div.quotient_terms", _nterms(result))


def _count_naive(tracer: "Tracer", args: tuple, result: Any) -> None:
    A, n = args[0], args[1]
    order = prod(factorial(a) for a in A.parts) * factorial(n - sum(A.parts))
    tracer.count("flagchar.gamma_trace_naive.perms", order)


def _count_normal_form(tracer: "Tracer", args: tuple, result: Any) -> None:
    expr = args[0]
    tracer.count("cohomring.normal_form.terms_in", len(getattr(expr, "terms", expr)))
    tracer.count("cohomring.normal_form.terms_out", len(result.terms))


def _count_cup(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("cohomring.cup.term_products", len(args[0].terms) * len(args[1].terms))


def _count_render(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.count("cli.render.bytes_out", len(result.encode()))


#: Wrapped entry points: (module, attribute path, span name, counter).
#: The layer of a span is the first component of its name.
TRACED: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("qcombinat", "_SparsePoly.__mul__", "qcombinat.mul", _count_mul),
    ("qcombinat", "_SparsePoly.exact_div", "qcombinat.exact_div", _count_exact_div),
    ("qcombinat", "_SparsePoly.__add__", "qcombinat.add", None),
    ("qcombinat", "_SparsePoly.__sub__", "qcombinat.sub", None),
    ("qcombinat", "integer_combination", "qcombinat.integer_combination", None),
    ("qcombinat", "gauss_multinomial", "qcombinat.gauss_multinomial", None),
    ("qcombinat", "q_pochhammer", "qcombinat.q_pochhammer", None),
    ("qcombinat", "multiindices", "qcombinat.multiindices", None),
    ("qcombinat", "conjugacy_classes", "qcombinat.conjugacy_classes", None),
    ("flagchar", "coinvariant_trace", "flagchar.coinvariant_trace", None),
    ("flagchar", "gamma_trace", "flagchar.gamma_trace", None),
    ("flagchar", "gamma_trace_naive", "flagchar.gamma_trace_naive", _count_naive),
    ("flagchar", "gamma_character", "flagchar.gamma_character", None),
    ("flagchar", "gamma_poincare", "flagchar.gamma_poincare", None),
    ("resolution", "spectral_table", "resolution.spectral_table", None),
    ("resolution", "block_poincare", "resolution.block_poincare", None),
    ("resolution", "fiber_char", "resolution.fiber_char", None),
    ("resolution", "h_poly", "resolution.h_poly", None),
    ("resolution", "total_discriminant_poincare", "resolution.total_discriminant_poincare", None),
    ("resolution", "link_poincare", "resolution.link_poincare", None),
    ("resolution", "miller_check", "resolution.miller_check", None),
    ("resolution", "verify", "resolution.verify", None),
    ("resolution", "SpectralTable.cells", "resolution.table_cells", None),
    ("resolution", "SpectralTable.breakdown", "resolution.table_cells", None),
    ("resolution", "SpectralTable.rank", "resolution.table_cells", None),
    ("resolution", "SpectralTable.total", "resolution.table_total", None),
    ("cohomring", "normal_form", "cohomring.normal_form", _count_normal_form),
    ("cohomring", "cup", "cohomring.cup", _count_cup),
    ("stab", "stab_index", "stab.stab_index", None),
    ("stab", "e1_stable_bound", "stab.e1_stable_bound", None),
    ("stab", "cohomological_rank", "stab.cohomological_rank", None),
    ("stab", "stable_table", "stab.stable_table", None),
    ("cli", "main", "cli.main", None),
    ("cli", "OutputDocument.render", "cli.render", _count_render),
)

#: Memoized functions whose cache_info() deltas are reported.
CACHED: tuple[tuple[str, str, str], ...] = (
    ("qcombinat", "q_pochhammer", "qcombinat.q_pochhammer"),
    ("flagchar", "coinvariant_trace", "flagchar.coinvariant_trace"),
    ("flagchar", "gamma_trace", "flagchar.gamma_trace"),
    ("resolution", "h_poly", "resolution.h_poly"),
    ("stab", "stab_index", "stab.stab_index"),
)

LAYERS = ("qcombinat", "flagchar", "resolution", "cohomring", "stab", "cli")


class Tracer:
    """Spans and counters of one job; only records while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.absent: list[str] = []
        self._stack: list[list[Any]] = []  # [span id, name, start, child ns]
        self._next_id = 1
        self._cached: dict[str, Any] = {}
        self._cache_start: dict[str, tuple[int, int]] = {}

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self, exc: BaseException | None) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans.append((span_id, parent_id, name, start, end))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if exc is not None and not getattr(exc, "_perfbench_seen", False):
            # an exception passes through every enclosing span; count it at
            # the innermost one only.  The mark lives on the exception, as an
            # id() could be reused by a later one once this one is freed.
            exc._perfbench_seen = True
            if any(c.__name__ == "ConsistencyError" for c in type(exc).__mro__):
                self.errors[name.split(".")[0]] += 1
            elif type(exc).__name__ == "BudgetExceededError":
                self.count(f"{name}.skipped")

    def unwind(self) -> None:
        """Close spans a timeout cut off between a span's start and its
        wrapper's exception handler."""
        while self._stack:
            self._exit(None)

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn: Callable, name: str, counter: Counter | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(exc)
                raise
            if counter is not None:
                tracer._apply(counter, name, args, result)
            tracer._exit(None)
            if inspect.isgenerator(result):
                return tracer._resumed(result, name)
            return result

        return wrapper

    def _apply(self, counter: Counter, name: str, args: tuple, result: Any) -> None:
        # a counter that no longer fits the code it reads is reported absent
        try:
            counter(self, args, result)
        except Exception:
            if f"{name} counter" not in self.absent:
                self.absent.append(f"{name} counter")

    def _resumed(self, gen: Any, name: str) -> Any:
        # a generator's work happens when it is resumed: one span per resume
        while True:
            self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                self._exit(None)
                return
            except BaseException as exc:
                self._exit(exc)
                raise
            self._exit(None)
            yield item

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items()) if k == "conres" or k.startswith("conres.")]
        for module_name, attr, name in CACHED:
            fn = getattr(sys.modules.get(f"conres.{module_name}"), attr, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self.absent.append(f"{name} cache")
                continue
            self._cached[name] = fn
            info = fn.cache_info()
            self._cache_start[name] = (info.hits, info.misses)
        installed, missing = set(), set()
        for module_name, path, name, counter in TRACED:
            module = sys.modules.get(f"conres.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                missing.add(name)
                continue
            installed.add(name)
            wrapper = self._wrap(original, name, counter)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        # a span over several methods stays while any of them exists
        self.absent += sorted(missing - installed)

    def cache_deltas(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            hits0, misses0 = self._cache_start[name]
            out[name] = (info.hits - hits0, info.misses - misses0)
        return out

    def report(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "counters": self.counters,
            "errors": self.errors,
            "cache": self.cache_deltas(),
            "absent": self.absent,
            "spans": self.spans,
        }
