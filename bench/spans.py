"""Outside-in layer tracing.

While a ``Tracer`` is installed it replaces public functions of the program's
modules with wrappers that record a timing span around each call.  The
modules look each other up through module attributes (``ser.expand``,
``fun.evaluate``) and module globals, so the wrappers also see the calls the
layers make to each other.  Spans are aggregated in memory per function; a
parent stack gives each span's self time (its duration minus the time of the
traced calls inside it).  Counters are read from arguments and return values.
"""

from __future__ import annotations

import inspect
import time
from collections import Counter, defaultdict

#: Program module -> public functions wrapped in spans.
TRACED = {
    "series": ("expand", "oracle_expand", "torus_bound_check", "majorant_tail_bound"),
    "functionals": ("evaluate", "area_term"),
    "verify": (
        "theorem_sweep", "sharpness_scan", "radius_search",
        "lemma1a_check", "lemma1b_check", "lemma1c_check",
    ),
    "cli": ("main",),
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counters: Counter = Counter()
        self.expand_keys: set = set()
        self._stack: list[list] = []  # [name, child seconds]
        self._saved: list[tuple] = []
        self._signatures: dict = {}

    def __enter__(self):
        for mod_name, names in TRACED.items():
            module = self.modules[mod_name]
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(f"{mod_name}.{name}", original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        on_return = getattr(self, "_on_" + span.replace(".", "_"), None)
        self._signatures[span] = inspect.signature(fn)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if span == "functionals.evaluate" and any(f[0] == "verify.radius_search" for f in stack):
                self.counters["evaluate_in_search"] += 1
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.calls[span] += 1
                self.total[span] += elapsed
                self.self_time[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Counters read from arguments and return values.

    def _arguments(self, span, args, kwargs) -> dict:
        bound = self._signatures[span].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _on_series_expand(self, args, kwargs, result):
        named = self._arguments("series.expand", args, kwargs)
        self.expand_keys.add((named["family"], named["K"]))
        self.counters["coeffs_built"] += len(getattr(result, "coeffs", ()))

    def _on_series_oracle_expand(self, args, kwargs, result):
        self.counters["coeffs_built"] += len(getattr(result, "coeffs", ()))

    def _on_series_torus_bound_check(self, args, kwargs, result):
        named = self._arguments("series.torus_bound_check", args, kwargs)
        self.counters["torus_points"] += named["samples_per_axis"] ** named["series"].n

    def _on_functionals_evaluate(self, args, kwargs, result):
        self.counters["closed_form"] += bool(result.closed_form)

    def _on_verify_theorem_sweep(self, args, kwargs, result):
        self.counters["sweep_rows"] += len(result.rows)

    def _on_verify_sharpness_scan(self, args, kwargs, result):
        self.counters["scan_rows"] += len(result.rows)

    def _on_verify_radius_search(self, args, kwargs, result):
        self.counters["bisection_steps"] += result.iterations

    def self_ms(self, *spans: str) -> float:
        return 1000.0 * sum(self.self_time[s] for s in spans)

    def table(self) -> dict:
        """Per-span calls, total and self seconds, for the trace file."""
        return {
            span: {"calls": self.calls[span], "total_s": self.total[span], "self_s": self.self_time[span]}
            for span in sorted(self.calls)
        }
