"""Outside-in layer tracer for the `cmshift` modules.

Installing it rebinds, in every loaded `cmshift` module, each public
function of a layer module under every name it has (the library uses
`from .x import f`, so a name in `cli` or `suspension` is a separate
binding).  It also wraps the `LogLinear` methods, `ShiftSpec.is_allowed`
and `MeasureSequence.term`, and wraps generator functions so that each
`next()` is one call.  Nothing under `src/` changes.

A call that crosses from one layer into another opens a span; a call
within the same layer is only counted, so hot primitives cost one
counter bump.  Self time is span time minus the time of child spans in
other layers, so the layer self times add up to the time of the
outermost spans (the `cli.main` calls).  Cross-layer calls are kept as
per-(function, caller layer) aggregates; non-hot ones also keep one span
record each, held in memory and written out when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "suspension", "asymptotics", "measures", "shifts", "exactval")

# wrapped callables that run per word, per term or per comparison: they
# get aggregates only, never one span record per call
HOT_PREFIXES = ("exactval.LogLinear.",)
HOT = {
    "shifts.is_admissible", "shifts.successors", "shifts.successor_iter.next",
    "shifts.row_continues_beyond", "shifts.ShiftSpec.is_allowed",
    "measures.measure_of_cylinder", "measures.combo_of_cylinder",
    "measures.canonical_cylinder_iter.next", "measures.measure_from_cycle",
    "measures.convex_combination", "measures.periodic_orbit",
    "asymptotics.MeasureSequence.term", "suspension.roof_eval",
}
# always timed, also when called from their own layer
TIMED = {"exactval.LogLinear.__add__", "exactval.LogLinear.sign",
         "exactval.LogLinear.eval_interval", "measures.canonical_cylinder_iter.next"}
EXHAUSTED = ("EscapeSearchError", "NotEnoughLoopsError")
MAX_SPANS = 200_000


class LayerTracer:
    def __init__(self):
        self.task = ""
        self.stack: list[list] = []  # [layer, t0, child_s, span_id]
        self.self_s: Counter = Counter()
        self.entries: Counter = Counter()  # cross-layer calls into each layer
        self.count: Counter = Counter()  # every call, by key
        self.time: Counter = Counter()  # TIMED keys: every call's duration
        self.agg: dict = defaultdict(lambda: [0, 0.0])  # (key, caller) -> [calls, s]
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.n = Counter()  # named counters that need a look at values
        self.log_terms_max = 0
        self._in_sign = 0
        self._in_canonical = 0

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "cmshift" or name.startswith("cmshift.")]
        for layer in LAYERS:
            mod = sys.modules[f"cmshift.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(fn, layer, f"{layer}.{name}")
                for m in mods:
                    for alias, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, alias, wrapped)
        from cmshift.asymptotics import MeasureSequence
        from cmshift.exactval import LogLinear
        from cmshift.shifts import ShiftSpec

        self._wrap_method(ShiftSpec, "is_allowed", "shifts")
        self._wrap_method(MeasureSequence, "term", "asymptotics")
        skip = {"__init__", "__repr__", "__setattr__", "__delattr__", "__hash__",
                "__post_init__", "__getstate__", "__setstate__"}
        done = {}
        for name, attr in list(vars(LogLinear).items()):
            if name in skip or (name.startswith("_") and not name.startswith("__")):
                continue
            if isinstance(attr, classmethod):
                setattr(LogLinear, name, classmethod(
                    self._wrap(attr.__func__, "exactval", f"exactval.LogLinear.{name}")))
            elif inspect.isfunction(attr):
                if attr not in done:  # __radd__ is __add__, __rmul__ is __mul__
                    done[attr] = self._wrap(attr, "exactval", f"exactval.LogLinear.{name}")
                setattr(LogLinear, name, done[attr])

    def _wrap_method(self, cls, name: str, layer: str) -> None:
        fn = vars(cls)[name]
        setattr(cls, name, self._wrap(fn, layer, f"{layer}.{cls.__name__}.{name}"))

    def _wrap(self, fn, layer: str, key: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, layer, key)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(fn, layer, key, args, kwargs)

        return wrapper

    def _wrap_generator(self, fn, layer: str, key: str):
        call = self._call
        next_key = key + ".next"
        canonical = key == "measures.canonical_cylinder_iter"
        tracer = self

        class TimedIter:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                if canonical:
                    tracer._in_canonical += 1
                    try:
                        value = call(next, layer, next_key, (self.it,), {})
                    finally:
                        tracer._in_canonical -= 1
                    tracer.n["canonical_yielded"] += 1
                    return value
                return call(next, layer, next_key, (self.it,), {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count[key] += 1
            return TimedIter(fn(*args, **kwargs))

        return wrapper

    # -- the per-call path ---------------------------------------------

    def _call(self, fn, layer, key, args, kwargs):
        self.count[key] += 1
        sign = key == "exactval.LogLinear.sign"
        if sign:
            self._in_sign += 1
        elif key == "exactval.LogLinear.eval_interval" and self._in_sign:
            self.n["sign_refinements"] += 1
        elif key == "shifts.is_admissible" and self._in_canonical:
            self.n["canonical_tested"] += 1
        try:
            stack = self.stack
            caller = stack[-1][0] if stack else "bench"
            if caller == layer:
                if key not in TIMED:
                    return self._seen(key, fn(*args, **kwargs))
                t0 = perf_counter()
                try:
                    return self._seen(key, fn(*args, **kwargs))
                finally:
                    self.time[key] += perf_counter() - t0
            return self._span(fn, layer, key, caller, args, kwargs)
        finally:
            if sign:
                self._in_sign -= 1

    def _span(self, fn, layer, key, caller, args, kwargs):
        stack = self.stack
        parent = stack[-1][3] if stack else None
        record = key not in HOT and not key.startswith(HOT_PREFIXES)
        if record and len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            record = False
        span_id = parent
        if record:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [layer, 0.0, 0.0, span_id]
        stack.append(frame)
        t0 = frame[1] = perf_counter()
        try:
            return self._seen(key, fn(*args, **kwargs))
        except BaseException as exc:
            if layer == "asymptotics" and type(exc).__name__ in EXHAUSTED:
                self.n["searches_exhausted"] += 1
            raise
        finally:
            t1 = perf_counter()
            stack.pop()
            dur = t1 - t0
            self.self_s[layer] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            self.entries[layer] += 1
            a = self.agg[(key, caller)]
            a[0] += 1
            a[1] += dur
            if key in TIMED:
                self.time[key] += dur
            if record:
                self.spans[span_id] = (self.task, key, caller, t0, t1, parent)

    def _seen(self, key: str, result):
        """Counters that need the call's result."""
        if key == "exactval.LogLinear.__add__":
            self.log_terms_max = max(self.log_terms_max, len(result.logs))
        elif key == "shifts.successors" and result[1]:
            self.n["truncated_rows"] += 1
        elif key == "asymptotics.cylinder_limit":
            self.n["trace_cells"] += len(result.traces) * result.params["window"]
        return result

    # -- results -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (see DESIGN.md)."""
        c, t, n = self.count, self.time, self.n
        tested = n["canonical_tested"]
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        out.update({f"{layer}.calls": self.entries[layer] for layer in LAYERS})
        out.update({
            "exactval.add_calls": c["exactval.LogLinear.__add__"],
            "exactval.add_s": t["exactval.LogLinear.__add__"],
            "exactval.log_terms_max": self.log_terms_max,
            "exactval.sign_calls": c["exactval.LogLinear.sign"],
            "exactval.sign_s": t["exactval.LogLinear.sign"],
            "exactval.sign_refinements": n["sign_refinements"],
            "exactval.eval_interval_calls": c["exactval.LogLinear.eval_interval"],
            "exactval.eval_interval_s": t["exactval.LogLinear.eval_interval"],
            "suspension.birkhoff_calls": c["suspension.birkhoff_sum"],
            "suspension.flow_mass_calls": c["suspension.flow_cylinder_mass"],
            "measures.canonical_tested": tested,
            "measures.canonical_yielded": n["canonical_yielded"],
            "measures.canonical_yield_ratio": n["canonical_yielded"] / tested if tested else 1.0,
            "measures.cylinder_evals": c["measures.measure_of_cylinder"],
            "shifts.oracle_calls": c["shifts.ShiftSpec.is_allowed"],
            "shifts.rows_scanned": c["shifts.successors"] + c["shifts.successor_iter"]
            + c["shifts.row_continues_beyond"],
            "shifts.truncated_rows": n["truncated_rows"],
            "asymptotics.trace_cells": n["trace_cells"],
            "asymptotics.terms_generated": c["asymptotics.MeasureSequence.term"],
            "asymptotics.searches_exhausted": n["searches_exhausted"],
        })
        return out

    def dump(self) -> dict:
        """Spans and aggregates, for writing out when the pass ends."""
        return {
            "spans": self.spans,  # (task, key, caller layer, start, end, parent index)
            "spans_dropped": self.spans_dropped,
            "aggregates": sorted([k, caller, a[0], a[1]] for (k, caller), a in self.agg.items()),
            "counts": dict(self.count),
        }
