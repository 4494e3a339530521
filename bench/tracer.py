"""Spans around calls into xdiff, recorded from outside the program.

``Tracer.wrap`` replaces one module attribute with a wrapper that records
a span (name, parent, start, end) per call, plus counters derived from
the call's arguments and result.  Each binding is wrapped where callers
look it up: ``xdiff.mlp.lattice_mul`` as well as
``xdiff.autodiff.lattice_mul``, ``xdiff.cli.detect`` as well as the
detect module's own ``detect``.  Spans stay in memory; ``layer_metrics``
folds them into per-layer figures and ``dump`` writes them as JSON lines.

An untraced run never builds a Tracer, so nothing is wrapped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# Span fields, by index: name, parent span index (-1 for a root), start ns,
# end ns, phase, counters (dict or None).
NAME, PARENT, START, END, PHASE, COUNTERS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase: tuple[str, int] | None = None  # None records nothing
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1,
                time.perf_counter_ns(), 0, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields the counter dict."""
        if self.phase is None:
            yield {}
            return
        span = self._open(name)
        span[COUNTERS] = {}
        try:
            yield span[COUNTERS]
        finally:
            self._close(span)

    def wrap(self, module_name: str, attr: str, name: str, counters=None) -> None:
        """Record a span named ``name`` for every call through
        ``module_name.attr``; ``counters(args, kwargs, result)`` adds counts."""
        # sys.modules, not attribute access: xdiff re-exports the function
        # detect under the name of its own module.
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.phase is None:
                return original(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if counters is not None:
                span[COUNTERS] = counters(args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def phase_totals(self) -> dict[tuple[str, int], dict[str, dict[str, float]]]:
        """Per phase and span name: ``s`` (duration), ``self_s`` (duration
        minus the direct children's), ``calls`` and summed counters."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for i, span in enumerate(self.spans):
            entry = out[span[PHASE]][span[NAME]]
            dur = span[END] - span[START]
            entry["s"] += dur / 1e9
            entry["self_s"] += (dur - child_ns[i]) / 1e9
            entry["calls"] += 1
            for key, value in (span[COUNTERS] or {}).items():
                entry[key] += value
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span[NAME], "parent": span[PARENT],
                    "start_ns": span[START], "end_ns": span[END],
                    "phase": list(span[PHASE]), "counters": span[COUNTERS] or {},
                }) + "\n")


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Each named figure as one set-up plus one operation spend on it: the
    median over set-ups plus the median over operations.  ``<span>.<key>``
    reads a total of that span; a counter named like a metric is summed
    over all spans; ``cli.self_s`` sums the self time of the cli.* spans;
    ``mlp.train.steps_per_s`` divides the combined steps by the combined
    time."""
    totals = tracer.phase_totals()

    def value(name: str, t: dict) -> float:
        if name == "cli.self_s":
            return sum(v["self_s"] for k, v in t.items() if k.startswith("cli."))
        span, key = name.rsplit(".", 1)
        if span in t:
            return t[span].get(key, 0.0)
        return sum(v.get(name, 0.0) for v in t.values())

    def combined(name: str) -> float:
        total = 0.0
        for kind in ("setup", "op"):
            vals = [value(name, t) for phase, t in totals.items() if phase[0] == kind]
            total += float(median(vals)) if vals else 0.0
        return total

    out = {}
    for name in names:
        if name == "mlp.train.steps_per_s":
            s = combined("mlp.train.s")
            out[name] = combined("mlp.train.steps") / s if s > 0 else 0.0
        else:
            out[name] = combined(name)
    return out
