"""In-memory spans recorded around the benchmark's calls into paircodes.

A span is (name, start_ns, end_ns, parent, op): the layer is the part of
the name before the first dot, parent is the index of the enclosing span
(or None) and op identifies the benchmark operation the span belongs to.
Spans stay in memory until the pass ends; nothing is written while timing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Tracing off: span() costs one call and records nothing."""

    enabled = False

    def span(self, name: str, op: int | None = None):
        return _NULL


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """Time the block; a span given no op inherits its parent's."""
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        rec = [name, time.perf_counter_ns(), 0, parent, op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every span called `name`, in record order."""
        return [(s[2] - s[1]) / 1e9 for s in self.spans if s[0] == name]


def self_times(spans: list[list]) -> list[float]:
    """Per-span self time in seconds: duration minus the direct children's.

    The tracer is single-threaded, so children never overlap and the time
    they cover is the sum of their durations.
    """
    out = [(s[2] - s[1]) / 1e9 for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= (s[2] - s[1]) / 1e9
    return out


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per layer (span-name prefix), in seconds."""
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s[0].split(".", 1)[0]] += t
    return dict(totals)
