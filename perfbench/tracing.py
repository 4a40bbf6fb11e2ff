"""In-memory spans around the benchmark's calls into nearsq, and the statistics over them.

A span records a name, start, end, the span that caused it and the operation
it belongs to.  Spans are kept in a list and written out once, when the run
ends.  With tracing off the benchmark uses ``NullTracer``, whose spans record
nothing, so the timed code path is the same in both modes.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> dict:
        self.tracer._stack.append(self.span.id)
        self.span.start = time.perf_counter()
        return self.span.counts

    def __exit__(self, *exc) -> None:
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Records every span in memory; ``span(name)`` yields a dict of counters."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def span(self, name: str) -> _OpenSpan:
        parent = self._stack[-1] if self._stack else None
        rec = Span(len(self.spans), name, parent, self.op, math.nan)
        self.spans.append(rec)
        return _OpenSpan(self, rec)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    op = None
    _SPAN = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._SPAN


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Calls are synchronous in one thread, so children never overlap and the
    covered time is the sum of their durations.
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(percentile, value, n): the highest percentile with at least 10 samples beyond it.

    The value is the (n-10)-th smallest sample, so exactly ten samples lie
    above it; with 10 samples or fewer no such percentile exists.
    """
    n = len(samples)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1], n
