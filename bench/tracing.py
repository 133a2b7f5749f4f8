"""Spans and self-time accounting for the traced benchmark run.

A span is one timed call at a layer boundary: its name, layer, start, end,
the index of the span that contains it and the op it belongs to. Spans of
an op stay in memory until the op ends and are then written out as JSON.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects the spans of one op under a root span that opens at ``start``."""

    def __init__(self, op: int, start: float):
        self.op = op
        self._root_start = start
        self._closed: dict[int, Span] = {}
        self._stack = [0]
        self._count = 1

    @contextmanager
    def span(self, name: str, layer: str):
        index = self._count
        self._count += 1
        parent = self._stack[-1]
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._closed[index] = Span(name, layer, start, end, parent, self.op)

    def finish(self) -> list[Span]:
        """Close the root span and return every span, root first."""
        root = Span("op", "glue", self._root_start, time.perf_counter(), None, self.op)
        return [root] + [self._closed[i] for i in range(1, self._count)]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the summed durations of its children.

    Tracer opens spans as nested context managers on a stack, so children
    never overlap each other or stick out of their parent.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer."""
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s.layer] += t
    return dict(totals)


def span_total(spans: list[Span], prefix: str) -> float:
    """Summed duration of the spans whose name starts with ``prefix``."""
    return sum(s.duration for s in spans if s.name.startswith(prefix))
