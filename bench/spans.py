"""In-memory spans recorded by the benchmark around calls into snarkforge.

A span is ``[name, start, end, parent, recipe]`` with times from the
tracer's clock (the child's RefClock, as the benchmark's other times) and
``parent`` the list index of the enclosing span (or None).  Spans are only recorded in the benchmark's own code, around
each public library call, so a layer's self time is the time spent inside
that one call.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional


class Tracer:
    """Collects spans in memory; nothing is written until the caller
    serialises ``spans`` at the end of the run."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, recipe: Optional[str] = None) -> Iterator[None]:
        """A span for the enclosed block; without a recipe of its own it
        takes its parent's, so every span says which recipe caused it."""
        parent = self._open[-1] if self._open else None
        if recipe is None and parent is not None:
            recipe = self.spans[parent][4]
        record = [name, self.clock(), None, parent, recipe]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._open.pop()


def span_of(tracer: Optional[Tracer], name: str, recipe: Optional[str] = None):
    """A span when tracing, a no-op context otherwise."""
    return tracer.span(name, recipe) if tracer is not None else nullcontext()


def layer_times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per span name: summed self time, longest single duration, and count.

    Self time is a span's duration minus the durations of its direct
    children; children never overlap because one thread records them.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _recipe in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    max_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for k, (name, start, end, _parent, _recipe) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[k]
        max_s[name] = max(max_s.get(name, 0.0), end - start)
        calls[name] = calls.get(name, 0) + 1
    return self_s, max_s, calls
