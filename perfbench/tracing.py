"""In-memory spans recorded around the library's public layer entry points.

A :class:`Tracer` patches the methods named by a list of :class:`Probe`
objects for as long as it is installed.  Every call of a patched method
becomes one span: name, start, end, parent span, request id, and a small
tuple of counts taken from the call's arguments and result (candidate-set
sizes, sub-iso outcomes, bytes encoded).  Spans stay in memory until the run
ends and are written out by :meth:`Tracer.write`.

The patches live on the classes, so they see every instance.  Calls made in
a forked child process are not recorded (the child holds a copy of the
tracer that nobody reads); the pool workload takes the worker side of its
breakdown from the ``stage_times`` each reply carries instead.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Probe", "Tracer", "SpanSummary", "summarize"]

# Row layout of one recorded span (a list, to keep recording cheap).
ID, PARENT, REQUEST, NAME, START, END, CPU, COUNTS = range(8)

_MISSING = object()


@dataclass(frozen=True)
class Probe:
    """One traced entry point: ``cls.method`` recorded as span ``span``.

    ``counts(args, result)`` returns the numbers the span carries;
    ``cpu=True`` also records the calling thread's CPU time inside the call
    (used to split backend time into work and waiting).
    """

    cls: type
    method: str
    span: str
    counts: Optional[Callable[[tuple, Any], Tuple[float, ...]]] = None
    cpu: bool = False


class Tracer:
    """Records spans into memory; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request_id: Optional[int] = None
        self.enabled = True
        self._stack: List[list] = []
        self._installed: List[Tuple[type, str, object]] = []
        # A forked child inherits the patched classes: stop recording there.
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _disable(ref))

    # ------------------------------------------------------------------ #
    def open(self, name: str, cpu: bool = False) -> list:
        parent = self._stack[-1][ID] if self._stack else None
        row = [
            len(self.spans),
            parent,
            self.request_id,
            name,
            time.perf_counter(),
            0.0,
            time.thread_time() if cpu else None,
            None,
        ]
        self.spans.append(row)
        self._stack.append(row)
        return row

    def close(self, row: list, counts: Optional[Tuple[float, ...]] = None) -> None:
        row[END] = time.perf_counter()
        if row[CPU] is not None:
            row[CPU] = time.thread_time() - row[CPU]
        row[COUNTS] = counts
        popped = self._stack.pop()
        if popped is not row:
            raise RuntimeError(f"span {row[NAME]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        row = self.open(name)
        try:
            yield row
        finally:
            self.close(row)

    # ------------------------------------------------------------------ #
    def install(self, probes: Iterable[Probe]) -> None:
        """Patch every probe's method; :meth:`uninstall` restores them."""
        for probe in probes:
            original = getattr(probe.cls, probe.method)
            previous = probe.cls.__dict__.get(probe.method, _MISSING)
            setattr(probe.cls, probe.method, self._wrap(original, probe))
            self._installed.append((probe.cls, probe.method, previous))

    def uninstall(self) -> None:
        while self._installed:
            cls, method, previous = self._installed.pop()
            if previous is _MISSING:
                delattr(cls, method)
            else:
                setattr(cls, method, previous)

    def _wrap(self, function: Callable, probe: Probe) -> Callable:
        tracer, name, counts, cpu = self, probe.span, probe.counts, probe.cpu

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            row = tracer.open(name, cpu)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.close(row)
                raise
            tracer.close(row, counts(args, result) if counts is not None else None)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", probe.method)
        return traced

    # ------------------------------------------------------------------ #
    def write(self, path: str) -> None:
        """Write every span as one JSON array per line."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(["id", "parent", "request", "name", "start", "end", "cpu", "counts"])
                + "\n"
            )
            for row in self.spans:
                handle.write(json.dumps(row) + "\n")


def _disable(ref: "weakref.ref[Tracer]") -> None:
    tracer = ref()
    if tracer is not None:
        tracer.enabled = False


@dataclass
class SpanSummary:
    """Aggregates of every span sharing one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    counts: Optional[List[float]] = None

    def add_counts(self, counts: Tuple[float, ...]) -> None:
        if self.counts is None:
            self.counts = [0.0] * len(counts)
        for position, value in enumerate(counts):
            self.counts[position] += value

    def count(self, position: int) -> float:
        return 0.0 if self.counts is None else self.counts[position]


def summarize(spans: Sequence[list]) -> Dict[str, SpanSummary]:
    """Per-name call counts, inclusive time, self time and summed counts.

    Self time is a span's duration minus the time its direct child spans
    cover.  Spans of one thread nest, so the children never overlap and the
    self times of a tree add up to its root's duration.
    """
    child_time: Dict[int, float] = {}
    for row in spans:
        if row[PARENT] is not None:
            child_time[row[PARENT]] = child_time.get(row[PARENT], 0.0) + row[END] - row[START]
    summary: Dict[str, SpanSummary] = {}
    for row in spans:
        entry = summary.setdefault(row[NAME], SpanSummary())
        duration = row[END] - row[START]
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += duration - child_time.get(row[ID], 0.0)
        if row[CPU] is not None:
            entry.cpu_s += row[CPU]
        if row[COUNTS] is not None:
            entry.add_counts(row[COUNTS])
    return summary
