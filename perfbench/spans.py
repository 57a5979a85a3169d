"""Span recorder for the benchmark's traced run.

A span is a wall-clock interval around one call into an ebusopt layer:
name, start, end, parent span and op id.  Spans use ``time.perf_counter``,
which on Linux reads CLOCK_MONOTONIC, so the spans the solver wrapper
writes in its child process share the parent's time base and nest under
the bridge's wait span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

OP = "op"
CHECK = "bench.check"


class Recorder:
    """Records spans when ``traced``; always times output checks.

    Output checks run inside ``span(CHECK)`` in both modes, so an op's wall
    time can leave them out: ``excluded_s`` is their running total.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.excluded_s = 0.0
        self.op = None
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        if not self.traced and name != CHECK:
            yield
            return
        start = time.perf_counter()
        record = None
        if self.traced:
            record = self._open(name, start)
        try:
            yield
        finally:
            end = time.perf_counter()
            if name == CHECK:
                self.excluded_s += end - start
            if record is not None:
                self._stack.pop()
                record["end"] = end

    def add_child(self, name: str, start: float, end: float) -> None:
        """Attach a span measured elsewhere under the innermost open span."""
        self._open(name, start)["end"] = end
        self._stack.pop()

    def _open(self, name: str, start: float) -> dict:
        record = {"id": len(self.spans), "name": name, "start": start,
                  "end": None, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        return record


def self_times(spans: list, span_id: int) -> dict:
    """Self time per span name below span ``span_id``, that span included.

    A span's self time is its duration minus the durations of its direct
    children; spans of one name are summed.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out: dict = {}
    stack = [spans[span_id]]
    while stack:
        s = stack.pop()
        kids = children.get(s["id"], [])
        own = (s["end"] - s["start"]) - sum(k["end"] - k["start"]
                                            for k in kids)
        out[s["name"]] = out.get(s["name"], 0.0) + own
        stack.extend(kids)
    return out
