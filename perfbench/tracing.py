"""In-memory spans and counters recorded around the benchmark's calls into
the library; the library itself carries no tracing.

A span records its name, start, end (seconds from ``origin``, the
recorder's creation on the ``perf_counter`` clock) and the id of the span
open around it; the worker adds the factor that rescales it to the
reference machine speed. ``Recorder(enabled=False)`` keeps the
counters but records no spans, which is what untraced runs use.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager, nullcontext


class Recorder:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.times: list[tuple[str, float, float, float]] = []
        self._open: list[int] = []
        self.origin = time.perf_counter()

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = {"id": sid, "name": name, "parent": parent,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._open.append(sid)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter() - self.origin

    def count(self, name: str, amount: float = 1):
        self.counts[name] += amount

    def count_time(self, name: str, seconds: float, start: float, end: float):
        """A duration measured elsewhere, kept with the ``perf_counter``
        window it fell in so the worker can rescale it like a span."""
        self.times.append((name, seconds, start, end))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-name sum of self time: each span's duration minus the part of it
    that its direct children cover (children never overlap: one thread).
    Durations are multiplied by the span's ``scale`` when it has one."""
    def length(s: dict) -> float:
        return (s["end"] - s["start"]) * s.get("scale", 1.0)

    covered = Counter()
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += length(s)
    out: Counter = Counter()
    for s in spans:
        out[s["name"]] += length(s) - covered[s["id"]]
    return dict(out)
