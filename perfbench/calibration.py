"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts: on the 2-CPU
machine described in README.md, build-deep's wall time as measured ranged
from 4.4 s to 7.1 s over ten consecutive runs, and CPU time moved with wall
time. A background thread therefore times a fixed pure-Python snippet every
``INTERVAL`` seconds, in its own CPU time, while the workload runs. A measured span of wall time is rescaled by ``REFERENCE_S`` over the
snippet's median time around that span: the result is the time the span
would have taken on a machine that runs the snippet in ``REFERENCE_S``.

The snippet uses integer arithmetic only, so it allocates nothing the
garbage collector tracks and imports nothing: the sampler can start before
the library is imported. It is timed with ``time.thread_time``, so waiting
for the interpreter lock, or any thread the library might start, does not
slow it down.
"""
from __future__ import annotations

import statistics
import threading
import time

INTERVAL = 0.05
# window added on both sides of a span, so even a short span has samples
PAD = 0.25
REFERENCE_S = 1.8e-4


def snippet() -> int:
    acc, x = 0, 12345678901234567
    for i in range(1000):
        acc = (acc + x * (i + 3)) % 1000000007
    return acc


class Sampler:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (perf_counter, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(INTERVAL):
            began = time.thread_time()
            snippet()
            self.samples.append((time.perf_counter(), time.thread_time() - began))

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5.0)

    def snippet_s(self, start: float, end: float) -> float:
        """Median snippet time around the span [start, end] of perf_counter."""
        near = [d for t, d in self.samples if start - PAD <= t <= end + PAD]
        return statistics.median(near or [d for _, d in self.samples])

    def scaled(self, start: float, end: float) -> float:
        """The span's length at the reference speed."""
        return (end - start) * REFERENCE_S / self.snippet_s(start, end)
