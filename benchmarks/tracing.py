"""Span times and counters recorded by the benchmark around its calls into twomilton.

A span is one timed call; the tracer keeps only the total seconds per span
name.  Counters are exact work counts taken at the same call boundaries.
With tracing off, `call` is a plain function call and nothing is recorded.
`paused` reads a clock of time to leave out of spans (the speed reference's
pauses); a span takes out what it advanced during the call.
"""

from __future__ import annotations

import time
from collections import Counter


class Tracer:
    def __init__(self, enabled: bool, paused=lambda: 0.0):
        self.enabled = enabled
        self.paused = paused
        self.seconds: Counter = Counter()  # span name -> total seconds
        self.counts: Counter = Counter()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed under `name` when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        start, paused = time.perf_counter(), self.paused()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[name] += -(self.paused() - paused) + time.perf_counter() - start

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount
