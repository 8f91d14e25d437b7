"""In-memory spans around calls into the library's public functions.

A span records its name, start and end (perf_counter seconds), the span
that was open when it began, and the run id of the activity it belongs to.
With tracing off, `span` is a no-op context manager, so the measured path
executes the same calls either way.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    attrs: dict


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.run = "main"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        record = Span(len(self.spans), name, 0.0, 0.0,
                      self._stack[-1] if self._stack else None, self.run, attrs)
        self.spans.append(record)
        self._stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, run: str | None = None, **attrs) -> list[float]:
        return [
            s.end - s.start
            for s in self.spans
            if s.name == name
            and (run is None or s.run == run)
            and all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    def median(self, name: str, run: str | None = None, **attrs) -> float:
        return statistics.median(self.durations(name, run, **attrs))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps(asdict(s)) + "\n")


def span_cost(samples: int = 20000) -> float:
    """Seconds one empty span adds to the call it wraps, timed on a scratch tracer."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("empty"):
            pass
    return (time.perf_counter() - start) / samples
