"""In-memory spans around calls into each layer, and their self times."""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int  # id of the op the span belongs to
    mark: Optional[float] = None  # a time inside the span (first term ready)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; nothing is written until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str):
        sp = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.duration
    return out


def totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Per span name: summed self time and span count."""
    acc: dict[str, tuple[float, int]] = {}
    for sp, own in zip(spans, self_times(spans)):
        t, n = acc.get(sp.name, (0.0, 0))
        acc[sp.name] = (t + own, n + 1)
    return acc
