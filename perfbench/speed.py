"""Times at a fixed machine speed, from a reference loop timed alongside.

Other tenants of a shared machine slow this process down for stretches of
seconds to minutes, by up to about 2x for allocation-heavy Python such as
tsr's exact and mpmath code.  The loop below does that kind of work
(Fraction arithmetic, a dict, strings) and slows down with it: on the
machine the README's figures come from, an Airy oracle op took 7.2-12.7 ms
over two minutes while its ratio to this loop stayed within about 5%.  An op
timed between two runs of the loop is reported as

    seconds * REFERENCE_MS / (median loop time around the op)

that is, its time on the reference machine when nothing slows it.  An op
that runs long enough also times the loop every PERIOD_S of its own CPU time
(``Sampler``), and those samples, taken while it runs, set its factor; their
cost is taken out of the op's time.  The loop does not touch tsr, so a change
to tsr moves the scaled time as it moves the raw time.  Standard library
only: the set-up probe uses it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

#: ms the loop takes on the reference machine (2 cores, Python 3.11.7) when
#: nothing slows it; scaled times are times at that speed.
REFERENCE_MS = 3.3
LOOP_N = 1000
#: Loop times on each side of an op that its factor is the median of.
WINDOW = 3
#: CPU seconds between loop samples taken inside an op, and the number of
#: such samples from which they alone set the op's factor.
PERIOD_S = 0.25
MIN_INSIDE = 3


def loop_ms() -> float:
    """One timed run of the reference loop, in ms."""
    t = time.perf_counter()
    d = {}
    for i in range(1, LOOP_N):
        d[i] = Fraction(i, 7) + Fraction(3, i + 1)
    [str(v) for v in d.values()]
    return (time.perf_counter() - t) * 1e3


def factors(loop_times: list[float], inside: list[list[float]] | None = None) -> list[float]:
    """The scale factor of each of the ops timed between the loop runs.

    ``loop_times[i]`` ran just before op i and ``loop_times[i + 1]`` just
    after it; ``inside[i]`` holds the samples taken while op i ran.  The
    factor of op i is REFERENCE_MS over the median of its inside samples when
    it has MIN_INSIDE of them, else of the WINDOW loop times on each side.
    """
    inside = inside or [[] for _ in loop_times[1:]]
    return [
        REFERENCE_MS
        / statistics.median(
            inside[i] if len(inside[i]) >= MIN_INSIDE else loop_times[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
        )
        for i in range(len(loop_times) - 1)
    ]


class Sampler:
    """Times the loop every PERIOD_S of this process's CPU time while active
    (SIGPROF; the op deadline uses SIGALRM)."""

    def __init__(self):
        self.loops: list[float] = []
        self.spent_s = 0.0  # wall time the samples took

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.loops.append(loop_ms())
        self.spent_s += time.perf_counter() - t

    @contextlib.contextmanager
    def active(self):
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
