"""Machine-speed probe, to express timings in seconds at a fixed reference speed.

On a shared virtual machine the same fixed work can take 20-40 % longer from
one minute to the next, with process CPU time tracking wall time: the vCPU is
not taken away, it runs slower. A timing taken alone then moves with the
machine rather than with the code. While a Pacer is active, SIGALRM runs a
small fixed pure-Python probe (a heap-based Dijkstra plus an integer loop,
the kind of code the solver runs) every `period` seconds, so the probe sees
the machine's speed during the measured work itself. A measured time t then
reads t * (1 - probe share) * NOMINAL_PROBE_S / mean probe time: the work's
own time, scaled to a machine on which the probe takes NOMINAL_PROBE_S.
"""
from __future__ import annotations

import math
import random
import signal
import statistics
import time
from heapq import heappop, heappush

#: Mean probe time that defines the reference speed: about the mean seen
#: during solver calls on the 2-vCPU VM the baseline in NOTES.md was measured
#: on, so that reference seconds there are close to wall seconds.
NOMINAL_PROBE_S = 0.00035

_rng = random.Random(1)
_GRAPH = [[(_rng.randrange(120), _rng.random()) for _ in range(4)] for _ in range(120)]


def probe() -> float:
    """Run the fixed probe once; return the seconds it took."""
    started = time.perf_counter()
    dist = [math.inf] * len(_GRAPH)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _GRAPH[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heappush(heap, (d + w, v))
    s = 0
    for i in range(3000):
        s += i * i % 7
    return time.perf_counter() - started


class Pacer:
    """Context manager that samples probe() every `period` seconds of wall
    time, and once on entry and once on exit, so a short interval still has
    two samples. Only one Pacer may be active at a time (it owns SIGALRM)."""

    def __init__(self, period: float = 0.02):
        self.period = period
        self.samples: list[float] = []
        self.wall = 0.0
        self._started = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        self.samples.append(probe())

    def __enter__(self) -> Pacer:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    @property
    def factor(self) -> float:
        """Multiply a time measured inside the pacer by this to get seconds
        at the reference speed, with the probes' own time taken out."""
        inside = sum(self.samples[1:-1])
        share = inside / self.wall if self.wall > 0 else 0.0
        return (1.0 - share) * NOMINAL_PROBE_S / statistics.mean(self.samples)
