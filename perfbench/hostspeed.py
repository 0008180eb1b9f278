"""Host-speed probes: fixed work, timed around the benchmark's operations.

The benchmark's host is a few cores of a shared machine whose speed switches
between a fast and a slow state for spells of a fraction of a second to
minutes: the same sweep took 2.0 s in one run and 3.5 s in another.  A probe
measures the host's slowness, the time of a fixed piece of work as a
multiple of its time in the fast state, and each timing is divided by the
slowness around it, which gives the time the operation would take in the
fast state.  The work must slow as the operation does:

- In-process operations get :func:`unit`, pure-Python work of the kinds
  thetadim does (breadth-first search over lists and a deque, tuples, sets and
  subset enumeration), timed right before and after the operation and from a
  timer signal while it runs.  The slow state slows it 1.59-1.69x, and the
  sweep's triples 1.63x and the K_{5,5} operation 1.66x.
- Operations that are whole processes get a bare interpreter start,
  ``python -I -S -c pass``, timed before and after.  The slow state slows it
  1.32x and a CLI call 1.29x, but the unit 1.59x.

Neither runs any of thetadim's code, so a change to thetadim moves the scaled
figures in full.

Imports only modules that a bare interpreter or thetadim loads anyway, and
``gc`` and ``signal``, so a set-up probe can sample while it times the set-up.
"""

from __future__ import annotations

import gc
import itertools
import signal
import time
from collections import deque

#: Seconds one unit takes on a 2-vCPU Intel Xeon host in its fast state (2.0
#: to 2.2 ms; 3.3 to 3.5 ms in its slow state).
REF_UNIT_S = 0.002
#: Seconds a bare interpreter start takes on the same host in its fast state.
REF_START_S = 0.011
#: Timings per probe (odd); a probe reports their median.
UNITS = 3
#: Seconds between the units a :class:`Sampler` runs during an operation.
SAMPLE_EVERY_S = 0.05

_SIDE = 14
_N = _SIDE * _SIDE
_ADJ = [
    [w for w in (v - _SIDE, v + _SIDE) if 0 <= w < _N]
    + [w for w in (v - 1, v + 1) if 0 <= w < _N and w // _SIDE == v // _SIDE]
    for v in range(_N)
]


def unit() -> int:
    """One fixed unit of work; returns a checksum so none of it is skipped."""
    rows = []
    for source in range(0, _N, 7):
        dist = [-1] * _N
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for w in _ADJ[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        rows.append(dist)
    codes = {tuple(row[v] for row in rows) for v in range(_N)}
    hits = sum(1 for triple in itertools.combinations(range(30), 3) if sum(triple) % 7 in (1, 3))
    return len(codes) + hits


def timed_unit(clock=time.perf_counter) -> float:
    """Seconds of one unit.  The cyclic garbage collector is paused meanwhile,
    so a unit never pays for collecting an operation's objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        unit()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def timed_start() -> float:
    """Seconds to start and stop a bare interpreter."""
    import subprocess
    import sys

    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
    return time.perf_counter() - start


def median(values: list[float]) -> float:
    """Middle value (the upper one of an even count)."""
    return sorted(values)[len(values) // 2]


def probe(clock=time.perf_counter) -> float:
    """Slowness: the median of ``UNITS`` unit times over ``REF_UNIT_S``."""
    return median([timed_unit(clock) for _ in range(UNITS)]) / REF_UNIT_S


def start_probe() -> float:
    """Slowness for whole processes: the median of ``UNITS`` interpreter
    start times over ``REF_START_S``."""
    return median([timed_start() for _ in range(UNITS)]) / REF_START_S


class Sampler:
    """Runs one unit from an interval timer's signal every ``SAMPLE_EVERY_S``
    seconds while it is entered, so that a long operation is probed while it
    runs.  The signal handler runs between the operation's bytecodes, in the
    same thread; :meth:`clock` is ``time.perf_counter()`` less the time spent
    in the handler, so a latency read from it leaves the units out.
    ``samples`` holds the slowness each unit measured.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(timed_unit() / REF_UNIT_S)
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
