"""Core-speed probe: how fast the core ran while a process was measured.

The benchmark host shares its cores with other work.  A core there runs at
full speed or up to twice as slow, and it switches between the two every
0.1-1 s; a 1.5 s simulation therefore took anywhere from 1.0 to 2.1 s with
identical output.  CPU time slows down just as much, so it is no remedy.

:class:`Probe` samples the core's speed inside the measured process itself,
on the same core and at the same time as the work it measures.  A timer
signal runs a fixed kernel every :data:`INTERVAL_S` and records how long it
took.  The kernel does the simulator's kind of work: it pops and pushes
small objects on a heap, looks them up in a dict and appends to lists.

:meth:`Probe.reference_seconds` turns host seconds into *reference
seconds*: the time the same work takes on a core that runs the kernel in
:data:`REFERENCE_S`.  Work done in ``dt`` at slowdown ``s`` is worth
``dt / s`` reference seconds, so the host seconds between two marks, less
the probe's own time, are scaled by the mean of ``REFERENCE_S / sample``.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import List, Optional

#: Seconds between two samples; the kernel costs about 1.3% of them.
INTERVAL_S = 0.02
#: Heap steps per sample.
STEPS = 100
#: The kernel's time on a full-speed core of the reference host (2 vCPU
#: Xeon, Python 3.11).  It only sets the scale of reference seconds.
REFERENCE_S = 250e-6


class _Event:
    __slots__ = ("time", "key", "size")

    def __init__(self, time: float, key: int, size: int):
        self.time = time
        self.key = key
        self.size = size

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class Probe:
    """Timer-driven samples of the kernel's duration in this process."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.seed = 12345
        self.heap: List[_Event] = []
        self.state: dict = {}
        for key in range(64):
            heapq.heappush(self.heap, _Event(self._random() / 2**31, key, 1))

    def _random(self) -> int:
        self.seed = (self.seed * 1103515245 + 12345) & 0x7FFFFFFF
        return self.seed

    def kernel(self) -> None:
        heap, state = self.heap, self.state
        for _ in range(STEPS):
            event = heapq.heappop(heap)
            entry = state.get(event.key)
            if entry is None:
                entry = state[event.key] = [0, 0.0, []]
            entry[0] += event.size
            entry[1] += event.time
            entry[2].append(event.size)
            if len(entry[2]) > 16:
                entry[2] = []
            r = self._random()
            heapq.heappush(heap, _Event(event.time + (r & 1023) * 1e-4, (event.key + r) % 4096, r % 512 + 1))

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """A point in the sample list, to delimit a measured stretch."""
        return len(self.samples)

    def reference_seconds(self, host_s: float, first: int, last: Optional[int] = None) -> float:
        """``host_s`` measured between marks ``first`` and ``last``, in reference seconds."""
        window = self.samples[first:last] or self.samples
        if not window:
            raise RuntimeError("the probe took no sample; the stretch is too short to scale")
        speed = sum(REFERENCE_S / sample for sample in window) / len(window)
        return (host_s - sum(self.samples[first:last])) * speed
