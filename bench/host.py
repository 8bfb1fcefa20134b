"""Host-speed normalisation: host seconds as seconds on a reference host.

A shared host's speed drifts by tens of percent within minutes (time
slices lost to other guests, a busy SMT sibling), and the simulator slows
in step.  A worker therefore times a fixed pure-Python kernel on a thread
while it runs, and divides every host time it reports by the factor
:meth:`HostSpeed.stop` returns: the mean kernel time over the same
interval relative to ``KERNEL_REF_S``.

Choices, each measured against alternatives on the reference host:

* the mean, not the median, so that the rare samples a lost time slice
  lands in are counted;
* arithmetic *and* object traffic, since the arithmetic loop alone
  under-reacts to the contention that slows object-heavy code;
* the caller pins the process to one CPU, so the sampler times the CPU
  the workload runs on.

One kernel run is shorter than the interpreter's 5 ms switch interval,
so it holds the GIL throughout and its timing excludes the main thread.
"""

from __future__ import annotations

import collections
import statistics
import threading
import time
from typing import Dict, List

#: mean time of :func:`kernel` on the reference host (an otherwise idle
#: 2-vCPU Xeon VM, CPython 3.11)
KERNEL_REF_S = 720e-6
SAMPLE_PERIOD_S = 0.05


class _Cell:
    """Attribute, dict and deque traffic like a simulator component's."""

    __slots__ = ("n", "counts", "queue")

    def __init__(self) -> None:
        self.n = 0
        self.counts: Dict[int, int] = {}
        self.queue: collections.deque = collections.deque()

    def step(self, i: int) -> None:
        self.n += 1
        self.counts[i & 63] = self.counts.get(i & 63, 0) + 1
        self.queue.append(i)
        if len(self.queue) > 8:
            self.queue.popleft()


def kernel(cells: List[_Cell]) -> int:
    """Fixed work: an arithmetic loop plus object traffic over *cells*."""
    s = 0
    for i in range(5_000):
        s += i * i % 7
    for i in range(1_250):
        cells[i & 63].step(i)
    return s


class HostSpeed:
    """Times :func:`kernel` every ``SAMPLE_PERIOD_S`` on a daemon thread
    from construction until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._cells = [_Cell() for _ in range(64)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _time_kernel(self) -> None:
        t0 = time.perf_counter()
        kernel(self._cells)
        self.samples.append(time.perf_counter() - t0)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self._time_kernel()

    def stop(self) -> float:
        """Stop sampling; return the host factor (> 1: slower than the
        reference host)."""
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self._time_kernel()
        return statistics.fmean(self.samples) / KERNEL_REF_S
