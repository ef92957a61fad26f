"""Machine-speed calibration: scales measured times to a fixed reference speed.

The benchmark runs on shared virtual machines whose speed drifts by as much
as 75% in phases of a second to minutes, with equal wall and CPU time (the
host, not the process, changes).  A fixed pure-Python kernel, run between
tasks, tracks that drift.  Each task's time is multiplied by
``NOMINAL_MS / kernel_ms``, where ``kernel_ms`` is the median of the kernel
runs close to the task.  The result reads in milliseconds at the speed at
which the kernel takes ``NOMINAL_MS``.

The kernel uses only the benchmark's own code, so a change to ``tgaug``
cannot change it.  It does what the library does most: set and dict
traffic over a small graph, short lists and integer arithmetic.  The
garbage collector is off while it runs, so the size of the heap the tasks
leave behind does not change its time.

File creation on the same machines drifts too, by ten times and more, and
not with the CPU.  The set-up writes hundreds of small files, so its
writing is scaled by a second kernel, ``file_kernel_ms``, that creates
files the way the set-up does, to ``NOMINAL_FILE_MS``.
"""

from __future__ import annotations

import bisect
import gc
import shutil
import statistics
import time
from pathlib import Path

# kernel time at the reference speed (the fast phase of a 2-core Intel Xeon VM)
NOMINAL_MS = 4.0
# take a kernel sample whenever this much time has passed since the last one
EVERY_S = 0.1
# a task is scaled by the kernel samples within this distance of its midpoint
WINDOW_S = 0.4
WARM_UP_RUNS = 2
# file-kernel time at the reference speed (a fast phase of the same VM)
NOMINAL_FILE_MS = 2.0
FILE_KERNEL_DIRS = 16

_N = 48
_ADJ = [[(u * 7 + k * 13 + 1) % _N for k in range(4)] for u in range(_N)]


def kernel() -> int:
    """The fixed work whose time is sampled; returns a checksum."""
    total = 0
    for rep in range(6):
        for s in range(_N):
            seen = {s}
            frontier = [s]
            depth = {s: 0}
            while frontier:
                nxt = []
                for u in frontier:
                    for v in _ADJ[u]:
                        if v not in seen:
                            seen.add(v)
                            depth[v] = depth[u] + 1
                            nxt.append(v)
                frontier = nxt
            total += sum(depth.values()) * (rep + 1) % 1009
    return total


def kernel_ms() -> float:
    """One timed run of the kernel, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def factor_of(samples_ms: list[float], nominal_ms: float = NOMINAL_MS) -> float:
    """Scale factor to the reference speed from a few kernel samples."""
    return nominal_ms / statistics.median(samples_ms)


def file_kernel_ms(scratch: Path) -> float:
    """Time to create ``FILE_KERNEL_DIRS`` directories of three small files
    under ``scratch``, in milliseconds; ``scratch`` is removed afterwards."""
    start = time.perf_counter()
    for i in range(FILE_KERNEL_DIRS):
        directory = scratch / f"d{i}"
        directory.mkdir(parents=True)
        for name in ("g.tg", "c.cand", "manifest.json"):
            (directory / name).write_text(name * 40, encoding="utf-8")
    ms = (time.perf_counter() - start) * 1e3
    shutil.rmtree(scratch)
    return ms


class Gauge:
    """Kernel samples taken through a run, and the scale factor at any moment."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        # the first runs of fresh bytecode are slower; keep them out of the samples
        for _ in range(WARM_UP_RUNS):
            kernel()

    def sample(self) -> None:
        ms = kernel_ms()
        self.times.append(time.perf_counter())
        self.samples.append(ms)

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= EVERY_S

    def factor(self, start: float, end: float) -> float:
        """Scale factor for work done between ``start`` and ``end`` (perf_counter)."""
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.times, mid - WINDOW_S - (end - start) / 2)
        hi = bisect.bisect_right(self.times, mid + WINDOW_S + (end - start) / 2)
        near = self.samples[lo:hi]
        if not near:
            # no sample close by: the nearest one on each side
            i = bisect.bisect_left(self.times, mid)
            near = self.samples[max(0, i - 1) : i + 1]
        return factor_of(near)

    def median_ms(self) -> float:
        return statistics.median(self.samples)
