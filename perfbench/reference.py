"""Host-speed reference, measured inside every benchmark run.

Shared CPUs drift: on a 2-core container the same unit of simulator
work was measured anywhere from 8.2 s to 12.5 s across back-to-back
processes, while its ratio to this kernel stayed within 4 %.  The
benchmark therefore times this fixed kernel between units and reports
host times *at reference speed*: ``seconds * NOMINAL_SECONDS /
kernel_seconds``.  The kernel mixes what the simulator spends its time
on — integer numpy passes over (blocks x 48 bytes) arrays, sorts and
searches, and a Python dictionary loop — and it belongs to the
benchmark, so a change to the program never changes the yardstick.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from typing import Any, List, Sequence

import numpy as np

#: The kernel's median time on the reference host (2-core x86-64
#: container, Python 3.11, numpy 2.4); a speed of 1.0 means that host.
NOMINAL_SECONDS = 0.045


def kernel_seconds() -> float:
    """Run the reference kernel once; returns its wall time."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    blocks = rng.integers(0, 256, (8192, 48), dtype=np.uint8)
    for _ in range(6):
        wide = blocks.astype(np.int64)
        keys = np.sort((wide * 31 + 7) % 1009, axis=1)
        np.searchsorted(np.sort(keys[:, 0]), keys[:, 1])
        counts: dict = {}
        for i in range(8000):
            counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - start


class Yardstick:
    """Kernel times taken at unit boundaries, and the host speed each
    unit ran at.

    A unit's speed comes from the median of the kernel times at the
    three boundaries on either side of it: it follows drift that lasts
    seconds, not the jitter of one 45 ms kernel run.
    """

    def __init__(self) -> None:
        self.times: List[float] = [kernel_seconds()]

    def tick(self) -> None:
        """Time the kernel at the boundary after a unit.

        Child processes the unit left running would slow the kernel and
        so be divided out of the program's own time; they are joined
        first.  (The supervised fleet joins its workers itself, so this
        normally waits for nothing.)
        """
        for child in multiprocessing.active_children():
            child.join()
        self.times.append(kernel_seconds())

    def speed(self, unit: int) -> float:
        """Speed during unit ``unit`` (boundaries ``unit``, ``unit + 1``)."""
        window = self.times[max(0, unit - 2):unit + 4]
        return NOMINAL_SECONDS / statistics.median(window)

    def apply(self, units: Sequence[Sequence[Any]]) -> None:
        """Stamp every outcome of unit ``u`` with ``speed(u)``."""
        for index, outcomes in enumerate(units):
            for outcome in outcomes:
                outcome.speed = self.speed(index)


def current_speed(samples: int = 3) -> float:
    """Speed from the median of a few back-to-back kernel runs."""
    return NOMINAL_SECONDS / statistics.median(
        kernel_seconds() for _ in range(samples))
