"""Fixed numpy kernels that gauge how fast the machine is right now.

On a shared machine, other tenants slow every process down by tens of
per cent for tens of seconds at a time, which no amount of repetition
inside one run averages out.  The benchmark therefore times a kernel right
before and right after every timed unit and reports each unit's time as a
multiple of the kernel's mean time around it, scaled by the kernel's
`nominal_s`, about its median time on the machine that defined the
benchmark (a 2-vCPU Intel Xeon VM at 2.1 GHz).

Memory-bound and compute-bound code slow down by different amounts, so a
workload is gauged by the kernel that does what its code does most: ENGINE
(broadcast int64 arithmetic over arrays of a few MiB, a masked minimum, a
sort) for the search, the baselines and the set-up, ORACLE (integer
division of iteration counters, a small integer matrix product, a sorted
union) for the trace oracle.  Neither uses convsched code, so a change to
the program never changes them, and neither keeps memory between runs.
The raw seconds are kept in the run's record under perfbench/out/.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _engine() -> None:
    x = (np.arange(4 << 17, dtype=np.int64).reshape(4, -1) * 2654435761) % (1 << 20)
    y = (np.arange(6 << 17, dtype=np.int64).reshape(6, -1) * 40503) % (1 << 20)
    total = x[:, None, :] * 3 + y[None, :, :]
    buffer = x[:, None, :] + 2 * y[None, :, :]
    masked = np.where(buffer <= 1 << 20, total, 1 << 40)
    best = int(masked.min())
    np.flatnonzero(masked.reshape(-1) == best)
    np.sort(y[0] ^ x[1])


def _oracle() -> None:
    it = np.arange(1 << 17, dtype=np.int64)
    strides = (1, 3, 15, 105, 945, 11340, 124740, 1247400)
    extents = (3, 5, 7, 9, 12, 11, 10, 13)
    counters = np.empty((8, it.size), dtype=np.int64)
    for j in range(8):
        counters[j] = (it // strides[j]) % extents[j]
    idx = (np.arange(48, dtype=np.int64).reshape(8, 6) % 3).T @ counters
    keys = (idx[0] * 7919 + idx[1]) * 104729 + idx[2] * 31 + idx[3]
    np.union1d(keys[::2], keys[1::2])


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], None]
    nominal_s: float

    def seconds(self) -> float:
        """Wall seconds of one run of the kernel."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


ENGINE = Kernel(_engine, 0.05)
ORACLE = Kernel(_oracle, 0.02)
