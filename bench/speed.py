"""Host-speed normalisation for a shared, contended machine.

On a host shared with other tenants the same work can take 20-90% longer from
one minute to the next while steal time stays near zero: the slowdown is
contention for cores, caches and memory.  Wall times of the program then move
with the neighbours, not with the code, and by more than a benchmark bound.

``Speed`` runs a fixed kernel, which does not call stftpr, before every timed
unit of the run.  A time measured at instant ``t`` is divided by the host's
slowdown at ``t``: the median time of the NEAREST kernel samples around ``t``
over the kernel's uncontended time.  The result reads as the time the unit
would have taken on the uncontended reference host.  Raw wall times are
recorded beside the normalised ones.

Interpreter-bound code slows more under contention than memory-bound code
(about 1.7x against 1.4x when the host is busy), so a time is normalised by
the kernel of its own shape: ``walk`` for the Python-level phase walks,
``table`` for the d = 1024 transform tables, and both together for a child
process.
"""

from __future__ import annotations

import bisect
import functools
import math
import statistics
import time
from collections import deque

import numpy as np

NEAREST = 9  # kernel samples whose median gives the slowdown at an instant

_D = 1024
_RNG = np.random.default_rng(0)
_ROWS = np.exp(2j * np.pi * _RNG.uniform(size=(4, _D)))
# the kernels write their arrays only into preallocated buffers (these, and the
# table kernel's, made on first use): a kernel that allocated would time the
# allocator's state, which the program's own allocations set, not only the host
_BLOCK = np.exp(2j * np.pi * _RNG.uniform(size=(64, _D)))
_SPEC = np.empty_like(_BLOCK)
_MAG = np.empty(_BLOCK.shape)


def walk_kernel() -> float:
    """A breadth-first phase walk over numpy scalars with dict and set traffic,
    then a few batched FFTs: the shape of the all-shifts routes and of a CLI call."""
    support = set(range(0, _D, 3)) | set(range(1, _D, 3))
    phases = {0: 0.0}
    queue = deque([0])
    worst = 0.0
    while queue:
        j = queue.popleft()
        for k in (1, 2, 3):
            fwd = (j + k) % _D
            if fwd in support:
                implied = (float(np.angle(_ROWS[k][fwd])) + phases[j] + math.pi) % (2 * math.pi) - math.pi
                if fwd in phases:
                    worst = max(worst, abs(implied - phases[fwd]))
                else:
                    phases[fwd] = implied
                    queue.append(fwd)
    np.fft.fft(_BLOCK, axis=1, out=_SPEC)
    np.multiply(_SPEC, _ROWS[0], out=_SPEC)
    np.fft.ifft(_SPEC, axis=1, out=_SPEC)
    return float(np.abs(_SPEC, out=_MAG).sum()) + worst + len(phases)


@functools.cache
def _table_buffers() -> tuple:
    rows = 512  # 8 MB a complex table: twice the L2 cache of a core
    idx = (np.arange(rows)[:, None] - np.arange(_D)[None, :]) % _D
    return idx, np.empty((rows, _D), complex), np.empty((rows, _D), complex), np.empty((rows, _D))


def table_kernel() -> float:
    """Rows of a windowed-transform table at d = 1024, gathered, transformed
    and squared: the memory-bound shape of the band-short items."""
    idx, prod, table, power = _table_buffers()
    np.take(_ROWS[0], idx, out=prod)
    np.conj(prod, out=prod)
    prod *= _ROWS[1]
    np.fft.fft(prod, axis=1, out=table)
    np.abs(table, out=power)
    power *= power
    return float(power.sum())


# about the fastest time of each kernel seen on the host that defined the
# benchmark (Intel Xeon, 2 vCPU): its uncontended time
REFERENCE_S = {"walk": 4.5e-3, "table": 8.5e-3, "child": 13e-3}


class Speed:
    """Kernel samples taken through a run, and the slowdown they give at any instant.

    Each sample runs both kernels.  A unit of work is normalised by the kernel
    of its shape: ``walk`` or ``table`` for in-process work, and ``child``, the
    two together, for a child process, whose interpreter start-up and imports
    mix both kinds of work.
    """

    def __init__(self):
        self.at: list[float] = []  # sample mid-points, perf_counter seconds, increasing
        self.took: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}

    @staticmethod
    def warm_up() -> None:
        walk_kernel()
        table_kernel()  # plans the FFTs and makes the buffers, outside any sample

    def sample(self) -> None:
        t0 = time.perf_counter()
        walk_kernel()
        t1 = time.perf_counter()
        table_kernel()
        t2 = time.perf_counter()
        self.at.append(t1)
        self.took["walk"].append(t1 - t0)
        self.took["table"].append(t2 - t1)
        self.took["child"].append(t2 - t0)

    def slowdown(self, kind: str, t: float) -> float:
        """Median ``kind`` kernel time of the NEAREST samples around instant ``t``, over its reference."""
        if not self.at:
            raise RuntimeError("no speed samples taken")
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return statistics.median(self.took[kind][lo:lo + NEAREST]) / REFERENCE_S[kind]

    def normalised(self, kind: str, seconds: float, start: float) -> float:
        """``seconds`` measured from ``start`` on, as on the uncontended reference host."""
        return seconds / self.slowdown(kind, start + 0.5 * seconds)

    def summary(self) -> dict:
        return {"reference_s": REFERENCE_S, "samples": len(self.at),
                "median_slowdown": {k: statistics.median(v) / REFERENCE_S[k] for k, v in self.took.items() if v},
                "at_s": self.at, "took_s": {k: self.took[k] for k in ("walk", "table")}}
