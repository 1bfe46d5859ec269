"""Shared randomized-signal helpers for the test suite.

The signal and window draws are the acceptance battery's own generators, so a
test and a criterion given the same generator state see the same data.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from stftpr.acceptance import forced_zero_window, random_entries, random_short_window, random_signal
from stftpr.spectral import CyclicSignal


def rng_for(*branch) -> np.random.Generator:
    words = [zlib.crc32(b.encode()) if isinstance(b, str) else int(b) for b in branch]
    return np.random.default_rng([101, *words])


def random_sparse_window(rng: np.random.Generator, d: int) -> CyclicSignal:
    """Window with 2 to 7 taps at distinct random indices in 0..d/2-1."""
    taps = rng.choice(d // 2, size=int(rng.integers(2, 8)), replace=False)
    v = np.zeros(d, dtype=np.complex128)
    v[taps] = random_entries(rng, taps.size)
    return CyclicSignal(d, v)


def changed_cases(actual: str, expected: str) -> list[str]:
    """Ids of the top-level cases whose JSON differs between two golden documents."""
    new, old = json.loads(actual), json.loads(expected)
    return sorted(case for case in new.keys() | old.keys() if new.get(case) != old.get(case))
