"""Shared randomized-signal helpers for the test suite."""

from __future__ import annotations

import zlib

import numpy as np

from stftpr.spectral import CyclicSignal
from stftpr.windows import omega_mask


def rng_for(*branch) -> np.random.Generator:
    words = [zlib.crc32(b.encode()) if isinstance(b, str) else int(b) for b in branch]
    return np.random.default_rng([101, *words])


def random_entries(rng, n: int) -> np.ndarray:
    # magnitudes bounded away from zero keep support detection unambiguous
    return rng.uniform(0.5, 1.5, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))


def random_signal(rng, d: int, support=None) -> CyclicSignal:
    v = np.zeros(d, dtype=np.complex128)
    idx = list(range(d)) if support is None else list(support)
    v[idx] = random_entries(rng, len(idx))
    return CyclicSignal(d, v)


def random_short_window(rng, d: int, L: int) -> CyclicSignal:
    v = np.zeros(d, dtype=np.complex128)
    v[: L + 1] = random_entries(rng, L + 1)
    return CyclicSignal(d, v)


def forced_zero_window(rng, d, L):
    """Short window on 0..L whose mask has a zero inside the band: neither generic nor full."""
    while True:
        k0 = int(rng.integers(1, L))
        l0 = int(rng.integers(0, d))
        tail = random_entries(rng, L)
        acc = sum(
            np.conj(tail[j - 1]) * tail[j - k0 - 1] * np.exp(2j * np.pi * j * l0 / d)
            for j in range(k0 + 1, L + 1)
        )
        head = -np.exp(-2j * np.pi * k0 * l0 / d) / np.conj(tail[k0 - 1]) * acc
        if not (0.1 < abs(head) < 10.0):
            continue
        v = np.zeros(d, dtype=np.complex128)
        v[0] = head
        v[1 : L + 1] = tail
        g = CyclicSignal(d, v)
        if not omega_mask(g).mask[k0, l0]:
            return g
