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
    """``case: path`` for each top-level case whose JSON differs between two golden documents.

    The path names the first differing leaf, keys in sorted order, such as
    ``recover.auto.notes.tau_supp`` or ``estimate.re[3]``.  A string holding a
    JSON document (the CLI stdout stored in the routing golden) is compared as
    that document, so the path goes on inside it.  A key present on one side
    only ends the path; a case present on one side only reads ``added`` or
    ``removed``, and stdout that differs only in layout reads ``layout``.
    """
    new, old = json.loads(actual), json.loads(expected)

    def where(case):
        if case not in old or case not in new:
            return "added" if case not in old else "removed"
        return _first_difference(new[case], old[case], "") or "layout"

    return [f"{case}: {where(case)}" for case in sorted(new.keys() | old.keys()) if new.get(case) != old.get(case)]


def _as_document(value):
    if isinstance(value, str) and value.lstrip().startswith(("{", "[")):
        try:
            return json.loads(value)
        except ValueError:
            pass
    return value


def _first_difference(new, old, path: str) -> str | None:
    new, old = _as_document(new), _as_document(old)
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted(new.keys() | old.keys()):
            inner = f"{path}.{key}" if path else str(key)
            if key not in new or key not in old:
                return inner
            found = _first_difference(new[key], old[key], inner)
            if found is not None:
                return found
        return None
    if isinstance(new, list) and isinstance(old, list):
        for i, (a, b) in enumerate(zip(new, old)):
            found = _first_difference(a, b, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(new) == len(old) else f"{path}[{min(len(new), len(old))}]"
    return None if new == old else path
