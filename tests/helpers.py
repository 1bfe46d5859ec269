"""Shared randomized-signal helpers for the test suite.

The signal and window draws are the acceptance battery's own generators, so a
test and a criterion given the same generator state see the same data.
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from stftpr.acceptance import forced_zero_window, random_entries, random_short_window, random_signal, row0_zero_window
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


def isolated_zeros_signal(rng: np.random.Generator, d: int, count: int) -> CyclicSignal:
    """Dense signal with ``count`` zeros, no two of them cyclic neighbours."""
    while True:
        zeros = np.sort(rng.choice(d, size=count, replace=False))
        if count < 2 or np.diff(np.append(zeros, zeros[0] + d)).min() >= 2:
            break
    v = random_signal(rng, d).entries.copy()
    v[zeros] = 0.0
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
        return next((path for path, _, _ in _differences(new[case], old[case], "")), "layout")

    return [f"{case}: {where(case)}" for case in sorted(new.keys() | old.keys()) if new.get(case) != old.get(case)]


def numeric_drift(actual: str, expected: str) -> dict[str, dict]:
    """For each top-level case that differs between two golden documents, how its leaves moved.

    Returns ``{case: {"drift": {path: relative drift}, "other": [path, ...]}}``.
    Each numeric leaf whose value changed gets ``|new - old| / max(|new|, |old|)``;
    every other change (a string, a status, a key or list entry on one side
    only, a number that became null) is listed under ``other``.  Paths read as
    in :func:`changed_cases`, and go on inside stored CLI stdout; a case on one
    side only reads ``added`` or ``removed``, and stdout that differs only in
    layout reads ``layout``.
    """
    new, old = json.loads(actual), json.loads(expected)
    report = {}
    for case in sorted(new.keys() | old.keys()):
        if new.get(case) == old.get(case):
            continue
        drift, other = {}, []
        if case not in old or case not in new:
            other.append("added" if case not in old else "removed")
        else:
            for path, a, b in _differences(new[case], old[case], ""):
                if _is_number(a) and _is_number(b):
                    drift[path] = abs(a - b) / max(abs(a), abs(b))
                else:
                    other.append(path)
        report[case] = {"drift": drift, "other": other if drift or other else ["layout"]}
    return report


def drift_report(actual: str, expected: str) -> str:
    """:func:`numeric_drift` as text: one line per changed case, naming its non-numeric paths,
    then how many numeric leaves moved and the largest relative drift among them."""
    lines = []
    for case, moved in numeric_drift(actual, expected).items():
        drift = moved["drift"]
        numbers = "no numeric leaf"
        if drift:
            numbers = f"{len(drift)} numeric leaves, largest drift {max(drift.values()):.3g}"
        lines.append(f"{case}: {numbers}; other: {', '.join(moved['other']) or 'none'}")
    return "\n".join(lines) or "no case changed"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_document(value):
    if isinstance(value, str) and value.lstrip().startswith(("{", "[")):
        try:
            return json.loads(value)
        except ValueError:
            pass
    return value


def _differences(new, old, path: str):
    """``(path, new, old)`` for each differing leaf, keys in sorted order.

    A key on one side only, or the first entry past the shorter list, ends its
    path, with None for the side that lacks it.
    """
    new, old = _as_document(new), _as_document(old)
    if isinstance(new, dict) and isinstance(old, dict):
        for key in sorted(new.keys() | old.keys()):
            inner = f"{path}.{key}" if path else str(key)
            if key not in new or key not in old:
                yield inner, new.get(key), old.get(key)
            else:
                yield from _differences(new[key], old[key], inner)
    elif isinstance(new, list) and isinstance(old, list):
        for i, (a, b) in enumerate(zip(new, old)):
            yield from _differences(a, b, f"{path}[{i}]")
        if len(new) != len(old):
            yield f"{path}[{min(len(new), len(old))}]", None, None
    elif new != old:
        yield path, new, old
