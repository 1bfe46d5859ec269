"""Naive reference implementations, independent of the package's FFT paths.

Everything here evaluates defining sums directly: literal Python loops for tiny
dimensions and explicit exponent matrices for the bulk checks.  These are the
oracles the fast transforms must match to 1e-12 relative.
"""

from __future__ import annotations

import cmath
import math
from collections import deque

import numpy as np


def naive_dft_loops(v) -> np.ndarray:
    d = len(v)
    out = np.zeros(d, dtype=np.complex128)
    for l in range(d):
        acc = 0.0 + 0.0j
        for j in range(d):
            acc += v[j] * cmath.exp(-2j * cmath.pi * j * l / d)
        out[l] = acc
    return out


def naive_inverse_dft_loops(v) -> np.ndarray:
    d = len(v)
    out = np.zeros(d, dtype=np.complex128)
    for j in range(d):
        acc = 0.0 + 0.0j
        for l in range(d):
            acc += v[l] * cmath.exp(2j * cmath.pi * j * l / d)
        out[j] = acc / d
    return out


def naive_stft_loops(f, g) -> np.ndarray:
    d = len(f)
    out = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            acc = 0.0 + 0.0j
            for j in range(d):
                acc += f[j] * g[(j - k) % d].conjugate() * cmath.exp(-2j * cmath.pi * j * l / d)
            out[k, l] = acc
    return out


def _exponent_matrix(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(-2j * np.pi * np.outer(j, j) / d)


def naive_dft(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    return _exponent_matrix(len(v)) @ v


def naive_stft(f, g) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    d = len(f)
    j = np.arange(d)
    shifted = g[(j[None, :] - j[:, None]) % d]
    return (f[None, :] * np.conj(shifted)) @ _exponent_matrix(d)


def dense_stft(f, g) -> np.ndarray:
    """The windowed transform with every one of the d shift rows transformed.

    Row k is ``fft(f * conj(roll(g, k)))`` from one d x d shift matrix: the
    package's former path, which the row-restricted one must match bit for bit.
    """
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    d = len(f)
    idx = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    return np.fft.fft(f[None, :] * np.conj(g[idx]), axis=1)


def gather_stft_rows(f, g, half: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """``stft_rows`` as one d x d index gather of the doubled window, then a separate conjugate, product
    and FFT: the package's former kernel, which the one-buffer kernel must match bit for bit.

    Rows are sought only where that kernel sought them, when nnz(f) * nnz(g) < d and every entry is
    finite, and here by testing each shift's supports for a meeting directly.
    """
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    d = len(f)
    rows = np.arange(d)
    if np.count_nonzero(f) * np.count_nonzero(g) < d and np.isfinite(f.sum() + g.sum()):
        rows = np.array([k for k in range(d) if np.any((f != 0) & (np.roll(g, k) != 0))], dtype=np.intp)
    if half:
        rows = rows[2 * rows <= d]
    shifted = np.concatenate((g, g))[(d - rows)[:, None] + np.arange(d)]
    return rows, np.fft.fft(f[None, :] * np.conj(shifted), axis=1)


def gather_stft(f, g) -> np.ndarray:
    """The full table of :func:`gather_stft_rows`, its unmet rows exactly zero."""
    rows, values = gather_stft_rows(f, g)
    table = np.zeros((len(f), len(f)), dtype=np.complex128)
    table[rows] = values
    return table


def gather_measure(f, g) -> np.ndarray:
    """``np.abs(stft(f, g).values) ** 2`` over :func:`gather_stft`: the former ``measure``."""
    return np.abs(gather_stft(f, g)) ** 2


def dense_omega_mask(g, tau_rel: float) -> tuple[np.ndarray, float, str]:
    """(mask, threshold, rule) of the window certification folded over the full dense table."""
    mags = np.abs(dense_stft(g, g))
    neg = (-np.arange(len(g))) % len(g)
    mags = np.maximum(mags, mags[np.ix_(neg, neg)])
    peak = float(mags.max())
    return mags > tau_rel * peak, tau_rel * peak, f"|V| > {tau_rel:g} * max|V| (max|V| = {peak:.6g})"


def loop_anchor_start(supp, d: int) -> int:
    """The support index after the largest cyclic gap, smallest start on ties, one gap at a time."""
    best_start, best_gap = None, -1
    for i, s in enumerate(supp):
        gap = (s - supp[i - 1]) % d if len(supp) > 1 else d
        if gap > best_gap or (gap == best_gap and s < best_start):
            best_start, best_gap = s, gap
    return best_start % d


def union_find_components(support, d: int | None, L) -> tuple[tuple[int, ...], ...]:
    """Components under steps of magnitude 1..L, or under each step of a step set (an iterable
    or an object with ``members``), mod d when given, by union-find over every step."""
    steps = range(1, L + 1) if isinstance(L, int) else sorted(int(k) for k in getattr(L, "members", L))
    parent = {j: j for j in support}

    def find(j):
        while parent[j] != j:
            j = parent[j]
        return j

    for j in support:
        for step in steps:
            other = (j + step) % d if d is not None else j + step
            if other in parent:
                parent[find(j)] = find(other)
    groups: dict[int, list[int]] = {}
    for j in support:
        groups.setdefault(find(j), []).append(j)
    return tuple(sorted((tuple(sorted(c)) for c in groups.values()), key=lambda c: c[0]))


def set_components_mod_d(support, d: int, L) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """Relation label and components of ``components_mod_d`` under a step set, as the former
    set-based code read them: the steps folded into a Python set of every shift, then the
    all-shifts case, a band {-L..L} (gap runs joined across the wrap), or union-find."""
    supp = sorted({int(j) for j in support})
    steps = {int(k) % d for k in getattr(L, "members", L)} - {0}
    steps |= {d - k for k in steps}
    if len(steps) == d - 1:
        return "all-shifts", (tuple(supp),) if supp else ()
    L = max((min(k, d - k) for k in steps), default=0)
    if 2 * L >= d or len(steps) != 2 * L:
        steps = sorted(k for k in steps if 2 * k <= d)
        return f"g-mod-d(d={d},D={steps})", union_find_components(supp, d, steps)
    return f"L-mod-d(d={d},L={L})", union_find_components(supp, d, L)


def naive_relation(sq_mag) -> np.ndarray:
    """Entrywise double sum (1/d) sum X[k',l'] e^(-2 pi i k'l/d) e^(+2 pi i l'k/d)."""
    X = np.asarray(sq_mag, dtype=np.float64)
    d = X.shape[0]
    kp = np.arange(d)
    out = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        col = np.exp(2j * np.pi * kp * k / d)  # over l'
        for l in range(d):
            row = np.exp(-2j * np.pi * kp * l / d)  # over k'
            out[k, l] = (row @ X @ col) / d
    return out


def naive_autocorrelation(f, k: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.complex128)
    d = len(f)
    return np.array([f[j] * f[(j - k) % d].conjugate() for j in range(d)])


def _wrap_angle(x: float) -> float:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def loop_propagate_phases(a: dict, d: int, components, universe) -> np.ndarray:
    """Breadth-first phase walk over every edge, one scalar at a time.

    ``a`` maps shift k to the row a[k][j] = f_j conj(f_{j-k}).  Each component's
    smallest index gets phase 0; the queue visits shifts ascending, forward
    before backward, and an index keeps the first phase an edge implies for it.
    """
    mags = np.sqrt(np.clip(a[0].real, 0.0, None))
    support = set(universe)
    shifts = sorted(k for k in a if k != 0)
    phases: dict[int, float] = {}
    for comp in components:
        phases[comp[0]] = 0.0
        queue = deque([comp[0]])
        while queue:
            j = queue.popleft()
            for k in shifts:
                fwd = (j + k) % d  # a[k][fwd] = f_fwd conj(f_j)
                if fwd in support and fwd not in phases:
                    phases[fwd] = _wrap_angle(float(np.angle(a[k][fwd])) + phases[j])
                    queue.append(fwd)
                bwd = (j - k) % d  # a[k][j] = f_j conj(f_bwd)
                if bwd in support and bwd not in phases:
                    phases[bwd] = _wrap_angle(phases[j] - float(np.angle(a[k][j])))
                    queue.append(bwd)
    est = np.zeros(d, dtype=np.complex128)
    for j, phi in phases.items():
        est[j] = mags[j] * np.exp(1j * phi)
    return est


def loop_hole_classifier(b: np.ndarray, tau_rel: float) -> list[int]:
    """Exact-L hole anchors by the defining conditions, one index and one shift at a time.

    ``b`` holds the band rows b[k], k = 0..L, as an (L+1) x d array.  An anchor j* has every row
    k = 1..L at most ``tau_rel`` times the rows' peak on j*+1-k .. j*+k, and
    some row k above it at j*-k.
    """
    L, d = b.shape[0] - 1, b.shape[1]
    rows = [np.abs(b[k]) for k in range(L + 1)]
    scale = max(float(rows[k].max()) for k in range(1, L + 1)) if L >= 1 else 0.0
    if scale <= 0.0:
        return []
    thr = tau_rel * scale
    anchors = []
    for j_star in range(d):
        cond_a = all(
            rows[k][(j_star + off) % d] <= thr
            for k in range(1, L + 1)
            for off in range(1 - k, k + 1)
        )
        if not cond_a:
            continue
        cond_b = any(rows[k][(j_star - k) % d] > thr for k in range(1, L + 1))
        if cond_b:
            anchors.append(j_star)
    return anchors


def loop_banded_equation_residual(a, b_row, coef, k: int) -> float:
    """Largest |b[j] - sum_i coef[i] a[j+k+i]| with one cyclic roll of a per tap."""
    a = np.asarray(a, dtype=np.complex128)
    predicted = np.zeros_like(a)
    for i, cf in enumerate(coef):
        predicted = predicted + cf * np.roll(a, -(k + i))
    return float(np.abs(predicted - np.asarray(b_row)).max())


def dense_relation_miss(est, X, g) -> float:
    """The estimate's largest miss of X's relation table over the rows k <= d/2 of D_g, over R[0, 0].

    Builds both full d x d tables, R = relation of X (from exponent matrices)
    and V_est * conj(V_gg) (every shift row transformed); D_g is the set of
    differences of g's nonzero indices.
    """
    est = np.asarray(est, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    d = len(g)
    F = _exponent_matrix(d)
    R = (F @ np.asarray(X, dtype=np.float64) @ np.conj(F)).T / d
    supp = np.flatnonzero(g)
    rows = np.unique((supp[:, None] - supp[None, :]) % d)
    rows = rows[2 * rows <= d]
    miss = dense_stft(est, est)[rows] * np.conj(dense_stft(g, g)[rows]) - R[rows]
    return float(np.abs(miss).max() / R[0, 0].real)
