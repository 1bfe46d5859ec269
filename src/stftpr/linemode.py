"""Recovery for finitely supported line signals.

Two entry points: :func:`recover_line_block` inverts an embedded cyclic
measurement taken with a contiguous block window through the known route,
declaring every index off the signal's span a zero of it;
:func:`recover_line_limited` reconstructs a compact signal when the small
nonzero shifts are only known at a handful of unit-circle sample points.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .connectivity import components_line
from .errors import (
    DimensionMismatch,
    InconsistentData,
    InsufficientSamples,
    StftprError,
)
from .recovery import DEFAULT_TAU_SUPP, RecoveryOutcome, _plan_known, _solve_known, is_inconsistent
from .spectral import CyclicSignal, SpectrogramMeasurement
from .windows import DEFAULT_TAU_REL, classify_window


def _solve_row_coefficients(
    samples_z: np.ndarray, samples_v: np.ndarray, j_lo: int, j_hi: int
) -> np.ndarray:
    """Least-squares fit of V(k, z) = sum_{j=j_lo}^{j_hi} a_j z^(-j) at the given nodes."""
    n_coef = j_hi - j_lo + 1
    if samples_z.shape[0] < n_coef:
        raise InsufficientSamples(f"{samples_z.shape[0]} samples for {n_coef} coefficients")
    powers = np.arange(j_lo, j_hi + 1)
    M = samples_z[:, None] ** (-powers[None, :])
    coeffs, *_ = np.linalg.lstsq(M, samples_v, rcond=None)
    return coeffs


def recover_line_block(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    L: int,
    f_span_bound: int | None = None,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> RecoveryOutcome:
    """Invert an embedded line measurement taken with a window supported on 0..L.

    The signal sits on embedded indices 0..f_span_bound-1, so every other
    index is a known zero of it: the known route completes row 0 off that
    zero set (noted ``zero_set``: ``span``), reads the support S there, and
    completes every other row k off S ∩ (S+k), so the window's ambiguity
    zeros cost nothing.  The estimate's relative miss of the relation rows
    it read (``residual``) decides the verdict: a signal longer than
    ``f_span_bound`` is Inconsistent.  Embedded indices never wrap, so the
    partition is reported under the line relation.
    """
    if X.d != g.d:
        raise DimensionMismatch(f"measurement d={X.d}, window d={g.d}")
    d = X.d
    if g.support(tau_rel) != tuple(range(L + 1)):
        raise StftprError(f"window support must be exactly 0..{L} in embedded coordinates")
    if f_span_bound is None:
        f_span_bound = (d - 3) // 2 - (L + 1)
    if f_span_bound < 1:
        raise StftprError("embedding dimension leaves no room for the signal")
    zeros = np.arange(d) >= f_span_bound
    plan = _plan_known(X, classify_window(g, tau_rel), None, tau_rel, tau_supp, ("span", zeros))
    if isinstance(plan, StftprError):
        raise plan
    outcome = _solve_known(X, g, **plan, tau_rel=tau_rel, tau_supp=tau_supp)
    notes = {**outcome.notes, "L": L, "f_span_bound": f_span_bound}
    return replace(outcome, components=components_line(outcome.components.universe, L), notes=notes)


def _pick_two_nodes(samples: list[tuple[complex, complex]], power: int) -> tuple[int, int]:
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            z0, z1 = samples[i][0], samples[j][0]
            if abs(z0**power - z1**power) > 1e-9:
                return i, j
    raise InsufficientSamples(f"no sample pair separates under the power {power}")


def recover_line_limited(
    corr_samples: dict[int, list[tuple[complex, complex]]],
    kstar: int,
    extent_bound: int,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> tuple[dict[int, complex], float]:
    """Reconstruct a line signal supported in 0..extent_bound from limited samples.

    ``corr_samples[k]`` lists (node z, V_ff(k, z)) pairs.  The zero row and all
    rows beyond ``kstar`` must determine their polynomials; rows 1..kstar only
    need kstar+1 nodes each.  Wide supports finish by direct division against
    the two endpoint entries; compact supports walk inward, eliminating the two
    endpoint unknowns of each row through a two-node difference.

    Returns the signal as a support map together with the worst sample residual.
    """
    if kstar < 1:
        raise StftprError(f"need kstar >= 1, got {kstar}")
    if 0 not in corr_samples:
        raise InsufficientSamples("the zero-shift row is required")
    for k in range(1, kstar + 1):
        if len(corr_samples.get(k, ())) < kstar + 1:
            raise InsufficientSamples(f"row {k} needs at least {kstar + 1} samples")

    def row_nodes(k):
        pts = corr_samples[k]
        z = np.array([p[0] for p in pts], dtype=np.complex128)
        v = np.array([p[1] for p in pts], dtype=np.complex128)
        return z, v

    def full_row(k) -> np.ndarray:
        if k not in corr_samples:
            raise InsufficientSamples(f"row {k} is required but absent")
        z, v = row_nodes(k)
        coeffs = _solve_row_coefficients(z, v, k, extent_bound)
        row = np.zeros(extent_bound + 1, dtype=np.complex128)
        row[k:] = coeffs
        return row

    a0 = full_row(0)
    mags_sq = np.clip(a0.real, 0.0, None)
    peak = mags_sq.max()
    est: dict[int, complex] = {}
    if peak <= 0.0:
        return est, 0.0
    supp = [j for j in range(extent_bound + 1) if mags_sq[j] > tau_supp * peak]
    j0, jN = supp[0], supp[-1]
    span = jN - j0

    f = np.zeros(extent_bound + 1, dtype=np.complex128)
    f[j0] = math.sqrt(mags_sq[j0])

    if span == 0:
        pass
    elif span >= 2 * kstar + 1:
        rows: dict[int, np.ndarray] = {}
        for j in supp[1:]:
            k = j - j0
            if k > kstar:
                rows.setdefault(k, full_row(k))
                f[j] = rows[k][j] / f[j0]
        for j in supp[1:]:
            if f[j] == 0:
                k = jN - j
                if k <= kstar:
                    raise InconsistentData("wide-support shortcut hit an unreachable index")
                rows.setdefault(k, full_row(k))
                f[j] = np.conj(rows[k][jN] / f[jN])
    else:
        # endpoint first: the row at shift span has a single coefficient
        if span > kstar:
            f[jN] = full_row(span)[jN] / f[j0]
        else:
            z, v = row_nodes(span)
            f[jN] = (v[0] * z[0] ** jN) / f[j0]
        lo, hi = 0, span  # assigned offsets: 0..lo and hi..span
        while lo + 1 < hi:
            step = lo  # paper-style induction index
            k = span - (step + 1)
            target_right = j0 + span - step - 1
            target_left = j0 + step + 1
            if k > kstar:
                row = full_row(k)
                f[target_right] = row[target_right] / f[j0]
                f[target_left] = np.conj(row[jN] / f[jN])
            else:
                pts = corr_samples[k]
                i0, i1 = _pick_two_nodes(pts, step + 1)
                picked = [pts[i0], pts[i1]]
                w_vals = []
                for z, v in picked:
                    known = 0.0 + 0.0j
                    for j in range(target_right + 1, jN):
                        known += f[j] * np.conj(f[j - k]) * z ** (-j)
                    w_vals.append(v - known)
                (z0, _), (z1, _) = picked
                diff = z0 ** (step + 1) - z1 ** (step + 1)
                right_prod = (z0**jN * w_vals[0] - z1**jN * w_vals[1]) / diff
                f[target_right] = right_prod / np.conj(f[j0])
                left_prod = z0**jN * w_vals[0] - right_prod * z0 ** (step + 1)
                f[target_left] = np.conj(left_prod / f[jN])
            lo += 1
            hi -= 1

    residual = 0.0
    idx = np.arange(extent_bound + 1)
    for k, pts in corr_samples.items():
        prods = f[k:] * np.conj(f[: extent_bound + 1 - k]) if k <= extent_bound else None
        for z, v in pts:
            predicted = np.sum(prods * z ** (-idx[k:])) if prods is not None else 0.0 + 0.0j
            residual = max(residual, float(abs(predicted - v)))
    scale = float(peak)
    if is_inconsistent(residual, scale):
        raise InconsistentData(f"sample residual {residual:.3e} exceeds tolerance")

    for j in range(extent_bound + 1):
        if abs(f[j]) > 0.0 and mags_sq[j] > tau_supp * peak:
            est[j] = complex(f[j])
    return est, residual
