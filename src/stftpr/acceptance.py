"""Acceptance suite: one callable per criterion, each seeded and self-contained.

Every criterion returns a :class:`CriterionResult`; :func:`run_all` executes the
whole battery and is what both ``stftpr selftest`` and the pytest acceptance
module drive.  Signals are drawn with magnitudes bounded away from zero on
their support so that support detection is never borderline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adversary import delta_pair, periodic_family, real_even_pair, small_d_witness
from .connectivity import components_mod_d
from .linemode import recover_line_block, recover_line_limited
from .recovery import (
    STATUS_PER_COMPONENT,
    STATUS_UNIQUE,
    compare_up_to_phase,
    hole_zero_set,
    measurement_coeffs,
    recover,
)
from .spectral import CyclicSignal, dft, embed_line, measure, relation_transform, stft
from .windows import (
    construct_line_difference_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
    lstar,
    omega_L_d,
    omega_mask,
)

DEFAULT_SEED = 20240808


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.index:2d} - {self.name}: {self.detail}"


def _rng(seed: int, *branch: int) -> np.random.Generator:
    return np.random.default_rng([seed, *branch])


def random_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    mags = rng.uniform(0.5, 1.5, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return mags * np.exp(1j * phases)


def random_signal(rng: np.random.Generator, d: int, support=None) -> CyclicSignal:
    v = np.zeros(d, dtype=np.complex128)
    idx = list(range(d)) if support is None else list(support)
    v[idx] = random_entries(rng, len(idx))
    return CyclicSignal(d, v)


def random_short_window(rng: np.random.Generator, d: int, L: int) -> CyclicSignal:
    v = np.zeros(d, dtype=np.complex128)
    v[: L + 1] = random_entries(rng, L + 1)
    return CyclicSignal(d, v)


def criterion_1_relation(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Demodulated measurements factor into signal x window ambiguity products."""
    worst = 0.0
    for d in range(2, 17):
        for trial in range(100):
            rng = _rng(seed, 1, d, trial)
            f = random_signal(rng, d)
            g = random_signal(rng, d)
            R = relation_transform(measure(f, g)).values
            target = stft(f, f).values * np.conj(stft(g, g).values)
            scale = float(np.abs(target).max())
            worst = max(worst, float(np.abs(R - target).max()) / scale)
    return CriterionResult(1, "ambiguity relation", worst < 1e-9, f"max relative deviation {worst:.3e} (< 1e-9)")


def criterion_2_orthogonality(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Transform inner products equal d <f, f2> <g2, g>."""
    worst = 0.0
    for d in (3, 8, 16):
        for trial in range(100):
            rng = _rng(seed, 2, d, trial)
            f, f2, g, g2 = (random_signal(rng, d) for _ in range(4))
            lhs = complex(np.sum(stft(f, g).values * np.conj(stft(f2, g2).values)))
            rhs = d * complex(np.sum(f.entries * np.conj(f2.entries))) * complex(
                np.sum(g2.entries * np.conj(g.entries))
            )
            scale = d * f.norm() * f2.norm() * g.norm() * g2.norm()
            worst = max(worst, abs(lhs - rhs) / scale)
    return CriterionResult(2, "orthogonality constant", worst < 1e-9, f"max relative deviation {worst:.3e} (< 1e-9)")


def _random_connected_support(rng: np.random.Generator, d: int, L: int) -> list[int]:
    while True:
        supp = [j for j in range(d) if rng.uniform() < 0.5]
        if not supp:
            continue
        if components_mod_d(supp, d, L).is_connected:
            return supp


def criterion_3_generic_recovery(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Random short windows certify generic and recover connected signals."""
    d, L, trials = 16, 7, 200
    band = omega_L_d(d, L)
    generic_count = 0
    worst = 0.0
    for trial in range(trials):
        rng = _rng(seed, 3, trial)
        g = random_short_window(rng, d, L)
        if not omega_mask(g).same_mask(band):
            continue
        generic_count += 1
        f = random_signal(rng, d, _random_connected_support(rng, d, L))
        out = recover(measure(f, g), g, mode="known", L=L)
        if out.status != STATUS_UNIQUE:
            return CriterionResult(3, "generic-window recovery", False, f"trial {trial}: status {out.status}")
        worst = max(worst, compare_up_to_phase(f, out.estimate)[1])
    passed = generic_count >= 199 and worst < 1e-7
    detail = f"{generic_count}/{trials} generic (>= 199), max aligned error {worst:.3e} (< 1e-7)"
    return CriterionResult(3, "generic-window recovery", passed, detail)


def _component_supports(rng: np.random.Generator, d: int, L: int, n_parts: int) -> list[list[int]]:
    # blocks separated by gaps of at least L+1, randomly rotated
    if n_parts == 2:
        j = int(rng.integers(0, d))
        return [[j], [(j + d // 2) % d]]
    # three blocks with exactly L zeros between consecutive blocks (cyclically);
    # at d = 16, L = 4 the zero budget 3L = 12 leaves room for 3 or 4 nonzeros
    sizes = [2, 1, 1] if rng.uniform() < 0.5 else [1, 1, 1]
    rng.shuffle(sizes)
    starts = [0, sizes[0] + L, sizes[0] + sizes[1] + 2 * L]
    rot = int(rng.integers(0, d))
    return [[(s + off + rot) % d for off in range(size)] for s, size in zip(starts, sizes)]


def criterion_4_disconnected(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Disconnected signals: per-component verdicts and twist-invariant measurements.

    At (d, L) = (16, 7) the only disconnected supports are antipodal pairs, so
    the three-component half of the criterion runs at L = 4 (same d).
    """
    d = 16
    worst_gap_rel = 0.0
    for trial in range(100):
        for L, n_parts in ((7, 2), (4, 3)):
            rng = _rng(seed, 4, L, trial)
            g = random_short_window(rng, d, L)
            if not omega_mask(g).same_mask(omega_L_d(d, L)):
                continue
            parts = _component_supports(rng, d, L, n_parts)
            supp = [j for part in parts for j in part]
            f = random_signal(rng, d, supp)
            X = measure(f, g)
            out = recover(X, g, mode="known", L=L)
            if out.status != STATUS_PER_COMPONENT or out.free_phases != n_parts:
                return CriterionResult(
                    4, "disconnected signals", False,
                    f"L={L} trial {trial}: status {out.status}, {out.free_phases} components (expected {n_parts})",
                )
            twisted = f.entries.copy()
            for part in parts:
                twisted[part] = twisted[part] * np.exp(2j * np.pi * rng.uniform())
            X2 = measure(CyclicSignal(d, twisted), g)
            gap = float(np.abs(X2.sq_mag - X.sq_mag).max()) / float(X.sq_mag.max())
            worst_gap_rel = max(worst_gap_rel, gap)
    passed = worst_gap_rel < 1e-9
    detail = f"verdicts exact; max twisted-measurement gap {worst_gap_rel:.3e} (< 1e-9)"
    return CriterionResult(4, "disconnected signals", passed, detail)


def _mixed_supports(rng: np.random.Generator, d: int, trial: int, antipodal_slot: bool) -> list[int] | None:
    kind = trial % 5
    if kind == 0:
        return None  # full support
    if kind == 1:
        return [int(rng.integers(0, d))]
    if kind == 2 and antipodal_slot:
        j = int(rng.integers(0, d))
        return [j, (j + d // 2) % d]
    if kind == 2:
        j = int(rng.integers(0, d))
        return [j, (j + 1 + int(rng.integers(0, d - 2))) % d]
    if kind == 3:
        return sorted(rng.choice(d, size=3, replace=False).tolist())
    return [j for j in range(d) if rng.uniform() < 0.6] or [0]


def criterion_5_center(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Punctured-center windows: exact single hole and full recovery."""
    worst = 0.0
    for d in range(4, 21, 2):
        g = construct_punctured_center_window(d)
        if omega_mask(g).false_entries() != ((d // 2, d // 2),):
            return CriterionResult(5, "punctured-center window", False, f"d={d}: wrong hole set")
        for trial in range(50):
            rng = _rng(seed, 5, d, trial)
            supp = _mixed_supports(rng, d, trial, antipodal_slot=True)
            f = random_signal(rng, d, supp)
            out = recover(measure(f, g), g, mode="known")
            if out.status != STATUS_UNIQUE:
                return CriterionResult(5, "punctured-center window", False, f"d={d} trial {trial}: {out.status}")
            worst = max(worst, compare_up_to_phase(f, out.estimate)[1])
    return CriterionResult(5, "punctured-center window", worst < 1e-7, f"max aligned error {worst:.3e} (< 1e-7)")


def criterion_6_dc(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Punctured-dc windows: exact hole pair, l* arithmetic, full recovery."""
    worst = 0.0
    for d in range(5, 21):
        ls = lstar(d)
        if not (d / 4 < ls < 3 * d / 4):
            return CriterionResult(6, "punctured-dc window", False, f"d={d}: l*={ls} out of range")
        if d != 6 and math.gcd(ls, d) != 1:
            return CriterionResult(6, "punctured-dc window", False, f"d={d}: gcd(l*, d) != 1")
        g = construct_punctured_dc_window(d, seed=seed + d)
        if set(omega_mask(g).false_entries()) != {(0, ls), (0, (d - ls) % d)}:
            return CriterionResult(6, "punctured-dc window", False, f"d={d}: wrong hole set")
        for trial in range(50):
            rng = _rng(seed, 6, d, trial)
            supp = _mixed_supports(rng, d, trial, antipodal_slot=False)
            f = random_signal(rng, d, supp)
            out = recover(measure(f, g), g, mode="known")
            if out.status != STATUS_UNIQUE:
                return CriterionResult(6, "punctured-dc window", False, f"d={d} trial {trial}: {out.status}")
            worst = max(worst, compare_up_to_phase(f, out.estimate)[1])
    return CriterionResult(6, "punctured-dc window", worst < 1e-7, f"max aligned error {worst:.3e} (< 1e-7)")


def forced_zero_window(rng: np.random.Generator, d: int, L: int) -> CyclicSignal:
    """Window on 0..L with one ambiguity zero forced at a random band entry: neither generic nor full."""
    while True:
        k0 = int(rng.integers(1, L))
        l0 = int(rng.integers(0, d))
        tail = random_entries(rng, L)  # entries 1..L
        acc = 0.0 + 0.0j
        for j in range(k0 + 1, L + 1):
            acc += np.conj(tail[j - 1]) * tail[j - k0 - 1] * np.exp(2j * np.pi * j * l0 / d)
        head = -np.exp(-2j * np.pi * k0 * l0 / d) / np.conj(tail[k0 - 1]) * acc
        if not (0.1 < abs(head) < 10.0):
            continue
        v = np.zeros(d, dtype=np.complex128)
        v[0] = head
        v[1 : L + 1] = tail
        g = CyclicSignal(d, v)
        if not omega_mask(g).mask[k0, l0]:
            return g


def row0_zero_window(rng: np.random.Generator, d: int, L: int) -> CyclicSignal:
    """Window nonzero on all of 0..L (2 <= L, 2L+1 < d) whose ambiguity row 0 vanishes at a random l.

    Row 0 is the transform of |g|², so the weights w_j = |g_j|² are drawn
    with sum_j w_j ω^(jl) = 0: w_2..w_L at random, w_0 and w_1 solved.
    The row is partial, and only a zero set of the signal completes it.
    """
    if not 2 <= L < (d - 1) / 2:
        raise ValueError(f"need 2 <= L and 2L+1 < d, got L={L}, d={d}")
    while True:
        l = int(rng.integers(1, d))
        z = np.exp(2j * np.pi * l / d)
        if abs(z.imag) < 0.1:
            continue
        w = np.zeros(L + 1)
        w[2:] = rng.uniform(0.5, 1.5, size=L - 1)
        rest = np.dot(w[2:], z ** np.arange(2, L + 1))
        w[1] = -rest.imag / z.imag
        w[0] = -rest.real - w[1] * z.real
        if (w[:2] > 0.1).all():
            v = np.zeros(d, dtype=np.complex128)
            v[: L + 1] = np.sqrt(w) * np.exp(2j * np.pi * rng.uniform(size=L + 1))
            return CyclicSignal(d, v)


def criterion_7_hole(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Short windows with a partial row 0 recover signals with length-(L+1) or exact-L holes: the
    zero-set reader finds each hole from the measurement, and row 0 is completed off it."""
    d, L = 12, 4
    worst = 0.0
    for trial in range(100):
        rng = _rng(seed, 7, trial)
        g = row0_zero_window(rng, d, L)  # starts at index 0, so its band rows are anchored
        j_star = int(rng.integers(0, d))
        # a length-(L+1) hole on j*..j*+L; an exact-L hole after j*, nonzero at j* and at j*+L+1
        for label, start, length in (("hole-L+1", j_star, L + 1), ("hole-L", j_star + 1, L)):
            f = random_signal(rng, d, [(start + length + off) % d for off in range(d - length)])
            X = measure(f, g)
            found = hole_zero_set(measurement_coeffs(X, L))
            run = sorted((start + np.arange(length)) % d)
            if found is None or found[0] != label or np.flatnonzero(found[1]).tolist() != run:
                why = f"trial {trial}: reader missed the {label} at {start}"
                return CriterionResult(7, "hole-based recovery", False, why)
            out = recover(X, g)
            if out.status != STATUS_UNIQUE or (out.notes["route"], out.notes.get("zero_set")) != ("known", label):
                return CriterionResult(7, "hole-based recovery", False, f"trial {trial} ({label}): {out.status}")
            worst = max(worst, compare_up_to_phase(f, out.estimate)[1])
    return CriterionResult(7, "hole-based recovery", worst < 1e-7, f"max aligned error {worst:.3e} (< 1e-7)")


def criterion_8_counterexamples(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Every counterexample bundle passes its own self-check."""
    bundles = [periodic_family(8, 3, 2)]
    for d in (4, 6, 8):
        bundles.append(real_even_pair(d, seed=seed + d))
    for d in (2, 3):
        for k in range(d):
            for l in range(d):
                if (k, l) != (0, 0):
                    bundles.append(small_d_witness(d, (k, l)))
    window = construct_line_difference_window(6, [1.0] * 6)
    dropped_pos = sorted(window)[2]
    truncated = {p: c for p, c in window.items() if p != dropped_pos}
    uncovered = dropped_pos - sorted(window)[1]  # unique difference lost with the dropped term
    bundles.append(delta_pair(uncovered, truncated))
    bad = [i for i, b in enumerate(bundles) if not b.is_valid()]
    return CriterionResult(
        8, "counterexample suite", not bad,
        f"{len(bundles)} bundles, all self-checks pass" if not bad else f"bundles {bad} failed",
    )


def criterion_9_line(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Block-window line dichotomy and limited-sample line recovery."""
    worst = 0.0
    for L in (2, 4):
        for trial in range(40):
            rng = _rng(seed, 9, L, trial)
            supp = sorted({int(j) for j in rng.choice(13, size=int(rng.integers(1, 7)), replace=False)})
            f_map = {j: complex(z) for j, z in zip(supp, random_entries(rng, len(supp)))}
            g_map = {j: complex(z) for j, z in zip(range(L + 1), random_entries(rng, L + 1))}
            f_emb, g_emb, d = embed_line(f_map, g_map)
            out = recover_line_block(measure(f_emb, g_emb), g_emb, L)
            from .connectivity import components_line

            expected = components_line(supp, L)
            if out.free_phases != expected.n_components:
                return CriterionResult(9, "line mode", False, f"L={L} trial {trial}: component count mismatch")
            if expected.is_connected:
                if out.status != STATUS_UNIQUE:
                    return CriterionResult(9, "line mode", False, f"L={L} trial {trial}: {out.status}")
                worst = max(worst, compare_up_to_phase(f_emb, out.estimate)[1])
            else:
                if out.status != STATUS_PER_COMPONENT:
                    return CriterionResult(9, "line mode", False, f"L={L} trial {trial}: {out.status}")
                for comp in out.components.components:
                    proj = np.zeros(d, dtype=np.complex128)
                    proj[list(comp)] = f_emb.entries[list(comp)]
                    est_proj = np.zeros(d, dtype=np.complex128)
                    est_proj[list(comp)] = out.estimate.entries[list(comp)]
                    worst = max(
                        worst,
                        compare_up_to_phase(CyclicSignal(d, proj), CyclicSignal(d, est_proj))[1],
                    )

    kstar = 2
    for trial in range(50):
        rng = _rng(seed, 9, 99, trial)
        extent = int(rng.integers(1, 13))
        size = int(rng.integers(2, min(extent + 1, 6) + 1))
        supp = sorted({0, extent, *rng.choice(extent + 1, size=size, replace=False).tolist()})
        f = np.zeros(extent + 1, dtype=np.complex128)
        f[supp] = random_entries(rng, len(supp))
        n_nodes = 2 * extent + 5
        nodes = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)

        def vff(k, z):
            return complex(sum(f[j] * np.conj(f[j - k]) * z ** (-j) for j in range(k, extent + 1)))

        samples = {0: [(z, vff(0, z)) for z in nodes[: extent + 2]]}
        for k in range(1, kstar + 1):
            picks = nodes[[1, (n_nodes // 3) % n_nodes, (2 * n_nodes // 3) % n_nodes]]
            samples[k] = [(z, vff(k, z)) for z in picks]
        for k in range(kstar + 1, extent + 1):
            samples[k] = [(z, vff(k, z)) for z in nodes[: extent + 2]]
        sig, _ = recover_line_limited(samples, kstar, extent)
        est = np.zeros(extent + 1, dtype=np.complex128)
        for j, val in sig.items():
            est[j] = val
        gamma = complex(np.vdot(f, est))
        gamma = gamma / abs(gamma) if abs(gamma) > 0 else 1.0
        worst = max(worst, float(np.linalg.norm(est - gamma * f) / np.linalg.norm(f)))
    return CriterionResult(9, "line mode", worst < 1e-7, f"max aligned error {worst:.3e} (< 1e-7)")


def criterion_10_oracles(seed: int = DEFAULT_SEED) -> CriterionResult:
    """FFT-backed transforms match explicit exponent-matrix sums."""
    worst = 0.0
    for d in (2, 3, 4, 5, 6, 8, 12, 16, 24, 32):
        j = np.arange(d)
        W = np.exp(-2j * np.pi * np.outer(j, j) / d)
        for trial in range(50):
            rng = _rng(seed, 10, d, trial)
            v = random_entries(rng, d)
            naive = W @ v
            worst = max(worst, float(np.abs(dft(v) - naive).max() / np.abs(naive).max()))

            f = random_signal(rng, d)
            g = random_signal(rng, d)
            shifted = g.entries[(j[None, :] - j[:, None]) % d]
            naive_stft = (f.entries[None, :] * np.conj(shifted)) @ W.T
            fast = stft(f, g).values
            worst = max(worst, float(np.abs(fast - naive_stft).max() / np.abs(naive_stft).max()))

            X = measure(f, g)
            naive_rel = (W.T @ X.sq_mag @ np.conj(W)).T / d
            fast_rel = relation_transform(X).values
            worst = max(worst, float(np.abs(fast_rel - naive_rel).max() / np.abs(naive_rel).max()))
    return CriterionResult(10, "oracle equivalence", worst < 1e-12, f"max relative deviation {worst:.3e} (< 1e-12)")


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1_relation,
    criterion_2_orthogonality,
    criterion_3_generic_recovery,
    criterion_4_disconnected,
    criterion_5_center,
    criterion_6_dc,
    criterion_7_hole,
    criterion_8_counterexamples,
    criterion_9_line,
    criterion_10_oracles,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [fn(seed) for fn in CRITERIA]
