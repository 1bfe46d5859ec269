"""Reconstruction and decision procedures on Z_d.

All solvers share one pipeline: turn the squared-magnitude measurement into
shift-autocorrelation data ``a[k][j] = f_j * conj(f_{j-k})`` for whichever
shifts the window's ambiguity support makes available, partition the recovered
support under the matching gap relation, then fix one phase per component and
propagate.  Window classes whose ambiguity support has specific holes (a short
band, a missing center entry, a missing dc-row pair) get dedicated routes that
reconstruct the shifts the direct division cannot reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connectivity import ConnectivityPartition, components_mod_d
from .errors import (
    AnchorInvalid,
    DimensionMismatch,
    EmptySupport,
    NonGenericWindow,
    PreconditionViolated,
    StftprError,
    WindowClassError,
)
from .spectral import CyclicSignal, SpectrogramMeasurement, ambiguity, measure, relation_transform
from .windows import (
    DEFAULT_TAU_REL,
    OmegaMask,
    WindowReport,
    canonical_anchor,
    classify_window,
    omega_L_d,
    omega_mask,
)

DEFAULT_TAU_SUPP = 1e-10
DEFAULT_PHASE_TOL = 1e-6
CONSISTENCY_REL_TOL = 1e-6

STATUS_UNIQUE = "UniqueUpToGlobalPhase"
STATUS_PER_COMPONENT = "UniquePerComponent"
STATUS_INCONSISTENT = "Inconsistent"
STATUS_UNDECIDABLE = "Undecidable"

VERDICT_RETRIEVABLE = "Retrievable"
VERDICT_NOT_RETRIEVABLE = "NotRetrievable"
VERDICT_UNDECIDABLE = "Undecidable"


@dataclass(frozen=True)
class CorrelationData:
    """Shift autocorrelations a[k][j] = f_j * conj(f_{j-k}) for known shifts k."""

    d: int
    a: dict[int, np.ndarray]

    def __post_init__(self):
        clean = {}
        for k, row in self.a.items():
            arr = np.asarray(row, dtype=np.complex128)
            if arr.shape != (self.d,):
                raise DimensionMismatch(f"row {k} has shape {arr.shape}, expected ({self.d},)")
            clean[int(k) % self.d] = arr
        object.__setattr__(self, "a", clean)

    @property
    def known_shifts(self) -> tuple[int, ...]:
        return tuple(sorted(self.a))

    def hermitian_residual(self) -> float:
        """Max violation of a[d-k][j] = conj(a[k][j+k]) over shift pairs both known."""
        worst = 0.0
        for k in self.a:
            mirror = (self.d - k) % self.d
            if mirror in self.a and mirror >= k:
                expected = np.conj(np.roll(self.a[k], -k))
                worst = max(worst, float(np.abs(self.a[mirror] - expected).max()))
        return worst


@dataclass(frozen=True)
class WindowCoefficients:
    """Products c[k][i] = g_{k+i} * conj(g_i), i = 0..L-k, of an anchored short window."""

    L: int
    c: dict[int, np.ndarray]


@dataclass(frozen=True)
class MeasurementCoefficients:
    """Demodulated band rows b[k], each the window-weighted smoothing of a[k]."""

    d: int
    L: int
    b: dict[int, np.ndarray]


@dataclass(frozen=True)
class RecoveryOutcome:
    status: str
    estimate: CyclicSignal | None
    components: ConnectivityPartition
    free_phases: int
    residual: float
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        from .serialize import round_float, signal_to_json

        def num(x):
            return None if isinstance(x, float) and math.isnan(x) else round_float(x)

        doc = {
            "status": self.status,
            "free_phases": self.free_phases,
            "residual": num(self.residual),
            "components": self.components.to_json(),
            "notes": {k: (num(v) if isinstance(v, float) else v) for k, v in sorted(self.notes.items())},
        }
        doc["estimate"] = signal_to_json(self.estimate) if self.estimate is not None else None
        return doc


@dataclass(frozen=True)
class DecisionReport:
    verdict: str
    partition: ConnectivityPartition | None
    notes: dict
    witnesses: tuple[CyclicSignal, ...] = ()


def compare_up_to_phase(f: CyclicSignal, f_est: CyclicSignal) -> tuple[complex, float]:
    """Best unimodular alignment factor and the aligned relative error.

    Returns (gamma, err) with err = ||f_est - gamma*f|| / ||f||; gamma defaults
    to 1 when the inner product between the two signals vanishes.
    """
    if f.d != f_est.d:
        raise DimensionMismatch(f"d={f.d} vs d={f_est.d}")
    fnorm = f.norm()
    if fnorm == 0.0:
        raise EmptySupport("cannot phase-align against the zero signal")
    ip = complex(np.vdot(f.entries, f_est.entries))
    gamma = ip / abs(ip) if abs(ip) > 1e-15 * fnorm * max(f_est.norm(), 1e-300) else 1.0 + 0.0j
    err = float(np.linalg.norm(f_est.entries - gamma * f.entries) / fnorm)
    return gamma, err


def window_coeffs(g: CyclicSignal, L: int, tau_rel: float = DEFAULT_TAU_REL) -> WindowCoefficients:
    """Shift products of a window anchored on support exactly {0..L}."""
    mags = np.abs(g.entries)
    peak = mags.max()
    if peak == 0.0:
        raise EmptySupport("zero window")
    inside = mags[: L + 1] > tau_rel * peak
    outside = mags[L + 1 :] > tau_rel * peak
    if not inside.all() or outside.any():
        raise WindowClassError(f"window support is not exactly 0..{L}")
    c = {}
    for k in range(L + 1):
        c[k] = g.entries[k : L + 1] * np.conj(g.entries[: L + 1 - k])
    return WindowCoefficients(L, c)


def measurement_coeffs(X: SpectrogramMeasurement, L: int) -> MeasurementCoefficients:
    """Band rows b[k] = inverse transform of the k-th relation-product row."""
    if not (0 <= L < X.d):
        raise StftprError(f"invalid band width L={L} for d={X.d}")
    R = relation_transform(X)
    b = {k: np.fft.ifft(R.values[k]) for k in range(L + 1)}
    return MeasurementCoefficients(X.d, L, b)


def recover_autocorrelations(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    mask: OmegaMask | None = None,
    tau_rel: float = DEFAULT_TAU_REL,
) -> CorrelationData:
    """Autocorrelation rows for every shift whose ambiguity row has no mask hole.

    Rows containing any masked-out entry are omitted entirely; division only
    happens where the mask is true.
    """
    if X.d != g.d:
        raise DimensionMismatch(f"measurement d={X.d}, window d={g.d}")
    if mask is None:
        mask = omega_mask(g, tau_rel)
    return _divide_full_rows(relation_transform(X).values, ambiguity(g).values, mask)


def _divide_full_rows(R: np.ndarray, amb: np.ndarray, mask: OmegaMask) -> CorrelationData:
    """Rows ifft(R[k] / conj(amb[k])) for every k whose mask row is all true, in one batch."""
    rows = np.flatnonzero(mask.mask.all(axis=1))
    divisors = amb[rows]
    vanished = np.abs(divisors).min(axis=1) <= 0.0  # guard: mask said "true" but the value is zero
    if vanished.any():
        raise StftprError(f"internal: ambiguity row {rows[vanished][0]} vanishes under a true mask")
    table = np.fft.ifft(R[rows] / np.conj(divisors), axis=1)
    return CorrelationData(R.shape[0], dict(zip(rows.tolist(), table)))


def support_from_magnitudes(a0: np.ndarray, tau_supp: float = DEFAULT_TAU_SUPP) -> tuple[int, ...]:
    """Support detection from the shift-0 row (entrywise squared magnitudes)."""
    mags = np.clip(a0.real, 0.0, None)
    peak = mags.max()
    if peak <= 0.0:
        return ()
    return tuple(int(j) for j in np.nonzero(mags > tau_supp * peak)[0])


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _stacked_rows(corr: CorrelationData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Known shifts ascending, their rows as one array, and lag[i, j] = (j - k_i) mod d."""
    shifts = np.array(corr.known_shifts, dtype=np.intp)
    rows = np.array([corr.a[k] for k in corr.known_shifts], dtype=np.complex128).reshape(shifts.size, corr.d)
    lag = (np.arange(corr.d) - shifts[:, None]) % corr.d
    return shifts, rows, lag


def _row_residual(stacked: tuple[np.ndarray, np.ndarray, np.ndarray], est: np.ndarray) -> float:
    """Largest |a[k][j] - est_j conj(est_{j-k})| over stacked rows; a row holding NaN is skipped."""
    _, rows, lag = stacked
    per_row = np.abs(rows - est * np.conj(est[lag])).max(axis=1)
    return float(np.fmax.reduce(per_row, initial=0.0))


def propagate_phases(
    corr: CorrelationData,
    partition: ConnectivityPartition,
    phase_tol: float = DEFAULT_PHASE_TOL,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> RecoveryOutcome:
    """Assemble an estimate by anchoring one phase per component and walking edges.

    Magnitudes come from the shift-0 row; each component's smallest index gets a
    real positive phase.  The walk then goes level by level in breadth-first
    visit order: frontier index, then shift ascending, forward before backward.
    Each support index not yet reached takes the first phase the frontier
    implies for it, and the next frontier is those indices in the order they
    were reached.  One array check then covers every known edge in both
    directions: an implied phase that differs from the final one by more than
    ``phase_tol`` radians flags the data as inconsistent.
    """
    if 0 not in corr.a:
        raise StftprError("shift-0 autocorrelation row is required")
    d = corr.d
    mags = np.sqrt(np.clip(corr.a[0].real, 0.0, None))
    stacked = _stacked_rows(corr)
    shifts, rows, lag = stacked
    moving = shifts != 0
    steps, back = shifts[moving], lag[moving]
    angles = np.angle(rows[moving])  # angles[i, j] = arg f_j - arg f_{j - k_i}
    row_of = np.arange(steps.size)

    in_support = np.isin(np.arange(d), partition.universe)
    unreached = int(in_support.sum())
    reached = np.zeros(d, dtype=bool)
    phases = np.zeros(d)
    for comp in partition.components:
        anchor = comp[0]
        unreached -= not reached[anchor]
        reached[anchor], phases[anchor] = True, 0.0
        frontier = np.array([anchor], dtype=np.intp)
        while frontier.size and unreached:
            here = phases[frontier][:, None]
            fwd = (frontier[:, None] + steps) % d  # a[k][fwd] = f_fwd * conj(f_j)
            bwd = (frontier[:, None] - steps) % d  # a[k][j] = f_j * conj(f_bwd)
            fwd_phase = _wrap(angles[row_of, fwd] + here)
            bwd_phase = _wrap(here - angles[row_of, frontier[:, None]])
            targets = np.stack([fwd, bwd], axis=2).ravel()
            implied = np.stack([fwd_phase, bwd_phase], axis=2).ravel()
            fresh = in_support[targets] & ~reached[targets]
            targets, implied = targets[fresh], implied[fresh]
            first = np.sort(np.unique(targets, return_index=True)[1])
            frontier = targets[first]
            reached[frontier], phases[frontier] = True, implied[first]
            unreached -= frontier.size

    # edge (k_i, j) joins j - k_i and j; a phase never changes once set, so
    # checking every edge from both ends against the final phases gives the
    # maximum the walk would have seen
    both = reached & reached[back]
    edge, behind = angles[both], phases[back[both]]
    ahead = np.broadcast_to(phases, back.shape)[both]
    forward = np.abs(_wrap(_wrap(edge + behind) - ahead))
    backward = np.abs(_wrap(_wrap(ahead - edge) - behind))
    worst_cycle = float(np.fmax.reduce(np.concatenate([forward, backward]), initial=0.0))

    est = np.where(reached, mags * np.exp(1j * phases), 0.0)
    estimate = CyclicSignal(d, est)
    residual = _row_residual(stacked, est)

    inconsistent = worst_cycle > phase_tol
    status = (
        STATUS_INCONSISTENT
        if inconsistent
        else (STATUS_UNIQUE if partition.n_components <= 1 else STATUS_PER_COMPONENT)
    )
    notes = {
        "phase_tol": phase_tol,
        "tau_supp": tau_supp,
        "worst_cycle_mismatch": worst_cycle,
    }
    return RecoveryOutcome(status, estimate, partition, partition.n_components, residual, notes)


def _correlation_partition_all_shifts(
    corr: CorrelationData, tau_supp: float, relation: str
) -> ConnectivityPartition:
    """Partition of the detected support where any known nonzero shift is an edge.

    The routes that use it know every nonzero shift, or every one but d/2, and
    both cases have a closed form.  With every shift any two support points are
    joined directly.  Without d/2 two points still meet through a third, so
    only an antipodal pair {j, j + d/2} splits in two.
    """
    d = corr.d
    supp = support_from_magnitudes(corr.a[0], tau_supp)
    missing = set(range(1, d)).difference(corr.known_shifts)
    half = d // 2 if d % 2 == 0 else None
    if missing - {half}:
        raise StftprError(f"no closed-form partition when shifts {sorted(missing)} are unknown")
    if missing and len(supp) == 2 and supp[1] - supp[0] == half:
        return ConnectivityPartition(relation, tuple((j,) for j in supp), supp)
    return ConnectivityPartition(relation, (supp,) if supp else (), supp)


def recover_full(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Recovery with a window whose mask has no holes: every shift row divides."""
    mask = omega_mask(g, tau_rel)
    if not mask.all_true:
        raise WindowClassError("window mask has holes; full-mask route does not apply")
    corr = recover_autocorrelations(X, g, mask, tau_rel)
    partition = _correlation_partition_all_shifts(corr, tau_supp, "all-shifts")
    outcome = propagate_phases(corr, partition, phase_tol, tau_supp)
    outcome.notes["route"] = "full"
    return outcome


def recover_generic_short(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    L: int | None = None,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Recovery with a short window whose mask equals the full width-L band.

    The verdict (connected or not, and the component count) is computable from
    the measurement alone; disconnected supports return one estimate per
    component, each with its own free phase.
    """
    anchored, shift = canonical_anchor(g, tau_rel)
    if L is None:
        L = max(anchored.support(tau_rel)) if anchored.support(tau_rel) else 0
    mask = omega_mask(g, tau_rel)
    if not mask.same_mask(omega_L_d(g.d, L)):
        raise NonGenericWindow(f"mask does not equal the width-{L} band")
    corr = recover_autocorrelations(X, g, mask, tau_rel)
    supp = support_from_magnitudes(corr.a[0], tau_supp)
    partition = components_mod_d(supp, g.d, L)
    outcome = propagate_phases(corr, partition, phase_tol, tau_supp)
    outcome.notes.update({"route": "generic", "L": L, "window_shift": shift})
    return outcome


def hole_classifier(
    b: MeasurementCoefficients, L: int | None = None, tau_rel: float = DEFAULT_TAU_REL
) -> list[int]:
    """Anchors j* with a nonzero at j*, exactly L zeros after it, and mass within L before.

    Detected purely from the band rows: all rows k = 1..L vanish on the index
    range j*+1-k .. j*+k, while some row k is nonzero at j*-k.
    """
    if L is None:
        L = b.L
    d = b.d
    rows = [np.abs(b.b[k]) for k in range(L + 1)]
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


def _banded_equation_residual(a: np.ndarray, b_row: np.ndarray, coef: np.ndarray, k: int) -> float:
    predicted = np.zeros_like(b_row)
    for i, cf in enumerate(coef):
        predicted = predicted + cf * np.roll(a, -(k + i))
    return float(np.abs(predicted - b_row).max())


def _solve_banded_row(
    b_row: np.ndarray, coef: np.ndarray, k: int, zero_start: int, zero_len: int, d: int
) -> tuple[np.ndarray, float, float]:
    """Unroll b[j] = sum_i coef[i] a[j+k+i] from a known block of zeros of a.

    Runs a forward pass (divide by the trailing coefficient) and an independent
    backward pass (divide by the leading coefficient).  One direction is always
    numerically stable, the other may amplify roundoff, so the pass satisfying
    all d equations better is kept; its residual doubles as the inconsistency
    detector, and the passes' disagreement is reported for diagnostics.
    """
    W = len(coef)
    if zero_len < W - 1:
        raise AnchorInvalid(f"zero block of length {zero_len} cannot seed a width-{W} recurrence")
    steps = d - zero_len

    fwd = np.zeros(d, dtype=np.complex128)
    for step in range(steps):
        p = (zero_start + zero_len + step) % d
        j = (p - k - (W - 1)) % d
        acc = b_row[j]
        for i in range(W - 1):
            acc -= coef[i] * fwd[(j + k + i) % d]
        fwd[p] = acc / coef[W - 1]

    bwd = np.zeros(d, dtype=np.complex128)
    for step in range(steps):
        p = (zero_start - 1 - step) % d
        j = (p - k) % d
        acc = b_row[j]
        for i in range(1, W):
            acc -= coef[i] * bwd[(j + k + i) % d]
        bwd[p] = acc / coef[0]

    gap = float(np.abs(fwd - bwd).max())
    res_f = _banded_equation_residual(fwd, b_row, coef, k)
    res_b = _banded_equation_residual(bwd, b_row, coef, k)
    best, res = (bwd, res_b) if res_b < res_f else (fwd, res_f)
    if res > 1e-10 * max(1.0, float(np.abs(b_row).max())):
        # recurrence roots straddling the unit circle make both unroll
        # directions explosive; fall back to the overdetermined banded system
        unknowns = [p for p in range(d) if (p - zero_start) % d >= zero_len]
        col = {p: i for i, p in enumerate(unknowns)}
        M = np.zeros((d, len(unknowns)), dtype=np.complex128)
        for j in range(d):
            for i, cf in enumerate(coef):
                p = (j + k + i) % d
                if p in col:
                    M[j, col[p]] += cf
        sol, *_ = np.linalg.lstsq(M, b_row, rcond=None)
        alt = np.zeros(d, dtype=np.complex128)
        alt[unknowns] = sol
        res_alt = _banded_equation_residual(alt, b_row, coef, k)
        if res_alt < res:
            best, res = alt, res_alt
    return best, gap, res


def _anchored_problem(
    X: SpectrogramMeasurement, g: CyclicSignal, tau_rel: float
) -> tuple[SpectrogramMeasurement, CyclicSignal, int]:
    anchored, shift = canonical_anchor(g, tau_rel)
    if shift == 0:
        return X, g, 0
    rolled = np.roll(X.sq_mag, shift, axis=0)
    return SpectrogramMeasurement(X.d, rolled), anchored, shift


def _mirror_rows(a: dict[int, np.ndarray], d: int) -> dict[int, np.ndarray]:
    out = dict(a)
    for k in list(a):
        if k == 0:
            continue
        mirror = (d - k) % d
        if mirror not in out:
            out[mirror] = np.conj(np.roll(a[k], -k))
    return out


def recover_with_hole(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    L: int,
    anchor: int,
    hole_len: int,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Recovery with any length-(L+1) window when the signal has a known hole.

    ``hole_len = L + 1``: the signal vanishes on anchor..anchor+L (validated via
    the shift-0 band row).  ``hole_len = L``: the signal is nonzero at the anchor
    and vanishes on the next L indices, with mass within L before the anchor
    (validated by the hole classifier).  Each shift row is then unrolled from
    the implied zero block of its autocorrelation.
    """
    if hole_len not in (L, L + 1):
        raise AnchorInvalid(f"hole length must be L or L+1, got {hole_len}")
    X0, g0, shift = _anchored_problem(X, g, tau_rel)
    d = X0.d
    anchor = int(anchor) % d
    wc = window_coeffs(g0, L, tau_rel)
    mc = measurement_coeffs(X0, L)

    b0 = np.abs(mc.b[0])
    if hole_len == L + 1:
        if b0.max() > 0.0 and b0[anchor] > tau_rel * b0.max():
            raise AnchorInvalid(f"shift-0 band row is nonzero at {anchor}: no length-{L + 1} hole")
    else:
        if anchor not in hole_classifier(mc, L, tau_rel):
            raise AnchorInvalid(f"index {anchor} fails the exact-L hole conditions")

    a: dict[int, np.ndarray] = {}
    worst_gap = 0.0
    eq_residual = 0.0
    for k in range(L + 1):
        if hole_len == L + 1:
            zero_start, zero_len = anchor, L + 1 + k
        else:
            zero_start, zero_len = (anchor + 1) % d, (L + k if k >= 1 else L)
        coef = np.conj(wc.c[k])
        row, gap, res = _solve_banded_row(mc.b[k], coef, k, zero_start, zero_len, d)
        worst_gap = max(worst_gap, gap)
        eq_residual = max(eq_residual, res)
        a[k] = row

    corr = CorrelationData(d, _mirror_rows(a, d))
    supp = support_from_magnitudes(corr.a[0], tau_supp)
    partition = components_mod_d(supp, d, L)
    outcome = propagate_phases(corr, partition, phase_tol, tau_supp)

    scale = float(np.clip(corr.a[0].real, 0.0, None).max())
    residual = max(outcome.residual, eq_residual)
    status = outcome.status
    if status != STATUS_INCONSISTENT and residual > CONSISTENCY_REL_TOL * max(scale, 1e-300):
        status = STATUS_INCONSISTENT
    notes = dict(outcome.notes)
    notes.update(
        {
            "route": f"hole-{hole_len}",
            "L": L,
            "anchor": anchor,
            "window_shift": shift,
            "pass_gap": worst_gap,
            "equation_residual": eq_residual,
        }
    )
    return RecoveryOutcome(status, outcome.estimate, partition, partition.n_components, residual, notes)


def recover_missing_center(
    corr: CorrelationData,
    center_row: np.ndarray,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Recovery when every shift row except d/2 is known and the center row is
    known except at frequency d/2.

    Supports of size <= 1 are immediate; antipodal pairs {j, j+d/2} combine the
    first two center-row frequencies to get the cross product; everything else
    propagates through an intermediate support point, never needing the center
    shift at all.  The verdict is always unique up to one global phase.
    """
    d = corr.d
    if d % 2 != 0 or d < 4:
        raise PreconditionViolated(f"need even d >= 4, got {d}")
    half = d // 2
    if half in corr.known_shifts:
        raise StftprError("center route expects the d/2 row to be missing")
    center_row = np.asarray(center_row, dtype=np.complex128)

    mags = np.sqrt(np.clip(corr.a[0].real, 0.0, None))
    supp = support_from_magnitudes(corr.a[0], tau_supp)
    est = np.zeros(d, dtype=np.complex128)
    notes: dict = {"route": "center", "tau_supp": tau_supp}

    if len(supp) <= 1:
        if supp:
            est[supp[0]] = mags[supp[0]]
        partition = ConnectivityPartition("all-shifts-but-center", tuple((j,) for j in supp), supp)
        estimate = CyclicSignal(d, est)
        residual = max(_row_residual(_stacked_rows(corr), est), _center_row_residual(est, center_row, half))
        return RecoveryOutcome(STATUS_UNIQUE, estimate, partition, len(supp), residual, notes)

    antipodal = len(supp) == 2 and (supp[1] - supp[0]) % d == half
    if antipodal:
        j = supp[0]
        cross = 0.5 * (center_row[0] + np.exp(2j * np.pi * j / d) * center_row[1])
        est[j] = mags[j]
        est[(j + half) % d] = mags[(j + half) % d] * np.exp(-1j * np.angle(cross))
        partition = ConnectivityPartition("all-shifts-but-center", (tuple(supp),), supp)
        estimate = CyclicSignal(d, est)
        residual = max(_row_residual(_stacked_rows(corr), est), _center_row_residual(est, center_row, half))
        scale = float(np.clip(corr.a[0].real, 0.0, None).max())
        status = STATUS_UNIQUE if residual <= CONSISTENCY_REL_TOL * max(scale, 1e-300) else STATUS_INCONSISTENT
        notes["case"] = "antipodal-pair"
        return RecoveryOutcome(status, estimate, partition, 1, residual, notes)

    partition = _correlation_partition_all_shifts(corr, tau_supp, "all-shifts-but-center")
    if partition.n_components != 1:
        raise StftprError("internal: non-antipodal support must be connected without the center shift")
    outcome = propagate_phases(corr, partition, phase_tol, tau_supp)
    residual = max(outcome.residual, _center_row_residual(outcome.estimate.entries, center_row, half))
    scale = float(np.clip(corr.a[0].real, 0.0, None).max())
    status = outcome.status
    if status == STATUS_PER_COMPONENT:
        status = STATUS_UNIQUE
    if status != STATUS_INCONSISTENT and residual > CONSISTENCY_REL_TOL * max(scale, 1e-300):
        status = STATUS_INCONSISTENT
    notes.update(outcome.notes)
    notes["case"] = "propagation"
    return RecoveryOutcome(status, outcome.estimate, partition, 1, residual, notes)


def _center_row_residual(est: np.ndarray, center_row: np.ndarray, half: int) -> float:
    d = est.shape[0]
    predicted = np.fft.fft(est * np.conj(np.roll(est, half)))
    keep = np.arange(d) != half
    return float(np.abs(predicted[keep] - center_row[keep]).max())


def recover_missing_dc_pair(
    corr: CorrelationData,
    dc_row: np.ndarray,
    lstar_value: int,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Recovery when all nonzero shift rows are known but the dc row misses the
    conjugate frequency pair +-l*.

    Magnitudes are rebuilt from off-diagonal products (triangle identity through
    two other support members); supports of size <= 2 fall back to locating a
    single spike from the dc phase ramp, or to the quadratic determined by total
    energy and the known cross product.  Output is verified against every known
    row and the trusted part of the dc row.
    """
    d = corr.d
    if d < 5:
        raise PreconditionViolated(f"need d >= 5, got {d}")
    ls = int(lstar_value) % d
    if math.gcd(ls, d) != 1 and not (d == 6 and ls == 2):
        raise PreconditionViolated(f"l*={ls} shares a factor with d={d} (and is not the d=6 case)")
    missing = {ls, (d - ls) % d}
    if 0 in corr.known_shifts:
        raise StftprError("dc-pair route expects the shift-0 row to be absent")
    dc_row = np.asarray(dc_row, dtype=np.complex128)
    trusted = np.array([l not in missing for l in range(d)])

    energy = float(dc_row[0].real)
    offdiag = np.zeros(d, dtype=np.float64)
    for k in corr.known_shifts:
        offdiag = np.maximum(offdiag, np.abs(corr.a[k]))
    smax = float(offdiag.max())
    notes: dict = {"route": "dcpair", "lstar": ls, "tau_supp": tau_supp}

    tiny = max(energy, smax, 1.0) * 1e-14
    if smax <= max(tau_supp * energy, tiny):
        # at most one nonzero entry
        est = np.zeros(d, dtype=np.complex128)
        supp: tuple[int, ...] = ()
        if energy > tiny:
            ratio = dc_row[1] / energy
            j = int(round(-np.angle(ratio) * d / (2.0 * math.pi))) % d
            est[j] = math.sqrt(energy)
            supp = (j,)
        partition = ConnectivityPartition("all-nonzero-shifts", tuple((j,) for j in supp), supp)
        residual = _dc_residual(est, dc_row, trusted)
        residual = max(residual, _row_residual(_stacked_rows(corr), est))
        status = STATUS_UNIQUE if residual <= CONSISTENCY_REL_TOL * max(energy, 1e-300) else STATUS_INCONSISTENT
        notes["case"] = "spike"
        return RecoveryOutcome(status, CyclicSignal(d, est), partition, len(supp), residual, notes)

    supp = tuple(int(j) for j in np.nonzero(offdiag > tau_supp * smax)[0])

    if len(supp) == 2:
        p, q = supp
        v = corr.a[(q - p) % d][q]  # f_q * conj(f_p)
        disc = max(energy * energy - 4.0 * abs(v) ** 2, 0.0)
        root = math.sqrt(disc)
        candidates = []
        for x in ((energy + root) / 2.0, (energy - root) / 2.0):
            y = energy - x
            if x <= 0.0 or y <= 0.0:
                continue
            est = np.zeros(d, dtype=np.complex128)
            est[p] = math.sqrt(x)
            est[q] = v / est[p]
            # rescale q to the quadratic magnitude, keeping the relative phase exact
            if abs(est[q]) > 0:
                est[q] *= math.sqrt(y) / abs(est[q])
            candidates.append(est)
        if not candidates:
            raise PreconditionViolated("energy split infeasible for a two-point support")
        stacked = _stacked_rows(corr)
        scored = [(max(_dc_residual(e, dc_row, trusted), _row_residual(stacked, e)), i) for i, e in enumerate(candidates)]
        best_res, best_i = min(scored)
        est = candidates[best_i]
        partition = ConnectivityPartition("all-nonzero-shifts", (tuple(supp),), supp)
        status = STATUS_UNIQUE if best_res <= CONSISTENCY_REL_TOL * max(energy, 1e-300) else STATUS_INCONSISTENT
        notes["case"] = "two-point"
        return RecoveryOutcome(status, CyclicSignal(d, est), partition, 1, best_res, notes)

    # three or more support members: triangle identity for each squared magnitude
    a0 = np.zeros(d, dtype=np.float64)
    for j in supp:
        others = [m for m in supp if m != j][:2]
        aj, bj = others[0], others[1]
        num = abs(corr.a[(j - aj) % d][j]) * abs(corr.a[(j - bj) % d][j])
        den = abs(corr.a[(bj - aj) % d][bj])
        a0[j] = num / den
    rows = dict(corr.a)
    rows[0] = a0.astype(np.complex128)
    full = CorrelationData(d, rows)
    partition = _correlation_partition_all_shifts(full, tau_supp, "all-nonzero-shifts")
    outcome = propagate_phases(full, partition, phase_tol, tau_supp)
    residual = max(outcome.residual, _dc_residual(outcome.estimate.entries, dc_row, trusted))
    status = outcome.status
    if status == STATUS_PER_COMPONENT:
        status = STATUS_UNIQUE
    if status != STATUS_INCONSISTENT and residual > CONSISTENCY_REL_TOL * max(energy, 1e-300):
        status = STATUS_INCONSISTENT
    notes.update(outcome.notes)
    notes["case"] = "triangle"
    return RecoveryOutcome(status, outcome.estimate, partition, 1, residual, notes)


def _dc_residual(est: np.ndarray, dc_row: np.ndarray, trusted: np.ndarray) -> float:
    predicted = np.fft.fft(np.abs(est) ** 2)
    return float(np.abs(predicted[trusted] - dc_row[trusted]).max())


def recover_center_windowed(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Driver for windows whose mask misses exactly the center entry (d/2, d/2)."""
    d = X.d
    mask = omega_mask(g, tau_rel)
    if d % 2 != 0 or set(mask.false_entries()) != {(d // 2, d // 2)}:
        raise WindowClassError("window mask is not punctured exactly at the center")
    half = d // 2
    R, amb = relation_transform(X).values, ambiguity(g).values
    corr = _divide_full_rows(R, amb, mask)
    center_row = np.zeros(d, dtype=np.complex128)
    keep = np.arange(d) != half
    center_row[keep] = R[half, keep] / np.conj(amb[half, keep])
    return recover_missing_center(corr, center_row, tau_supp, phase_tol)


def recover_dc_windowed(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Driver for windows whose mask misses exactly the dc-row pair (0, +-l*)."""
    d = X.d
    mask = omega_mask(g, tau_rel)
    false_set = set(mask.false_entries())
    dc_pair = _dc_pair_from_false_set(false_set, d)
    if dc_pair is None:
        raise WindowClassError("window mask is not punctured on a dc-row conjugate pair")
    R, amb = relation_transform(X).values, ambiguity(g).values
    corr = _divide_full_rows(R, amb, mask)
    dc_row = np.zeros(d, dtype=np.complex128)
    keep = np.array([(0, l) not in false_set for l in range(d)])
    dc_row[keep] = R[0, keep] / np.conj(amb[0, keep])
    return recover_missing_dc_pair(corr, dc_row, dc_pair, tau_supp, phase_tol)


def _dc_pair_from_false_set(false_set: set[tuple[int, int]], d: int) -> int | None:
    if len(false_set) != 2 or any(k != 0 for k, _ in false_set):
        return None
    ls = sorted(l for _, l in false_set)
    if ls[1] != (d - ls[0]) % d or ls[0] == 0:
        return None
    return ls[0]


def _zero_measurement(X: SpectrogramMeasurement, g: CyclicSignal) -> bool:
    return X.total_mass() <= 1e-20 * max(1.0, g.norm() ** 4)


def _zero_outcome(d: int, route: str) -> RecoveryOutcome:
    partition = ConnectivityPartition("empty", (), ())
    return RecoveryOutcome(STATUS_UNIQUE, CyclicSignal.zeros(d), partition, 0, 0.0, {"route": route, "case": "zero-signal"})


def _hole_anchors(mc: MeasurementCoefficients, L: int, tau_rel: float) -> tuple[list[int], list[int]]:
    """Anchors for length-(L+1) holes (shift-0 band zeros) and exact-L holes."""
    b0 = np.abs(mc.b[0])
    peak = float(b0.max())
    long_holes = [int(j) for j in range(mc.d) if peak > 0.0 and b0[j] <= tau_rel * peak]
    exact = hole_classifier(mc, L, tau_rel)
    return long_holes, exact


def recover(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    mode: str = "auto",
    L: int | None = None,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    """Route a measurement to the solver matching the window's certified class.

    ``auto`` tries, in order: hole-free mask, generic short band, signal holes of
    length L+1 then L (short non-generic windows), punctured center, punctured
    dc pair.  When nothing applies the outcome is Undecidable with no estimate.
    """
    if X.d != g.d:
        raise DimensionMismatch(f"measurement d={X.d}, window d={g.d}")
    kwargs = {"tau_rel": tau_rel, "tau_supp": tau_supp, "phase_tol": phase_tol}

    if mode == "full":
        return recover_full(X, g, **kwargs)
    if mode == "generic":
        return recover_generic_short(X, g, L, **kwargs)
    if mode == "center":
        return recover_center_windowed(X, g, **kwargs)
    if mode == "dcpair":
        return recover_dc_windowed(X, g, **kwargs)
    if mode == "hole":
        return _recover_hole_auto_anchor(X, g, L, **kwargs)
    if mode != "auto":
        raise StftprError(f"unknown recovery mode: {mode}")

    report = classify_window(g, tau_rel)
    if _zero_measurement(X, g):
        return _zero_outcome(X.d, "auto")
    if report.is_full:
        return recover_full(X, g, **kwargs)
    if report.is_generic_short:
        return recover_generic_short(X, g, report.short_L, **kwargs)
    if report.short_L is not None and len(report.support) == report.short_L + 1:
        try:
            return _recover_hole_auto_anchor(X, g, report.short_L, **kwargs)
        except AnchorInvalid:
            pass
    false_set = set(report.omega.false_entries())
    d = X.d
    if d % 2 == 0 and false_set == {(d // 2, d // 2)}:
        return recover_center_windowed(X, g, **kwargs)
    if _dc_pair_from_false_set(false_set, d) is not None:
        return recover_dc_windowed(X, g, **kwargs)
    partition = ConnectivityPartition("unknown", (), ())
    notes = {"route": "auto", "reason": "window class matches no implemented solver"}
    return RecoveryOutcome(STATUS_UNDECIDABLE, None, partition, 0, float("nan"), notes)


def _recover_hole_auto_anchor(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    L: int | None,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
    phase_tol: float = DEFAULT_PHASE_TOL,
) -> RecoveryOutcome:
    anchored, _ = canonical_anchor(g, tau_rel)
    if L is None:
        L = max(anchored.support(tau_rel))
    X0, g0, _ = _anchored_problem(X, g, tau_rel)
    if _zero_measurement(X, g):
        return _zero_outcome(X.d, "hole")
    mc = measurement_coeffs(X0, L)
    long_holes, exact = _hole_anchors(mc, L, tau_rel)
    if long_holes:
        return recover_with_hole(X, g, L, long_holes[0], L + 1, tau_rel, tau_supp, phase_tol)
    if exact:
        return recover_with_hole(X, g, L, exact[0], L, tau_rel, tau_supp, phase_tol)
    raise AnchorInvalid("no hole of length L or L+1 detected in the measurement")


def _comb_witnesses(
    X0: SpectrogramMeasurement, g0: CyclicSignal, L: int, tau_rel: float
) -> tuple[CyclicSignal, ...]:
    """Equal-amplitude comb translates reproducing the measurement, if any."""
    d = X0.d
    scale = float(X0.sq_mag.max())
    if scale <= 0.0:
        return ()
    energy = X0.total_mass() / (d * g0.norm() ** 2)
    witnesses = []
    for r in range(2, min(d, L + 1) + 1):
        if d % r != 0 or (L + 1) % r != 0:
            continue
        amp = math.sqrt(energy * r / d)
        matched = []
        for s in range(r):
            v = np.zeros(d, dtype=np.complex128)
            v[s::r] = amp
            cand = CyclicSignal(d, v)
            gap = float(np.abs(measure(cand, g0).sq_mag - X0.sq_mag).max())
            if gap <= 1e-9 * scale:
                matched.append(cand)
        if len(matched) >= 2:
            witnesses = matched
            break
    return tuple(witnesses)


def decide_retrievability(
    X: SpectrogramMeasurement,
    report: WindowReport,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> DecisionReport:
    """Decide, from the measurement alone, whether the underlying signal is
    determined up to one global phase by this window.

    Implemented window classes reduce the question to support connectivity;
    short non-generic windows additionally need a signal hole, and outside every
    implemented uniqueness condition the honest answer is Undecidable.
    """
    g = report.window
    d = X.d
    notes: dict = {"tau_rel": tau_rel, "tau_supp": tau_supp}

    if _zero_measurement(X, g):
        notes["case"] = "zero-signal"
        return DecisionReport(VERDICT_RETRIEVABLE, ConnectivityPartition("empty", (), ()), notes)

    if report.is_full:
        corr = recover_autocorrelations(X, g, report.omega, tau_rel)
        partition = _correlation_partition_all_shifts(corr, tau_supp, "all-shifts")
        notes["route"] = "full"
        return DecisionReport(VERDICT_RETRIEVABLE, partition, notes)

    if report.is_generic_short:
        L = report.short_L
        amb = ambiguity(g).values
        R = relation_transform(X).values
        a0 = np.fft.ifft(R[0] / np.conj(amb[0]))
        supp = support_from_magnitudes(a0, tau_supp)
        partition = components_mod_d(supp, d, L)
        notes.update({"route": "generic", "L": L})
        verdict = VERDICT_RETRIEVABLE if partition.is_connected else VERDICT_NOT_RETRIEVABLE
        return DecisionReport(verdict, partition, notes)

    if report.short_L is not None and len(report.support) == report.short_L + 1:
        L = report.short_L
        X0, g0, _ = _anchored_problem(X, g, tau_rel)
        mc = measurement_coeffs(X0, L)
        wc = window_coeffs(g0, L, tau_rel)
        long_holes, exact = _hole_anchors(mc, L, tau_rel)
        anchor_plan = None
        if long_holes:
            anchor_plan = (long_holes[0], L + 1, long_holes[0], L + 1)
        elif exact:
            anchor_plan = (exact[0], L, (exact[0] + 1) % d, L)
        if anchor_plan is not None:
            anchor, hole_len, zero_start, zero_len = anchor_plan
            a0_row, _, _ = _solve_banded_row(mc.b[0], np.conj(wc.c[0]), 0, zero_start, zero_len, d)
            supp = support_from_magnitudes(a0_row, tau_supp)
            partition = components_mod_d(supp, d, L)
            notes.update({"route": f"hole-{hole_len}", "L": L, "anchor": anchor})
            verdict = VERDICT_RETRIEVABLE if partition.is_connected else VERDICT_NOT_RETRIEVABLE
            return DecisionReport(verdict, partition, notes)
        witnesses = _comb_witnesses(X0, g0, L, tau_rel)
        if witnesses:
            supp = witnesses[0].support()
            partition = components_mod_d(supp, d, L)
            notes.update({"route": "comb-family", "L": L, "translates": len(witnesses)})
            return DecisionReport(VERDICT_NOT_RETRIEVABLE, partition, notes, witnesses)
        # no hole condition applies: fall through to the punctured-window routes
        notes.update({"L": L, "hole_routes": "no signal hole detected"})
        if d % (L + 1) == 0:
            notes["open_gap"] = "band width + 1 divides d; only hole-based uniqueness is implemented"

    false_set = set(report.omega.false_entries())
    if d % 2 == 0 and false_set == {(d // 2, d // 2)}:
        outcome = recover_center_windowed(X, g, tau_rel, tau_supp)
        notes["route"] = "center"
        return DecisionReport(VERDICT_RETRIEVABLE, outcome.components, notes)
    pair = _dc_pair_from_false_set(false_set, d)
    if pair is not None:
        if math.gcd(pair, d) != 1 and not (d == 6 and pair == 2):
            notes.update({"route": "dcpair", "reason": f"l*={pair} shares a factor with d"})
            return DecisionReport(VERDICT_UNDECIDABLE, None, notes)
        outcome = recover_dc_windowed(X, g, tau_rel, tau_supp)
        notes["route"] = "dcpair"
        return DecisionReport(VERDICT_RETRIEVABLE, outcome.components, notes)

    notes.update({"route": "none", "reason": "window class matches no implemented uniqueness condition"})
    return DecisionReport(VERDICT_UNDECIDABLE, None, notes)
