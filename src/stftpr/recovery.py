"""Reconstruction and decision procedures on Z_d.

All solvers share one pipeline: turn the squared-magnitude measurement into
shift-autocorrelation data ``a[k][j] = f_j * conj(f_{j-k})`` for whichever
shifts the window's ambiguity support makes available, partition the recovered
support under the matching gap relation, then fix one phase per component and
propagate.  Every route gets its rows by dividing by the window ambiguity
where the mask is true.  A row whose ambiguity vanishes at a few frequencies
is completed from a known zero set of the signal (``_complete_row``).  The
known route reads the support S off row 0 and completes row k off
S ∩ (S+k), where it must vanish.  Row 0 itself is divided when whole, and
otherwise completed off a zero set of the signal: a hole read off the
measurement for short windows filled on their band (``hole_zero_set``), or
everything off the signal's span in line mode.  A dc row punctured at a
conjugate pair has its own route.

Every route returns through one verdict, ``_verdict``: the data is
Inconsistent when the estimate misses a known autocorrelation row, or the
route's own equation (completed and unsolved rows, dc row), by more than the
consistency tolerance at the data's scale.  Otherwise the support partition
decides between one global phase and one phase per component.

``ROUTES`` lists the routes in the order the auto router tries them;
``recover``, ``decide_retrievability`` and the CLI all read that one table.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
from .spectral import CyclicSignal, SpectrogramMeasurement, measure, relation_transform, stft_rows
from .windows import (
    DEFAULT_TAU_REL,
    OmegaMask,
    WindowReport,
    classify_window,
)

DEFAULT_TAU_SUPP = 1e-10
CONSISTENCY_REL_TOL = 1e-6

STATUS_UNIQUE = "UniqueUpToGlobalPhase"
STATUS_PER_COMPONENT = "UniquePerComponent"
STATUS_INCONSISTENT = "Inconsistent"
STATUS_UNDECIDABLE = "Undecidable"

VERDICT_RETRIEVABLE = "Retrievable"
VERDICT_NOT_RETRIEVABLE = "NotRetrievable"
VERDICT_UNDECIDABLE = "Undecidable"


def is_inconsistent(residual: float, scale: float) -> bool:
    """Whether a residual exceeds the consistency tolerance at this data scale; NaN does."""
    return not residual <= CONSISTENCY_REL_TOL * max(scale, 1e-300)


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


def measurement_coeffs(X: SpectrogramMeasurement, L: int) -> MeasurementCoefficients:
    """Band rows b[k] = inverse transform of the k-th relation-product row; only rows 0..L are transformed."""
    if not (0 <= L < X.d):
        raise StftprError(f"invalid band width L={L} for d={X.d}")
    R = relation_transform(X, range(L + 1))
    b = {k: np.fft.ifft(R[k]) for k in range(L + 1)}
    return MeasurementCoefficients(X.d, L, b)


def _relation_rows(X: SpectrogramMeasurement, g: CyclicSignal, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relation rows R[i] = fft(a_k) * conj(V_gg[k]) for k = shifts[i], rows of D_g, from one
    transform, and the window's ambiguity rows V_gg[k], built from its own rows only."""
    amb_rows, amb = stft_rows(g, g)  # every row of D_g is one of these
    return relation_transform(X, shifts), amb[np.searchsorted(amb_rows, shifts)]


def _divide_full_rows(
    X: SpectrogramMeasurement, g: CyclicSignal, mask: OmegaMask, extra=()
) -> tuple[CorrelationData, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Rows ifft(R[k] / conj(V_gg[k])) for every k whose mask row is all true, in one batch, and
    for each k in ``extra`` the undivided relation row R[k] with the ambiguity row V_gg[k].  Each
    row is transformed once."""
    full = mask.mask.all(axis=1)
    whole = np.flatnonzero(full)
    shifts = np.concatenate((whole, np.array([k for k in extra if not full[k]], dtype=np.intp)))
    R, V = _relation_rows(X, g, shifts)
    at = {k: i for i, k in enumerate(shifts.tolist())}
    raw = {k: (R[at[k]].copy(), V[at[k]]) for k in extra}
    divisors = V[: whole.size]
    vanished = np.abs(divisors).min(axis=1) <= 0.0  # guard: mask said "true" but the value is zero
    if vanished.any():
        raise StftprError(f"internal: ambiguity row {whole[vanished][0]} vanishes under a true mask")
    # R is a fresh array: divide in place rather than allocate another d x d block
    table = np.fft.ifft(np.divide(R[: whole.size], np.conj(divisors), out=R[: whole.size]), axis=1)
    return CorrelationData(X.d, dict(zip(whole.tolist(), table))), raw


def support_from_magnitudes(a0: np.ndarray, tau_supp: float = DEFAULT_TAU_SUPP) -> tuple[int, ...]:
    """Support detection from the shift-0 row (entrywise squared magnitudes)."""
    mags = np.clip(a0.real, 0.0, None)
    peak = mags.max()
    if peak <= 0.0:
        return ()
    return tuple(np.flatnonzero(mags > tau_supp * peak).tolist())


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _stacked_rows(corr: CorrelationData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Known shifts ascending, their rows as one array, and lag[i, j] = (j - k_i) mod d."""
    shifts = np.array(corr.known_shifts, dtype=np.intp)
    rows = np.array([corr.a[k] for k in corr.known_shifts], dtype=np.complex128).reshape(shifts.size, corr.d)
    lag = (np.arange(corr.d) - shifts[:, None]) % corr.d
    return shifts, rows, lag


def _row_residual(stacked: tuple[np.ndarray, np.ndarray, np.ndarray], est: np.ndarray) -> float:
    """Largest |a[k][j] - est_j conj(est_{j-k})| over stacked rows; NaN anywhere makes it NaN."""
    _, rows, lag = stacked
    return float(np.abs(rows - est * np.conj(est[lag])).max(initial=0.0))


def _peak(row0: np.ndarray) -> float:
    """Largest squared magnitude on the shift-0 row: the data scale of every route but the dc pair."""
    return float(np.clip(row0.real, 0.0, None).max())


def _one_component(relation: str, supp: tuple[int, ...]) -> ConnectivityPartition:
    """The whole support as one component, or none when it is empty: the dc-pair partitions."""
    return ConnectivityPartition(relation, (supp,) if supp else (), supp)


def _verdict(
    estimate: CyclicSignal,
    partition: ConnectivityPartition,
    notes: dict,
    scale: float,
    row_residual: float,
    own_residual: float = 0.0,
) -> RecoveryOutcome:
    """The status every route returns: Inconsistent, else unique per the partition.

    The residual is the larger of the row residual and the route's own equation
    (partial rows, hole band rows, line rows or dc row), NaN when either is.  The
    data is Inconsistent when that residual exceeds the consistency tolerance
    at ``scale``; otherwise one component means one global phase.
    """
    residual = float(np.max([row_residual, own_residual]))
    if is_inconsistent(residual, scale):
        status = STATUS_INCONSISTENT
    else:
        status = STATUS_UNIQUE if partition.n_components <= 1 else STATUS_PER_COMPONENT
    return RecoveryOutcome(status, estimate, partition, partition.n_components, residual, notes)


def propagate_phases(
    corr: CorrelationData,
    partition: ConnectivityPartition,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> RecoveryOutcome:
    """Assemble an estimate by anchoring one phase per component and walking edges.

    Magnitudes come from the shift-0 row; each component's smallest index gets a
    real positive phase.  The walk then goes level by level in breadth-first
    visit order: frontier index, then shift ascending, forward before backward.
    Each support index not yet reached takes the first phase the frontier
    implies for it, and the next frontier is those indices in the order they
    were reached.  Edges the walk did not follow are checked only through the
    row residual: the estimate must reproduce every known row, at the scale of
    the largest shift-0 entry, or the data is Inconsistent (``_verdict``).

    That visit order is the contract.  When the known nonzero shifts fold
    (k -> min(k, d-k)) to exactly {1..L} and rows 1..L are known, as on every
    band, full, center and dc-triangle walk, the walk only ever follows steps
    ±1..±L through rows 1..L: its tree is then built in closed form
    (``_band_tree``), and only the phases go level by level.  Other step sets
    walk the frontier.
    """
    if 0 not in corr.a:
        raise StftprError("shift-0 autocorrelation row is required")
    d = corr.d
    mags = np.sqrt(np.clip(corr.a[0].real, 0.0, None))
    stacked = _stacked_rows(corr)
    shifts, rows, _ = stacked
    L = int(np.minimum(shifts, d - shifts).max())  # shifts[0] is 0
    if np.array_equal(shifts[1 : L + 1], np.arange(1, L + 1)):
        phases, reached = _band_walk(rows, d, L, partition)
    else:
        phases, reached = _frontier_walk(shifts, rows, d, partition)
    est = np.where(reached, mags * np.exp(1j * phases), 0.0)
    notes = {"tau_supp": tau_supp}
    return _verdict(CyclicSignal(d, est), partition, notes, _peak(corr.a[0]), _row_residual(stacked, est))


def _frontier_walk(
    shifts: np.ndarray, rows: np.ndarray, d: int, partition: ConnectivityPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Phases and reached indices of the breadth-first walk, one frontier at a time, over any step set."""
    moving = shifts != 0
    steps = shifts[moving]
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
    return phases, reached


def _band_walk(
    rows: np.ndarray, d: int, L: int, partition: ConnectivityPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Phases and reached indices of the breadth-first walk under steps ±1..±L, where rows[k] is a_k for k <= L.

    Each component's tree is built in closed form over the support's positions
    relative to its anchor; then every component's level h is set at once, with
    the frontier walk's own float expressions: forward, wrap(arg a_k[child] +
    parent's phase); backward, wrap(parent's phase - arg a_k[parent]).  An
    anchor an earlier tree already reached (a partition finer than the band
    split) is set back to phase 0, as the frontier walk does.
    """
    universe = np.asarray(partition.universe, dtype=np.intp)
    reached = np.zeros(d, dtype=bool)
    phases = np.zeros(d)
    edges, again = [], []
    for comp in partition.components:
        anchor = comp[0]
        if reached[anchor]:
            again.append(anchor)
            continue
        at = np.searchsorted(universe, anchor)
        pos = np.concatenate((universe[at:] - anchor, universe[:at] + (d - anchor)))
        child, parent, sign, step, level = _band_tree(pos, d, L)
        child, parent = (pos[child] + anchor) % d, (pos[parent] + anchor) % d
        reached[anchor] = True
        reached[child] = True
        edges.append((child, parent, sign, step, level))
    if edges:
        child, parent, sign, step, level = map(np.concatenate, zip(*edges))
        # a[k][j] = f_j conj(f_{j-k}): a forward edge reads row k at the child, a backward one at the parent
        angle = sign * np.angle(rows[step, np.where(sign > 0, child, parent)])
        order = np.argsort(level, kind="stable")
        child, parent, angle = child[order], parent[order], angle[order]
        start = 0
        for end in np.cumsum(np.bincount(level)).tolist()[1:]:
            phases[child[start:end]] = _wrap(phases[parent[start:end]] + angle[start:end])
            start = end
    phases[again] = 0.0
    return phases, reached


def _band_tree(pos: np.ndarray, d: int, L: int) -> tuple[np.ndarray, ...]:
    """The breadth-first tree under steps ±1..±L mod d over sorted positions ``pos``, rooted at pos[0] = 0.

    Returns, for every position the walk reaches other than the root: its
    index, its parent's index, +1 for a forward edge (position = parent +
    step) or -1 for a backward one (position = parent - step), the step, and
    the level.  The forward parent of p is the smallest position >= p - L, valid
    up to the first cyclic gap wider than L; the backward parent is its mirror,
    the largest position <= p + L with the root counted at d, valid past the
    last such gap (both are valid everywhere on a gapless circle).  Pointer
    doubling gives each side's hop counts and first hops, and a position's
    level is the smaller count.  Counts tie only at the antipode of a gapless
    circle.  The walk visits neighbours +1, -1, +2, -2, ..., so its queue is
    lexicographic in root paths, and a tie goes forward iff the forward first
    hop's step is at most the backward one's.
    """
    n = pos.size
    near = pos <= L
    if (near | (pos >= d - L)).all():  # every position one step from the root, forward where it can be
        sign = np.where(near[1:], 1, -1)
        return np.arange(1, n), np.zeros(n - 1, dtype=np.intp), sign, sign * pos[1:] % d, np.ones(n - 1, dtype=np.intp)
    idx = np.arange(2 * n)
    lifted = np.append(pos, d)  # the root again, one turn on
    wide = np.flatnonzero(np.diff(lifted) > L)  # the gap after index i is wider than L
    fwd_par = np.searchsorted(pos, pos - L)
    bwd_par = np.searchsorted(lifted, pos + L, side="right") - 1
    bwd_par[0] = n
    # forward sides are 0..n-1, backward sides n..2n-1; a node the root steps to points at itself
    up = np.concatenate((fwd_par, bwd_par + n))
    up = np.where((up == 0) | (up == 2 * n), idx, up)
    hops = (up != idx).astype(np.intp)  # original edges from each node to the one it points at
    while (more := hops[up]).any():
        hops += more
        up = up[up]
    fwd_level, bwd_level = hops[:n] + 1, hops[n:] + 1
    if wide.size:  # forward stops at the first wide gap, backward at the last
        fwd_level[wide[0] + 1 :] = 2 * n
        bwd_level[: wide[-1] + 1] = 2 * n
    fwd_first, bwd_first = pos[up[:n]], d - pos[up[n:] - n]
    forward = (fwd_level < bwd_level) | ((fwd_level == bwd_level) & (fwd_first <= bwd_first))
    level = np.minimum(fwd_level, bwd_level)
    parent = np.where(forward, fwd_par, bwd_par % n)
    sign = np.where(forward, 1, -1)
    keep = np.flatnonzero(level[1:] < 2 * n) + 1
    parent, sign = parent[keep], sign[keep]
    return keep, parent, sign, sign * (pos[keep] - pos[parent]) % d, level[keep]


def _solve_known(X, g, mask: OmegaMask, route: str, tau_rel, tau_supp, steps=None, L=None, shift=None,
                 partition=None, complete=(), unsolved=(), zero_set=None, raw=None, row0=None):
    """Divide every whole row, complete the planned rows, split the support under the steps, then propagate.

    ``partition`` is the split of the support S the plan judged when the mask
    has partial rows or the signal a zero set; otherwise S is read off the
    divided shift-0 row and split under ``steps``.  Each completed row k
    other than 0 is completed off S ∩ (S+k).  The completion residual,
    divided by the window energy ‖g‖² so that it is in the units of the
    signal's rows, reaches the verdict as ``equation_residual``.  The
    ``unsolved`` partial rows take no part in the walk, but the estimate must
    still reproduce them where they are known: that miss, in the same units,
    reaches the verdict too.  A zero-set plan (labelled ``zero_set``) hands
    over the relation rows it transformed (``raw``), every one of them to be
    completed, and row 0 already completed off the zero set with its
    residual (``row0``), so nothing is transformed or fitted twice.
    """
    energy, notes = g.norm() ** 2, {"route": route}
    if L is not None:
        notes.update({"L": L, "window_shift": shift})
    if raw is None:
        corr, raw = _divide_full_rows(X, g, mask, (*complete, *unsolved))
        eq_residual = 0.0
    else:
        corr, eq_residual = CorrelationData(g.d, {0: row0[0]}), row0[1] / energy
        notes["zero_set"] = zero_set
    if partition is None:
        partition = components_mod_d(support_from_magnitudes(corr.a[0], tau_supp), g.d, steps)
    if complete:
        rows, in_s = dict(corr.a), _indicator(partition.universe, g.d)
        for k in complete:
            if k not in rows:  # a zero-set plan's row 0 is already in
                rows[k], res = _complete_row(*raw[k], mask.mask[k], _meets(in_s, k))
                eq_residual = max(eq_residual, res / energy)
        corr = CorrelationData(g.d, rows)
        notes.update({"completed_rows": list(complete), "equation_residual": eq_residual})
    outcome = propagate_phases(corr, partition, tau_supp)
    notes.update(outcome.notes)
    est = outcome.estimate.entries
    for k in unsolved:
        R_k, V_k = raw[k]
        # est_j conj(est_{j-k}) is the estimate's row k
        miss = np.fft.fft(est * np.conj(est[(np.arange(g.d) - k) % g.d])) * np.conj(V_k) - R_k
        eq_residual = max(eq_residual, float(np.abs(np.fft.ifft(miss * mask.mask[k])).max()) / energy)
    return _verdict(outcome.estimate, partition, notes, _peak(corr.a[0]), outcome.residual, eq_residual)


def hole_classifier(
    b: MeasurementCoefficients, L: int | None = None, tau_rel: float = DEFAULT_TAU_REL
) -> list[int]:
    """Anchors j* with a nonzero at j*, exactly L zeros after it, and mass within L before.

    Detected purely from the band rows: all rows k = 1..L vanish on the index
    range j*+1-k .. j*+k, while some row k is nonzero at j*-k.
    """
    if L is None:
        L = b.L
    if L < 1:
        return []
    d = b.d
    rows = np.abs(np.array([b.b[k] for k in range(1, L + 1)]))  # rows[k - 1] is band row k
    scale = max(rows.max(axis=1).tolist())
    if not scale > 0.0:
        return []
    thr = tau_rel * scale
    loud = ~(rows <= thr)  # a NaN entry is never quiet
    # every row's range holds j*, so only indices quiet in all rows are candidates
    anchors = np.flatnonzero(~loud.any(axis=0))
    for k in range(1, L + 1):
        if not anchors.size:
            return []
        near = (anchors[:, None] + np.arange(1 - k, k + 1)) % d
        anchors = anchors[~loud[k - 1, near].any(axis=1)]
    k = np.arange(1, L + 1)[:, None]
    before = (rows[k - 1, (anchors - k) % d] > thr).any(axis=0)
    return anchors[before].tolist()


def hole_zero_set(b: MeasurementCoefficients, tau_rel: float = DEFAULT_TAU_REL) -> tuple[str, np.ndarray] | None:
    """The signal's first hole, read off its window-anchored band rows, as a zero set.

    A zero of band row 0 at j* is the run j*..j*+L (``hole-L+1``): row 0 is
    a positive-weight sum of |f|² over j..j+L.  Else the first exact-L anchor
    j* (``hole_classifier``) gives the run j*+1..j*+L (``hole-L``).  Returns
    the label and a mask of the run, or None when the rows show no hole.
    """
    b0 = np.abs(b.b[0])
    peak = float(b0.max())
    runs = np.flatnonzero(b0 <= tau_rel * peak) if peak > 0.0 else ()
    if len(runs):
        label, start, length = "hole-L+1", int(runs[0]), b.L + 1
    else:
        anchors = hole_classifier(b, b.L, tau_rel)
        if not anchors:
            return None
        label, start, length = "hole-L", anchors[0] + 1, b.L
    zeros = np.zeros(b.d, dtype=bool)
    zeros[(start + np.arange(length)) % b.d] = True
    return label, zeros


def _complete_row(
    R_k: np.ndarray, V_k: np.ndarray, divides: np.ndarray, allowed: np.ndarray
) -> tuple[np.ndarray, float]:
    """Autocorrelation row a_k from its relation row R_k = fft(a_k) * conj(V_k).

    V_k is the window's ambiguity row.  Where ``divides`` the row is divided,
    as on every other route.  The other frequencies, where V_k vanishes, are
    fitted by least squares so that a_k vanishes off ``allowed`` (a known zero
    set of the signal pins them), and a_k is then set to zero there.  The residual
    max|ifft(fft(a_k) * conj(V_k) - R_k)| flags data that no row vanishing off
    ``allowed`` satisfies.
    """
    d = R_k.size
    A = np.zeros(d, dtype=np.complex128)
    A[divides] = R_k[divides] / np.conj(V_k[divides])
    missing, zero = np.flatnonzero(~divides), np.flatnonzero(~allowed)
    if missing.size:
        # ifft(A) off allowed is linear in the missing A[l]; make it vanish there
        A[missing] = np.linalg.lstsq(_fit_basis(missing, zero, d), -np.fft.ifft(A)[zero], rcond=None)[0]
    a = np.fft.ifft(A)
    a[zero] = 0.0
    return a, float(np.abs(np.fft.ifft(np.fft.fft(a) * np.conj(V_k) - R_k)).max())


def _indicator(support, d: int) -> np.ndarray:
    """A support's indicator on Z_d."""
    in_s = np.zeros(d, dtype=bool)
    in_s[list(support)] = True
    return in_s


def _meets(in_s: np.ndarray, k: int) -> np.ndarray:
    """S ∩ (S+k) as a mask, from S's indicator: the j with j and j-k in S, the only places a_k can be nonzero."""
    return in_s & np.roll(in_s, k)


def _fit_basis(missing: np.ndarray, zero: np.ndarray, d: int) -> np.ndarray:
    """The inverse transform at the indices ``zero`` as a linear map of the frequencies ``missing``."""
    return np.exp(2j * np.pi * (np.outer(zero, missing) % d) / d) / d


def _pins(divides: np.ndarray, allowed: np.ndarray) -> bool:
    """Whether a row's zeros off ``allowed`` pin its frequencies off ``divides``: the fit has full column rank."""
    missing, zero = np.flatnonzero(~divides), np.flatnonzero(~allowed)
    if not missing.size:
        return True
    enough = zero.size >= missing.size  # fewer equations than unknowns never pin them
    return enough and np.linalg.matrix_rank(_fit_basis(missing, zero, divides.size)) == missing.size


def recover_missing_dc_pair(
    corr: CorrelationData,
    dc_row: np.ndarray,
    lstar_value: int,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> RecoveryOutcome:
    """Recovery when all nonzero shift rows are known but the dc row misses the
    conjugate frequency pair +-l*.

    Magnitudes are rebuilt from off-diagonal products (triangle identity through
    two other support members); supports of size <= 2 fall back to locating a
    single spike from the dc phase ramp, or to the quadratic determined by total
    energy and the known cross product.  Output is verified against every known
    row and the trusted part of the dc row, at the scale of the total energy.
    """
    d = corr.d
    ls = int(lstar_value) % d
    violation = _dc_pair_violation(d, ls)
    if violation is not None:
        raise violation
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
        partition = _one_component("all-nonzero-shifts", supp)
        notes["case"] = "spike"
        residuals = _row_residual(_stacked_rows(corr), est), _dc_residual(est, dc_row, trusted)
        return _verdict(CyclicSignal(d, est), partition, notes, energy, *residuals)

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
        scored = [(_row_residual(stacked, e), _dc_residual(e, dc_row, trusted)) for e in candidates]
        best = min(range(len(candidates)), key=lambda i: max(scored[i]))
        partition = _one_component("all-nonzero-shifts", supp)
        notes["case"] = "two-point"
        return _verdict(CyclicSignal(d, candidates[best]), partition, notes, energy, *scored[best])

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
    supp = support_from_magnitudes(full.a[0], tau_supp)
    partition = _one_component("all-nonzero-shifts", supp)
    outcome = propagate_phases(full, partition, tau_supp)
    notes.update(outcome.notes)
    notes["case"] = "triangle"
    dc_residual = _dc_residual(outcome.estimate.entries, dc_row, trusted)
    return _verdict(outcome.estimate, partition, notes, energy, outcome.residual, dc_residual)


def _dc_residual(est: np.ndarray, dc_row: np.ndarray, trusted: np.ndarray) -> float:
    predicted = np.fft.fft(np.abs(est) ** 2)
    return float(np.abs(predicted[trusted] - dc_row[trusted]).max())


def _solve_dcpair(X, g, mask: OmegaMask, lstar: int, tau_rel, tau_supp) -> RecoveryOutcome:
    """Every full row divided, and the dc row divided where its mask is true and zero elsewhere."""
    corr, raw = _divide_full_rows(X, g, mask, (0,))
    R_0, V_0 = raw[0]
    keep = mask.mask[0]
    dc_row = np.zeros(X.d, dtype=np.complex128)
    dc_row[keep] = R_0[keep] / np.conj(V_0[keep])
    return recover_missing_dc_pair(corr, dc_row, lstar, tau_supp)


def _dc_pair_violation(d: int, ls: int) -> PreconditionViolated | None:
    """Why the dc-pair theorem does not cover (d, l*), or None when it does."""
    if d < 5:
        return PreconditionViolated(f"need d >= 5, got {d}")
    if math.gcd(ls, d) != 1 and not (d == 6 and ls == 2):
        return PreconditionViolated(f"l*={ls} shares a factor with d={d} (and is not the d=6 case)")
    return None


def _zero_measurement(X: SpectrogramMeasurement) -> bool:
    """No positive entry: any other measurement, however small against the window, carries a signal.
    Entries are finite and nonnegative, so the peak decides."""
    return not X.sq_mag.max() > 0.0


def _zero_outcome(d: int) -> RecoveryOutcome:
    partition = ConnectivityPartition("empty", (), ())
    return RecoveryOutcome(STATUS_UNIQUE, CyclicSignal.zeros(d), partition, 0, 0.0, {"route": "auto", "case": "zero-signal"})


def _filled_band(report: WindowReport) -> int | None:
    """L when the window is short and nonzero on every index of its band 0..L."""
    return report.short_L if report.short_L is not None and len(report.support) == report.short_L + 1 else None


def _plan_known(X, report: WindowReport, L, tau_rel, tau_supp, zero_set=None):
    """The rows with a true entry are exactly those of the window's difference set D_g, and row 0
    is whole or a zero set of the signal pins it.

    When every D_g row is whole and no zero set is declared, the mask is
    D_g x Z_d and the plan does not read X.  Its notes keep the two classic
    cases' names: ``full`` when D_g is all of Z_d, ``generic`` with the band
    width L when D_g is a band {-L..L} (an explicit L must name that band),
    ``known`` for any other D_g.

    Otherwise (route ``known``) the support S is read off row 0, and a row k
    vanishes off S ∩ (S+k).  A whole row 0 is divided, and each partial row
    is completed where S ∩ (S+k) pins its vanished frequencies.  A partial
    row 0 needs a zero set Z of the signal that pins its own: on a short
    window nonzero on all of its band 0..L with 2L+1 < d, the first hole
    the measurement shows (``hole_zero_set``; AnchorInvalid when there is
    none).  Any other window with a partial row 0, such as a punctured-dc
    window, whose band is all of Z_d, is rejected before X is read.  The
    caller may declare Z instead (``zero_set``, a label and a mask of Z; line
    mode declares everything off the signal's span).  With a zero set, row 0
    is completed off Z even when whole, and every row 0 < k <= d/2 of D_g
    off S ∩ (S+k); row d-k holds the same data, a_{d-k}[j] = conj(a_k[j+k]).
    The rows that cannot be completed (``unsolved``) must not split the
    support further than D_g does; when they do, the plan names them
    (PreconditionViolated).  The plan hands the solver its partition of S,
    and with a zero set the relation rows it transformed and row 0 completed.
    """
    g, d, dg, mask = report.window, report.window.d, report.dg, report.omega.mask
    rows = np.zeros(d, dtype=bool)
    rows[list(dg.members)] = True
    whole = mask.all(axis=1)
    if (mask.any(axis=1) != rows).any() or (L is not None and not whole[rows].all()):
        error = WindowClassError if L is None else NonGenericWindow
        return error("window mask has a true entry off the rows of D_g, or (with an L) a partial row")
    # a band covering all of Z_d (the punctured-dc windows) is left to the dc-pair route
    band = _filled_band(report) if zero_set is None and not whole[0] and not dg.covers_all else None
    if zero_set is None and not whole[0] and band is None:
        return WindowClassError("row 0 has a hole, and no zero set of the signal is known for this window")
    if zero_set is None and whole[rows].all():
        if L is None and dg.covers_all:
            return {"mask": report.omega, "steps": dg, "route": "full"}
        reach = max(min(k, d - k) for k in dg.members)
        if 2 * reach < d and len(dg.members) == 2 * reach + 1 and L in (None, reach):
            return {"mask": report.omega, "steps": reach, "route": "generic", "L": reach, "shift": report.canonical_shift}
        if L is not None:
            return NonGenericWindow(f"mask does not equal the width-{L} band")
        return {"mask": report.omega, "steps": dg, "route": "known"}
    plan = {"mask": report.omega, "route": "known"}
    if whole[0] and zero_set is None:
        supp, first, candidates = _row0_support(X, g, tau_supp), (), np.flatnonzero(rows & ~whole)
    else:
        candidates = np.flatnonzero(rows[: d // 2 + 1])
        raw = dict(zip(candidates.tolist(), zip(*_relation_rows(X, g, candidates))))
        if zero_set is None:
            # band row k of the window-anchored problem is ifft(R_k) rolled by the window's shift
            b = {k: np.roll(np.fft.ifft(raw[k][0]), report.canonical_shift) for k in range(band + 1)}
            zero_set = hole_zero_set(MeasurementCoefficients(d, band, b), tau_rel)
            if zero_set is None:
                return AnchorInvalid("row 0 has a hole, and the measurement shows no signal hole of length L or L+1")
        label, zeros = zero_set
        if not _pins(mask[0], ~zeros):
            return AnchorInvalid(f"the {label} zero set does not pin the vanished frequencies of row 0")
        row0 = _complete_row(*raw[0], mask[0], ~zeros)
        supp, first = support_from_magnitudes(row0[0], tau_supp), (0,)
        plan.update({"zero_set": label, "raw": raw, "row0": row0})
    in_s = _indicator(supp, d)
    complete = (*first, *(k for k in candidates.tolist() if k and _pins(mask[k], _meets(in_s, k))))
    partition = components_mod_d(supp, d, (*np.flatnonzero(whole).tolist(), *complete))
    stuck = sorted(set(candidates.tolist()) - set(complete))
    split = partition.n_components > 1  # one component cannot split further under D_g
    if stuck and split and partition.n_components > components_mod_d(supp, d, dg).n_components:
        return PreconditionViolated(f"rows {stuck} cannot be completed from the support, which splits without them")
    return {**plan, "partition": partition, "complete": complete, "unsolved": stuck}


def _plan_dcpair(X, report: WindowReport, L, tau_rel, tau_supp):
    d, mask = report.window.d, report.omega.mask
    ls = np.flatnonzero(~mask[0])
    if np.count_nonzero(~mask) != 2 or ls.size != 2 or ls[0] == 0 or ls[1] != d - ls[0]:
        return WindowClassError("window mask is not punctured on a dc-row conjugate pair")
    return _dc_pair_violation(d, int(ls[0])) or {"mask": report.omega, "lstar": int(ls[0])}


def _row0_support(X: SpectrogramMeasurement, g: CyclicSignal, tau_supp: float) -> tuple[int, ...]:
    """Support read off the divided shift-0 row, which the known route's masks keep whole."""
    # relation row 0 transforms the row sums of X, ambiguity row 0 transforms |g|^2
    r0 = np.fft.fft(X.sq_mag.sum(axis=1)) / X.d
    a0 = np.fft.ifft(r0 / np.conj(np.fft.fft(g.entries * np.conj(g.entries))))
    return support_from_magnitudes(a0, tau_supp)


def _known_components(X, g, plan, tau_rel, tau_supp) -> ConnectivityPartition:
    """The plan's own partition when the mask has partial rows, else the support split under D_g."""
    if "partition" in plan:
        return plan["partition"]
    return components_mod_d(_row0_support(X, g, tau_supp), X.d, plan["steps"])


def _dcpair_components(X, g, plan, tau_rel, tau_supp) -> ConnectivityPartition:
    """The dc-pair solver's own partition: its support comes from the off-diagonal rows."""
    return _solve_dcpair(X, g, **plan, tau_rel=tau_rel, tau_supp=tau_supp).components


@dataclass(frozen=True)
class Route:
    """One uniqueness condition: window-class plan, solver, and judged partition.

    ``plan(X, report, L, tau_rel, tau_supp)`` returns the solver's keyword
    arguments, or the exception saying why the route does not apply: an
    explicit mode raises it, the auto router and the decision try the next
    route.  A plan reads X only where its window class needs the signal: the
    known route's support when it completes rows, and the signal's hole when
    a short window's row 0 is partial.  A plan never scans X for an all-zero measurement: each public
    call does that once, before any plan runs.  ``solver`` is a
    module-global name looked up at each call, so a wrapper installed on this
    module (a tracer, a profiler) sees the solver run.  ``partition`` is the support split the condition
    judges: connected means retrievable.
    """

    name: str
    plan: Callable
    solver: str
    partition: Callable


ROUTES = (
    Route("known", _plan_known, "_solve_known", _known_components),
    Route("dcpair", _plan_dcpair, "_solve_dcpair", _dcpair_components),
)


def _first_route(X, report: WindowReport, tau_rel: float, tau_supp: float):
    """The first route whose plan applies and its plan (or None, None), and every rejection before it."""
    rejected: dict[str, StftprError] = {}
    for route in ROUTES:
        plan = route.plan(X, report, None, tau_rel, tau_supp)
        if not isinstance(plan, StftprError):
            return route, plan, rejected
        rejected[route.name] = plan
    return None, None, rejected


def _open_case(rejected: dict[str, StftprError]) -> dict | None:
    """Notes naming a route whose window class fits but whose theorem's hypotheses fail."""
    for name, why in rejected.items():
        if isinstance(why, PreconditionViolated):
            return {"route": name, "reason": str(why)}
    return None


def recover(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    mode: str = "auto",
    L: int | None = None,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> RecoveryOutcome:
    """Route a measurement to the solver matching the window's certified class.

    ``mode`` is ``auto`` or the name of one entry of ``ROUTES``.  A named route
    runs alone and raises its plan's exception when it does not apply.
    ``auto`` answers an all-zero measurement first, then runs the first route,
    in ``ROUTES`` order, whose plan applies: ``known``, a mask whose nonempty
    rows are the window's difference set and whose row 0 is whole (hole-free,
    a generic short band, any other difference set, or partial rows completed
    from the signal's support, as for a punctured center) or completed off a
    signal hole of length L+1 then L (short windows nonzero on all of 0..L,
    noted as ``zero_set``); ``dcpair``, a dc row punctured at a conjugate
    pair.  When none applies the
    outcome is Undecidable with no estimate.  Its notes name the route and
    give the reason when the window fits a route's class but not its theorem,
    as for partial rows that cannot be completed and leave the support split,
    or a dc pair whose l* shares a factor with d.
    """
    if X.d != g.d:
        raise DimensionMismatch(f"measurement d={X.d}, window d={g.d}")
    route = next((r for r in ROUTES if r.name == mode), None)
    if route is None and mode != "auto":
        raise StftprError(f"unknown recovery mode: {mode}")
    report = classify_window(g, tau_rel)
    if mode == "auto" and _zero_measurement(X):
        return _zero_outcome(X.d)
    if route is not None:
        plan = route.plan(X, report, L, tau_rel, tau_supp)
        if isinstance(plan, StftprError):
            raise plan
    else:
        route, plan, rejected = _first_route(X, report, tau_rel, tau_supp)
        if route is None:
            notes = _open_case(rejected) or {"route": "auto", "reason": "window class matches no implemented solver"}
            partition = ConnectivityPartition("unknown", (), ())
            return RecoveryOutcome(STATUS_UNDECIDABLE, None, partition, 0, float("nan"), notes)
    return globals()[route.solver](X, g, **plan, tau_rel=tau_rel, tau_supp=tau_supp)


def _comb_witnesses(X: SpectrogramMeasurement, g: CyclicSignal, L: int) -> tuple[CyclicSignal, ...]:
    """Equal-amplitude comb translates reproducing the measurement, if any."""
    d = X.d
    scale = float(X.sq_mag.max())
    if scale <= 0.0:
        return ()
    energy = X.total_mass() / (d * g.norm() ** 2)
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
            gap = float(np.abs(measure(cand, g).sq_mag - X.sq_mag).max())
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

    An all-zero measurement is Retrievable.  Otherwise the first route in
    ``ROUTES`` order whose plan applies judges its support partition: connected
    is Retrievable, anything else NotRetrievable.  A short window nonzero on
    all of its band, whose row 0 is partial and whose signal shows no hole to
    pin it, is NotRetrievable when comb translates reproduce the measurement.  Outside every implemented uniqueness
    condition the honest answer is Undecidable.
    """
    g, d = report.window, X.d
    notes: dict = {"tau_rel": tau_rel, "tau_supp": tau_supp}
    if _zero_measurement(X):
        notes["case"] = "zero-signal"
        return DecisionReport(VERDICT_RETRIEVABLE, ConnectivityPartition("empty", (), ()), notes)

    route, plan, rejected = _first_route(X, report, tau_rel, tau_supp)
    # the known plan rejects a partial row 0 no zero set pins with AnchorInvalid, only on filled bands
    L = _filled_band(report) if isinstance(rejected.get("known"), AnchorInvalid) else None
    if L is not None:
        if route is None:
            witnesses = _comb_witnesses(X, g, L)
            if witnesses:
                partition = components_mod_d(witnesses[0].support(), d, L)
                notes.update({"route": "comb-family", "L": L, "translates": len(witnesses)})
                return DecisionReport(VERDICT_NOT_RETRIEVABLE, partition, notes, witnesses)
        notes.update({"L": L, "zero_set": "no signal hole detected"})
        if d % (L + 1) == 0:
            notes["open_gap"] = "band width + 1 divides d; only hole-based uniqueness is implemented"

    if route is None:
        notes.update(_open_case(rejected) or {"route": "none", "reason": "window class matches no implemented uniqueness condition"})
        return DecisionReport(VERDICT_UNDECIDABLE, None, notes)
    partition = route.partition(X, g, plan, tau_rel, tau_supp)
    notes["route"] = plan.get("route", route.name)
    notes.update({k: plan[k] for k in ("L", "zero_set") if k in plan})
    verdict = VERDICT_RETRIEVABLE if partition.is_connected else VERDICT_NOT_RETRIEVABLE
    return DecisionReport(verdict, partition, notes)
