"""Reconstruction and decision procedures on Z_d.

Every measurement goes through one route, the known route: turn the
squared-magnitude measurement into shift-autocorrelation data
``a[k][j] = f_j * conj(f_{j-k})`` for whichever shifts the window's ambiguity
support makes available, partition the recovered support under the matching
gap relation, then fix one phase per component and propagate.  Only the
rows k <= d/2 are transformed, divided, completed and checked: X is real, so
row d-k is the mirror of row k, a_{d-k}[j] = conj(a_k[j+k]), and adds no
equation.  Rows are divided by the window ambiguity where the mask is
true, read off the window's certification (``OmegaMask.ambiguity``).  A row whose
ambiguity vanishes at a few frequencies is completed from a known zero set of
the signal (``_complete_row``).  The support S is read off row 0, and row k
is completed off S ∩ (S+k), where it must vanish.  Row 0 itself is divided
when whole.  Otherwise it is completed off a zero set of the signal (a hole
read off the measurement for short windows filled on their band,
``hole_zero_set``, or everything off the signal's span in line mode), or,
when every other row is whole and row 0 misses only a conjugate pair ±l*
(a punctured dc row), in closed form from the energy identity
(``_row0_from_energy``).

Every outcome returns through one verdict, ``_verdict``, on one residual
(``_relation_miss``): the estimate's largest miss of the relation rows the
route read, in the units of the measurement and relative to its peak
R[0, 0] = ΣX/d.  The data is Inconsistent when that miss exceeds the
consistency tolerance.  Otherwise the support partition decides between one
global phase and one phase per component.

``_plan_known`` is the one dispatch: ``recover``, ``decide_retrievability``
and the CLI's ``--mode`` choices (``MODES``) all go through it.  It is also
the one reader of S, so both entry points judge the same partition.  Each
plan transforms the relation rows it reads in one pass over X and hands
them to the solver, except a plan with a whole row 0 and more rows than
``relation_transform``'s twiddle product takes (``twiddle_product``; full
and center windows at d >= 20, wide bands): that plan reads S off X's row
sums, and the solver transforms the rows with one real FFT of X.
"""

from __future__ import annotations

import math
import weakref
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
from .spectral import CyclicSignal, SpectrogramMeasurement, measure, relation_transform, twiddle_product
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

MODES = ("auto", "known")


def is_inconsistent(residual: float, scale: float) -> bool:
    """Whether a residual exceeds the consistency tolerance at this data scale; NaN does."""
    return not residual <= CONSISTENCY_REL_TOL * max(scale, 1e-300)


@dataclass(frozen=True)
class CorrelationData:
    """Shift autocorrelations a[k][j] = f_j * conj(f_{j-k}) as one block: ``rows[i]`` is a_k for k = ``shifts[i]``, ascending."""

    d: int
    shifts: np.ndarray
    rows: np.ndarray

    @classmethod
    def from_dict(cls, d: int, a: dict) -> CorrelationData:
        """Stack the rows ``a[k]`` (k taken mod d) once, by ascending shift."""
        rows = {int(k) % d: np.asarray(row, dtype=np.complex128) for k, row in a.items()}
        for k, row in rows.items():
            if row.shape != (d,):
                raise DimensionMismatch(f"row {k} has shape {row.shape}, expected ({d},)")
        shifts = sorted(rows)
        return cls(d, np.array(shifts, dtype=np.intp), np.array([rows[k] for k in shifts]).reshape(len(shifts), d))

    @property
    def a(self) -> dict[int, np.ndarray]:
        """The rows by shift, as views of the block."""
        return dict(zip(self.shifts.tolist(), self.rows))


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


def measurement_coeffs(X: SpectrogramMeasurement, L: int) -> np.ndarray:
    """Band rows b[k] = ifft of relation row k for k = 0..L, as one (L+1) x d array; only those rows are transformed."""
    if not (0 <= L < X.d):
        raise StftprError(f"invalid band width L={L} for d={X.d}")
    return np.fft.ifft(relation_transform(X, range(L + 1)), axis=1)


def _relation_rows(X: SpectrogramMeasurement, mask: OmegaMask, shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relation rows R[i] = fft(a_k) * conj(V_gg[k]) for k = shifts[i], rows k <= d/2 of D_g,
    from one transform, and the ambiguity rows V_gg[k] the mask was certified from (a view of
    them when the shifts are a run of the certified rows, as on the full and band routes)."""
    amb_rows, amb = mask.ambiguity
    at = np.searchsorted(amb_rows, shifts)
    run = at.size and (np.diff(at) == 1).all()
    return relation_transform(X, shifts), amb[at[0] : at[-1] + 1] if run else amb[at]


def _divide_full_rows(
    X: SpectrogramMeasurement, mask: OmegaMask, extra=(), relation=None
) -> tuple[CorrelationData, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rows ifft(R[k] / conj(V_gg[k])) for every k <= d/2 whose mask row is all true, in one
    batch, and the relation rows read, (shifts, R, V): those rows, then each partial k in
    ``extra`` (each k <= d/2), undivided, with their ambiguity rows.  Each row is transformed
    once: rows a plan already transformed, in that order, are handed over (``relation``) and
    only divided.  Row d-k is the mirror of row k, a_{d-k}[j] = conj(a_k[j+k]), and adds no equation."""
    full = mask.mask.all(axis=1)
    whole = np.flatnonzero(full[: X.d // 2 + 1])
    if relation is None:
        shifts = np.concatenate((whole, np.array([k for k in extra if not full[k]], dtype=np.intp)))
        relation = (shifts, *_relation_rows(X, mask, shifts))
    _, R, V = relation
    divisors = np.conj(V[: whole.size])
    vanished = (divisors == 0.0).any(axis=1)  # guard: mask said "true" but the value is zero
    if vanished.any():
        raise StftprError(f"internal: ambiguity row {whole[vanished][0]} vanishes under a true mask")
    table = np.fft.ifft(np.divide(R[: whole.size], divisors, out=divisors), axis=1, out=divisors)
    return CorrelationData(X.d, whole, table), relation


def support_from_magnitudes(a0: np.ndarray, tau_supp: float = DEFAULT_TAU_SUPP) -> tuple[int, ...]:
    """Support detection from the shift-0 row (entrywise squared magnitudes)."""
    mags = np.clip(a0.real, 0.0, None)
    peak = mags.max()
    if peak <= 0.0:
        return ()
    return tuple(np.flatnonzero(mags > tau_supp * peak).tolist())


def _wrap(x: np.ndarray) -> np.ndarray:
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _relation_miss(est: np.ndarray, shifts: np.ndarray, R: np.ndarray, V: np.ndarray) -> float:
    """The estimate's relative miss of the relation rows read: max |fft(est·conj(est[·−k]))·conj(V[i]) − R[i]| / R[0, 0].

    Row i is shift k = shifts[i], and shift 0 is among them.  R[0, 0] = ΣX/d
    is ‖f‖²‖g‖² on exact data and the peak of every relation row, so the miss
    does not depend on the scale of f or g, and the max squares nothing.  A
    NaN anywhere makes it NaN; no miss at all is 0, even on a zero measurement.
    """
    d = est.size
    # est_{j-k} off a doubled copy, then the rows est_j conj(est_{j-k}) and their transforms, all in one block
    miss = np.lib.stride_tricks.sliding_window_view(np.concatenate((est, est)), d)[d - shifts]
    np.fft.fft(np.multiply(est, np.conj(miss, out=miss), out=miss), axis=1, out=miss)
    np.conj(miss, out=miss)
    miss *= V
    np.conj(miss, out=miss)  # times conj(V), without a conjugated copy of V
    miss -= R
    worst = float(np.abs(miss).max(initial=0.0))
    return worst / R[np.flatnonzero(shifts == 0)[0], 0].real if worst else worst


def _verdict(estimate: CyclicSignal, partition: ConnectivityPartition, notes: dict, residual: float) -> RecoveryOutcome:
    """The status every route returns: Inconsistent when the relative miss ``residual``
    exceeds the consistency tolerance (or is NaN), else one component means one global phase."""
    if is_inconsistent(residual, 1.0):
        status = STATUS_INCONSISTENT
    else:
        status = STATUS_UNIQUE if partition.n_components <= 1 else STATUS_PER_COMPONENT
    return RecoveryOutcome(status, estimate, partition, partition.n_components, residual, notes)


def propagate_phases(corr: CorrelationData, partition: ConnectivityPartition) -> CyclicSignal:
    """Assemble an estimate by anchoring one phase per component and walking edges.

    Magnitudes come from the shift-0 row; each component's smallest index gets a
    real positive phase.  The walk then follows breadth-first visit order:
    frontier index, then shift ascending, forward before backward.
    Each support index not yet reached takes the first phase the frontier
    implies for it, and the next frontier is those indices in the order they
    were reached.  Edges the walk did not follow are checked only by the
    solver's one residual (``_relation_miss``).

    That visit order is the contract.  When the known nonzero shifts fold
    (k -> min(k, d-k)) to exactly {1..L} and rows 1..L are known, as on every
    band, full, center and dc walk, the walk only ever follows steps
    ±1..±L through rows 1..L: its tree is then built in closed form
    (``_band_tree``), and the phases are set in one scalar pass over its edges
    in level order.  Other step sets walk the frontier.
    """
    d, shifts, rows = corr.d, corr.shifts, corr.rows
    if not shifts.size or shifts[0] != 0:
        raise StftprError("shift-0 autocorrelation row is required")
    mags = np.sqrt(np.clip(rows[0].real, 0.0, None))
    L = int(np.minimum(shifts, d - shifts).max())  # shifts[0] is 0
    if np.array_equal(shifts[1 : L + 1], np.arange(1, L + 1)):
        phases, reached = _band_walk(rows, d, L, partition)
    else:
        phases, reached = _frontier_walk(shifts, rows, d, partition)
    return CyclicSignal(d, np.where(reached, mags * np.exp(1j * phases), 0.0))


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
    relative to its anchor; then one scalar pass over every tree's edges in
    level order sets each child after its parent, with the frontier walk's own
    float operations: forward, wrap(parent's phase + arg a_k[child]); backward,
    wrap(parent's phase - arg a_k[parent]).  An anchor an earlier tree already
    reached (a partition finer than the band split) is set back to phase 0, as
    the frontier walk does.
    """
    universe = np.asarray(partition.universe, dtype=np.intp)
    reached = np.zeros(d, dtype=bool)
    ph, edges, again = [0.0] * d, [], []
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
        pi, turn = math.pi, 2.0 * math.pi
        # parents come first in level order; Python floats wrap with _wrap's own IEEE operations
        for c, p, a in zip(child[order].tolist(), parent[order].tolist(), angle[order].tolist()):
            ph[c] = (ph[p] + a + pi) % turn - pi
    phases = np.array(ph)
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


def _solve_known(X, mask: OmegaMask, route: str, tau_supp, partition, L=None, shift=None,
                 complete=(), unsolved=(), zero_set=None, relation=None, divided=None, row0=None):
    """Divide every whole row, complete the planned rows, then propagate over the plan's partition.

    ``partition`` is the split of the support S the plan judged; the solver
    reads no support of its own.  Each completed row k other than 0 is
    completed off S ∩ (S+k).  The ``unsolved`` partial rows take no part in
    the walk.  A plan that completed row 0 hands it over
    (``row0``) with the relation rows it transformed (``relation``: shifts,
    rows R and ambiguity rows V), and a dc plan also with the rows it
    divided (``divided``); a zero-set plan is labelled ``zero_set``.  A plan
    with a whole row 0 hands over the relation rows when it transformed
    them, and the whole ones are divided here.  The
    verdict's one residual is the estimate's miss of every relation row read
    (``_relation_miss``).  Nothing is transformed or fitted twice.
    """
    notes = {"route": route, "tau_supp": tau_supp}
    if L is not None:
        notes.update({"L": L, "window_shift": shift})
    if zero_set is not None:
        notes["zero_set"] = zero_set
    if row0 is None:  # a whole row 0: divide the whole rows, transformed here unless the plan did
        divided, relation = _divide_full_rows(X, mask, (*complete, *unsolved), relation)
    shifts, R, V = relation
    if complete:
        rows, in_s = ({} if divided is None else divided.a), _indicator(partition.universe, X.d)
        if row0 is not None:
            rows[0] = row0
        at = {k: i for i, k in enumerate(shifts.tolist())}
        for k in complete:
            if k not in rows:
                rows[k] = _complete_row(R[at[k]], V[at[k]], mask.mask[k], _meets(in_s, k))
        divided = CorrelationData.from_dict(X.d, rows)
        notes["completed_rows"] = list(complete)
    estimate = propagate_phases(divided, partition)
    return _verdict(estimate, partition, notes, _relation_miss(estimate.entries, shifts, R, V))


def hole_classifier(b: np.ndarray, L: int | None = None, tau_rel: float = DEFAULT_TAU_REL) -> list[int]:
    """Anchors j* with a nonzero at j*, exactly L zeros after it, and mass within L before.

    Detected purely from the band rows ``b`` (row k is b[k], k = 0..L by
    default): all rows k = 1..L vanish on the index range j*+1-k .. j*+k,
    while some row k is nonzero at j*-k.
    """
    if L is None:
        L = b.shape[0] - 1
    if L < 1:
        return []
    d = b.shape[1]
    rows = np.abs(b[1 : L + 1])  # rows[k - 1] is band row k
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


def hole_zero_set(b: np.ndarray, tau_rel: float = DEFAULT_TAU_REL) -> tuple[str, np.ndarray] | None:
    """The signal's first hole, read off its window-anchored band rows b[0..L], as a zero set.

    A zero of band row 0 at j* is the run j*..j*+L (``hole-L+1``): row 0 is
    a positive-weight sum of |f|² over j..j+L.  Else the first exact-L anchor
    j* (``hole_classifier``) gives the run j*+1..j*+L (``hole-L``).  Returns
    the label and a mask of the run, or None when the rows show no hole.
    """
    L, d = b.shape[0] - 1, b.shape[1]
    b0 = np.abs(b[0])
    peak = float(b0.max())
    runs = np.flatnonzero(b0 <= tau_rel * peak) if peak > 0.0 else ()
    if len(runs):
        label, start, length = "hole-L+1", int(runs[0]), L + 1
    else:
        anchors = hole_classifier(b, L, tau_rel)
        if not anchors:
            return None
        label, start, length = "hole-L", anchors[0] + 1, L
    zeros = np.zeros(d, dtype=bool)
    zeros[(start + np.arange(length)) % d] = True
    return label, zeros


def _complete_row(R_k: np.ndarray, V_k: np.ndarray, divides: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Autocorrelation row a_k from its relation row R_k = fft(a_k) * conj(V_k).

    V_k is the window's ambiguity row.  Where ``divides`` the row is divided,
    as on every other route.  The other frequencies, where V_k vanishes, are
    fitted by least squares so that a_k vanishes off ``allowed`` (a known zero
    set of the signal pins them), and a_k is then set to zero there.  Data
    that no such row satisfies shows in the estimate's miss of R_k.
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
    return a


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


def _row0_from_energy(others: np.ndarray, R_0: np.ndarray, V_0: np.ndarray, divides: np.ndarray) -> np.ndarray:
    """Row 0 a_0 = |f|² from its relation row R_0 = fft(a_0) * conj(V_0) and every other row a_k (``others``).

    Summed over k ≠ 0, |a_k[j]|² = a_0[j] a_0[j-k] gives s_j = a_0[j] (E - a_0[j]),
    where E = Σ a_0 is row 0 at frequency 0, which ``divides`` must hold.  So
    a_0[j] is a root of t² - E t + s_j: the small root, except at most one
    index (a_0[j] > E/2) that takes the other.  That index, or none, is the
    candidate whose transform misses the divided frequencies least; every
    candidate's miss comes from one inverse transform of the small roots' miss
    r, as ‖r‖² + n c_j² + 2 c_j Re(d ifft(r)[j]), with c_j the gap between the
    roots and n the divided frequencies.  All of it is worked in units of E,
    so no square leaves the range of floats.
    """
    d = R_0.size
    A = np.zeros(d, dtype=np.complex128)
    A[divides] = R_0[divides] / np.conj(V_0[divides])
    E = A[0].real
    u = (np.abs(others / E) ** 2).sum(axis=0)  # s_j / E²
    gap = np.sqrt(np.clip(1.0 - 4.0 * u, 0.0, None))  # the large root less the small one
    a0 = 2.0 * u / (1.0 + gap)  # the small root, without cancellation
    r = np.where(divides, np.fft.fft(a0) - A / E, 0.0)
    miss = np.count_nonzero(divides) * gap**2 + 2.0 * gap * (d * np.fft.ifft(r)).real  # less ‖r‖²
    j = int(np.argmin(miss))
    if miss[j] < 0.0:
        a0[j] += gap[j]
    a0 *= E
    return a0


def _dc_pair_violation(d: int, ls: int) -> PreconditionViolated | None:
    """Why the dc-pair theorem does not cover (d, l*), or None when it does."""
    if d < 5:
        return PreconditionViolated(f"need d >= 5, got {d}")
    if math.gcd(ls, d) != 1 and not (d == 6 and ls == 2):
        return PreconditionViolated(f"l*={ls} shares a factor with d={d} (and is not the d=6 case)")
    return None


def _zero_measurement(X: SpectrogramMeasurement) -> bool:
    """No positive entry: any other measurement, however small against the window, carries a signal.
    Entries are finite and nonnegative, so a positive entry on row 0 settles it, and otherwise the peak decides."""
    return not (X.sq_mag[0].max() > 0.0 or X.sq_mag.max() > 0.0)


def _zero_outcome(d: int) -> RecoveryOutcome:
    partition = ConnectivityPartition("empty", (), ())
    return RecoveryOutcome(STATUS_UNIQUE, CyclicSignal.zeros(d), partition, 0, 0.0, {"route": "auto", "case": "zero-signal"})


def _filled_band(report: WindowReport) -> int | None:
    """L when the window is short and nonzero on every index of its band 0..L."""
    return report.short_L if report.short_L is not None and len(report.support) == report.short_L + 1 else None


def _plan_known(X, report: WindowReport, L, tau_rel, tau_supp, zero_set=None):
    """The rows with a true entry are exactly those of the window's difference set D_g, and row 0
    is whole, pinned by a zero set of the signal, or punctured at a dc pair ±l* with every other row whole.

    The plan is the one reader of the support S, on every route: S is read
    off row 0, and a row k vanishes off S ∩ (S+k).  A whole row 0 gives S
    off relation row 0.  When the rows the solver reads (the whole rows
    k <= d/2, then the partial candidates) take the twiddle product
    (``twiddle_product``), the plan transforms them in one read of X and
    hands them on (``relation``); otherwise S comes off X's row sums
    (``_row0_support``), whose transform is relation row 0, and the solver
    transforms the rows.
    When every D_g row is whole and no zero set is declared, the mask is
    D_g x Z_d and nothing is completed; the route keeps the two classic
    cases' names: ``full`` when D_g is all of Z_d, ``generic`` with the band
    width L when D_g is a band {-L..L} (an explicit L must name that band),
    and ``known`` for any other D_g.

    Otherwise (route ``known``) each partial row k <= d/2 is completed
    where S ∩ (S+k) pins its vanished frequencies (row d-k is its mirror
    and is neither completed nor named).  A partial row 0 needs a zero set Z of the signal that pins its own: on a short
    window nonzero on all of its band 0..L with 2L+1 < d, the first hole
    the measurement shows (``hole_zero_set``; AnchorInvalid when there is
    none).  When every other row is whole and row 0 misses only a conjugate
    pair ±l* (a punctured-dc window), the whole rows k <= d/2 are divided
    once and row 0 is completed in closed form (``_row0_from_energy``) from
    them and their mirrors, gathered in one indexing step;
    every shift is then a step.  A (d, l*) outside the dc-pair theorem
    (``_dc_pair_violation``) is PreconditionViolated, and any other window
    with a partial row 0 is rejected, both before X is read.  The caller
    may declare Z instead (``zero_set``, a label and a mask of Z; line
    mode declares everything off the signal's span).  With a zero set, row 0
    is completed off Z even when whole, and every row 0 < k <= d/2 of D_g
    off S ∩ (S+k); row d-k holds the same data, a_{d-k}[j] = conj(a_k[j+k]).
    The rows that cannot be completed (``unsolved``) must not split the
    support further than D_g does; when they do, the plan names them
    (PreconditionViolated).  The plan hands the solver its partition of S,
    and row 0 completed when it completed it, with the relation rows it
    transformed and, for a dc pair, the rows it divided.  Every plan with no
    declared zero set is recorded on X while X lives, under ``_plan_key``
    (which holds L) and a weak reference to the certificate read: its route,
    L, zero-set label and partition, no array.  Only ``decide_retrievability``
    reads it; errors are not recorded.
    """
    d, dg, mask, auto = report.window.d, report.dg, report.omega.mask, zero_set is None
    rows = np.zeros(d, dtype=bool)
    rows[list(dg.members)] = True
    whole = mask.all(axis=1)
    if (mask.any(axis=1) != rows).any() or (L is not None and not whole[rows].all()):
        error = WindowClassError if L is None else NonGenericWindow
        return error("window mask has a true entry off the rows of D_g, or (with an L) a partial row")
    partial0 = auto and not whole[0]
    dc = partial0 and whole[1:].all()  # every other row whole: row 0 from the energy identity
    band = _filled_band(report) if partial0 and not dg.covers_all else None
    if dc:
        ls = np.flatnonzero(~mask[0])
        if ls.size != 2 or ls[0] == 0 or ls[1] != d - ls[0]:
            return WindowClassError("row 0 is not punctured at exactly a conjugate pair ±l*, and no zero set of the signal is known")
        if (why := _dc_pair_violation(d, int(ls[0]))) is not None:
            return why
    elif partial0 and band is None:
        return WindowClassError("row 0 has a hole, and no zero set of the signal is known for this window")
    plan, half = {"mask": report.omega, "route": "known"}, slice(0, d // 2 + 1)
    if auto and whole[rows].all():  # the classic cases keep their names
        reach = int(np.flatnonzero(rows[half])[-1])  # D_g = -D_g, so its widest cyclic step is at most d/2
        if L is None and dg.covers_all:
            plan["route"] = "full"
        elif 2 * reach < d and len(dg.members) == 2 * reach + 1 and L in (None, reach):
            plan.update({"route": "generic", "L": reach, "shift": report.canonical_shift})
        elif L is not None:
            return NonGenericWindow(f"mask does not equal the width-{L} band")
    if whole[0] and auto:
        first, candidates = (), np.flatnonzero((rows & ~whole)[half])
        shifts = np.concatenate((np.flatnonzero(whole[half]), candidates))
        if twiddle_product(shifts.size, d):  # one read of X gives S and every row the solver divides
            R, V = _relation_rows(X, report.omega, shifts)
            supp = support_from_magnitudes(np.fft.ifft(R[0] / np.conj(V[0])), tau_supp)
            plan["relation"] = (shifts, R, V)
        else:
            supp = _row0_support(X, report.omega, tau_supp)
    elif dc:
        divided, relation = _divide_full_rows(X, report.omega, (0,))
        a = divided.rows  # rows 1..d/2, whole; a[k-1] is a_k
        k = np.arange(1, (d + 1) // 2)[:, None]  # each k whose mirror d-k is another row
        shifted = np.concatenate((a, a), axis=1)[k - 1, k + np.arange(d)]  # a_k[j+k], off a doubled copy
        others = np.concatenate((a, np.conj(shifted)))  # a_{d-k}[j] = conj(a_k[j+k])
        _, R, V = relation
        row0 = _row0_from_energy(others, R[-1], V[-1], mask[0])  # row 0, the one partial row, is read last
        supp, first, candidates = support_from_magnitudes(row0, tau_supp), (0,), np.flatnonzero(~whole)
        plan.update({"divided": divided, "relation": relation, "row0": row0})
    else:
        candidates = np.flatnonzero(rows[half])  # row 0 first
        R, V = _relation_rows(X, report.omega, candidates)
        if auto:
            # band row k of the window-anchored problem is ifft(R_k) rolled by the window's shift;
            # the rows k <= d/2 of a filled band's D_g are 0..L, so R[k] is row k
            b = np.roll(np.fft.ifft(R[: band + 1], axis=1), report.canonical_shift, axis=1)
            zero_set = hole_zero_set(b, tau_rel)
            if zero_set is None:
                return AnchorInvalid("row 0 has a hole, and the measurement shows no signal hole of length L or L+1")
        label, zeros = zero_set
        if not _pins(mask[0], ~zeros):
            return AnchorInvalid(f"the {label} zero set does not pin the vanished frequencies of row 0")
        row0 = _complete_row(R[0], V[0], mask[0], ~zeros)
        supp, first = support_from_magnitudes(row0, tau_supp), (0,)
        plan.update({"zero_set": label, "relation": (candidates, R, V), "row0": row0})
    in_s = _indicator(supp, d)
    complete = (*first, *(k for k in candidates.tolist() if k and _pins(mask[k], _meets(in_s, k))))
    partition = components_mod_d(supp, d, (*np.flatnonzero(whole).tolist(), *complete))
    stuck = sorted(set(candidates.tolist()) - set(complete))
    split = partition.n_components > 1  # one component cannot split further under D_g
    if stuck and split and partition.n_components > components_mod_d(supp, d, dg).n_components:
        return PreconditionViolated(f"rows {stuck} cannot be completed from the support, which splits without them")
    if auto:  # X and the window are immutable, so the record never goes stale
        summary = {k: v for k, v in plan.items() if k in ("route", "L", "zero_set")} | {"partition": partition}
        vars(X).setdefault("_plans", {})[_plan_key(report, L, tau_rel, tau_supp)] = (weakref.ref(report.omega), summary)
    return {**plan, "partition": partition, "complete": complete, "unsolved": stuck}


def _plan_key(report: WindowReport, L, tau_rel, tau_supp) -> tuple:
    """A recorded plan's key: the window's bytes, both thresholds and L."""
    return report.window.entries.tobytes(), float(tau_rel), float(tau_supp), L


def _row0_support(X: SpectrogramMeasurement, mask: OmegaMask, tau_supp: float) -> tuple[int, ...]:
    """Support read off the divided shift-0 row, from X's row sums, when the mask keeps row 0 whole."""
    # relation row 0 transforms the row sums of X; the certified ambiguity rows start at row 0, fft(|g|^2)
    r0 = np.fft.fft(X.sq_mag.sum(axis=1)) / X.d
    a0 = np.fft.ifft(r0 / np.conj(mask.ambiguity[1][0]))
    return support_from_magnitudes(a0, tau_supp)


def _open_case(why: StftprError, fallback: dict) -> dict:
    """Notes naming the known route when the window fits its class but not its theorem's hypotheses."""
    return {"route": "known", "reason": str(why)} if isinstance(why, PreconditionViolated) else fallback


def recover(
    X: SpectrogramMeasurement,
    g: CyclicSignal,
    mode: str = "auto",
    L: int | None = None,
    tau_rel: float = DEFAULT_TAU_REL,
    tau_supp: float = DEFAULT_TAU_SUPP,
) -> RecoveryOutcome:
    """Plan the known route for the window's certified class, then solve it.

    ``mode`` is one of ``MODES``.  ``auto`` answers an all-zero measurement
    first, then runs the known route when its plan applies: a mask whose
    nonempty rows are the window's difference set, with row 0 whole
    (hole-free, a generic short band, any other difference set, or partial
    rows completed from the signal's support, as for a punctured center),
    completed off a signal hole of length L+1 then L (short windows nonzero
    on all of 0..L, noted as ``zero_set``), or punctured at a conjugate pair
    ±l* with every other row whole (a punctured dc row, completed from the
    energy identity).  When it does not apply the outcome is Undecidable with
    no estimate; the notes name the route and give the reason when the window
    fits its class but not its theorem, as for partial rows that cannot be
    completed and leave the support split, or a dc pair whose l* shares a
    factor with d.  ``known`` runs the plan with ``L`` (the band it must be)
    and raises its exception when it does not apply.
    """
    if X.d != g.d:
        raise DimensionMismatch(f"measurement d={X.d}, window d={g.d}")
    if mode not in MODES:
        raise StftprError(f"unknown recovery mode: {mode}")
    report = classify_window(g, tau_rel)
    if mode == "auto" and _zero_measurement(X):
        return _zero_outcome(X.d)
    plan = _plan_known(X, report, L if mode == "known" else None, tau_rel, tau_supp)
    if isinstance(plan, StftprError):
        if mode == "known":
            raise plan
        notes = _open_case(plan, {"route": "auto", "reason": "window class matches no implemented solver"})
        return RecoveryOutcome(STATUS_UNDECIDABLE, None, ConnectivityPartition("unknown", (), ()), 0, float("nan"), notes)
    return _solve_known(X, **plan, tau_supp=tau_supp)


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

    An all-zero measurement is Retrievable.  Otherwise, when the known
    route's plan applies, its support partition decides: connected is
    Retrievable, anything else NotRetrievable.  A short window nonzero on all
    of its band, whose row 0 is partial and whose signal shows no hole to pin
    it, is NotRetrievable when comb translates reproduce the measurement.
    Outside every implemented uniqueness condition the honest answer is
    Undecidable.  The partition is the plan's own, the one support read of
    X; a plan of X already made on this window, thresholds and certificate
    is read off X's record (``_plan_known``) rather than made again.
    """
    g, d = report.window, X.d
    notes: dict = {"tau_rel": tau_rel, "tau_supp": tau_supp}
    if _zero_measurement(X):
        notes["case"] = "zero-signal"
        return DecisionReport(VERDICT_RETRIEVABLE, ConnectivityPartition("empty", (), ()), notes)

    certificate, plan = vars(X).get("_plans", {}).get(_plan_key(report, None, tau_rel, tau_supp), (lambda: None, None))
    plan = plan if certificate() is report.omega else _plan_known(X, report, None, tau_rel, tau_supp)
    # the plan rejects a partial row 0 no zero set pins with AnchorInvalid, only on filled bands
    L = _filled_band(report) if isinstance(plan, AnchorInvalid) else None
    if L is not None:
        witnesses = _comb_witnesses(X, g, L)
        if witnesses:
            partition = components_mod_d(witnesses[0].support(), d, L)
            notes.update({"route": "comb-family", "L": L, "translates": len(witnesses)})
            return DecisionReport(VERDICT_NOT_RETRIEVABLE, partition, notes, witnesses)
        notes.update({"L": L, "zero_set": "no signal hole detected"})
        if d % (L + 1) == 0:
            notes["open_gap"] = "band width + 1 divides d; only hole-based uniqueness is implemented"

    if isinstance(plan, StftprError):
        notes.update(_open_case(plan, {"route": "none", "reason": "window class matches no implemented uniqueness condition"}))
        return DecisionReport(VERDICT_UNDECIDABLE, None, notes)
    partition = plan["partition"]
    notes["route"] = plan["route"]
    notes.update({k: plan[k] for k in ("L", "zero_set") if k in plan})
    verdict = VERDICT_RETRIEVABLE if partition.is_connected else VERDICT_NOT_RETRIEVABLE
    return DecisionReport(verdict, partition, notes)
