"""Window certification and explicit window constructions.

A window is certified through the boolean support mask of its ambiguity table
(relative thresholding, threshold always recorded) together with the difference
set of its support.  The constructions below realize the known families:
geometric short windows with full band support, windows whose mask misses a
single center entry or a conjugate pair of dc-row entries, and sparse line
windows whose supports have all-distinct pairwise differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptySupport, RejectionLimit, StftprError
from .spectral import CyclicSignal, meeting_shifts, stft_rows

DEFAULT_TAU_REL = 1e-9
MAX_DRAWS = 1000  # top-entry phase draws before construct_punctured_dc_window gives up


@dataclass(frozen=True, eq=False)
class OmegaMask:
    """Boolean support mask of an ambiguity table with its threshold rule.

    A mask certified from a window keeps the ambiguity rows it was built from,
    ``ambiguity = (rows, values)``: V_gg on ascending rows k <= d/2 from 0,
    among them every such row of the window's difference set.  The rows past
    d/2 are their mirrors, |V_gg(-k, -l)| = |V_gg(k, l)|.
    """

    d: int
    mask: np.ndarray
    threshold: float
    threshold_rule: str
    ambiguity: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != (self.d, self.d):
            raise StftprError(f"mask shape {m.shape} does not match d={self.d}")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)

    @property
    def all_true(self) -> bool:
        return bool(self.mask.all())

    def false_entries(self) -> tuple[tuple[int, int], ...]:
        ks, ls = np.nonzero(~self.mask)
        return tuple((int(k), int(l)) for k, l in zip(ks, ls))

    def same_mask(self, other: "OmegaMask") -> bool:
        return self.d == other.d and bool(np.array_equal(self.mask, other.mask))

    def full_rows(self) -> tuple[int, ...]:
        return tuple(int(k) for k in range(self.d) if self.mask[k].all())


@dataclass(frozen=True)
class DifferenceSet:
    """All pairwise support differences; mod d when a modulus is set, else on Z."""

    modulus: int | None
    members: frozenset[int]

    @property
    def covers_all(self) -> bool:
        return self.modulus is not None and len(self.members) == self.modulus

    def __contains__(self, k: int) -> bool:
        if self.modulus is not None:
            return int(k) % self.modulus in self.members
        return int(k) in self.members


@dataclass(frozen=True)
class WindowReport:
    window: CyclicSignal
    support: tuple[int, ...]
    canonical_shift: int
    short_L: int | None
    omega: OmegaMask
    dg: DifferenceSet
    is_generic_short: bool
    is_full: bool
    real_valued: bool


def omega_mask(g: CyclicSignal, tau_rel: float = DEFAULT_TAU_REL) -> OmegaMask:
    """Boolean mask of the window's ambiguity table, built from its rows k <= d/2.

    An entry is kept when its magnitude exceeds ``tau_rel`` times the table's
    peak magnitude (the peak sits at (0, 0) and equals the window energy).
    |V(-k,-l)| = |V(k,l)| exactly, so mask row d-k is row k at -l; rows 0 and
    d/2 are their own mirrors and are folded onto themselves, so roundoff can
    never split a boundary entry across the conjugate symmetry.
    """
    if not (0.0 < tau_rel < 1.0):
        raise StftprError(f"tau_rel must lie in (0, 1), got {tau_rel}")
    d = g.d
    # rows off the support's difference set are exactly zero and stay false
    rows, amb = stft_rows(g, g, half=True)
    mags = np.abs(amb)
    peak = float(mags.max(initial=0.0))
    if peak == 0.0:
        raise EmptySupport("cannot certify the zero window")
    threshold = tau_rel * peak
    kept = mags > threshold
    mask = np.zeros((d, d), dtype=bool)
    mask[rows] = kept
    mask[(d - rows) % d] |= kept[:, (-np.arange(d)) % d]
    amb.setflags(write=False)
    rule = f"|V| > {tau_rel:g} * max|V| (max|V| = {peak:.6g})"
    return OmegaMask(d, mask, threshold, rule, (rows, amb))


def omega_L_d(d: int, L: int) -> OmegaMask:
    """Band mask that is true exactly on shift rows 0..L and d-L..d-1."""
    if not (0 <= L < d / 2):
        raise StftprError(f"need 0 <= L < d/2, got L={L}, d={d}")
    mask = np.zeros((d, d), dtype=bool)
    mask[: L + 1, :] = True
    if L > 0:
        mask[d - L :, :] = True
    rule = f"structural band: rows 0..{L} and {d - L}..{d - 1}"
    return OmegaMask(d, mask, DEFAULT_TAU_REL, rule)


def difference_set(support, d: int | None = None) -> DifferenceSet:
    """Pairwise differences of a support set, reduced mod d when given."""
    supp = sorted({int(j) for j in support})
    if not supp:
        raise EmptySupport("difference set of an empty support")
    if d is None:
        return DifferenceSet(None, frozenset(a - b for a in supp for b in supp))
    # k is a difference exactly when the support indicator meets its own k-shift
    indicator = np.zeros(d, dtype=bool)
    indicator[np.array(supp) % d] = True
    return DifferenceSet(d, frozenset(meeting_shifts(indicator).tolist()))


def construct_power_window(d: int, L: int) -> CyclicSignal:
    """Real window with geometrically growing entries on 0..L.

    Its mask equals the full band of width L; for odd d with L = (d-1)/2 the
    band is everything, giving a real-valued window whose mask has no holes.
    """
    if not (0 <= L < d / 2):
        raise StftprError(f"need 0 <= L < d/2, got L={L}, d={d}")
    v = np.zeros(d, dtype=np.complex128)
    exps = np.arange(L + 1, dtype=np.float64)
    if L > 500:
        exps = exps - L  # keep magnitudes representable; mask is scale-invariant
    v[: L + 1] = np.exp2(exps)
    return CyclicSignal(d, v)


def construct_punctured_center_window(d: int) -> CyclicSignal:
    """Even-d window whose mask is false exactly at the center entry (d/2, d/2).

    All magnitudes are |g_j| = 2^j, which keeps every shift row except d/2 away
    from zero; the upper half's phases are arranged so the center row collapses,
    on the frequency parity matching d/2, to a multiple of 1 + e^(-2 pi i l / d),
    whose only unimodular root is l = d/2.  The construction is certified before
    returning.
    """
    if d % 2 != 0 or d < 4:
        raise StftprError(f"need even d >= 4, got {d}")
    if d > 50:
        # with |g_j| = 2^j the rows near d/2 sit at ~2^(-d/2) of the table peak,
        # below the default certification threshold past this point
        raise StftprError(f"punctured-center certificate not representable beyond d = 50 (got {d})")
    h = d // 2
    # balance the center-row products u_j = g_j conj(g_{j+h}): the punctured
    # parity class carries the coefficients of 2^(h-1) (1 + w) sum_i 4^i w^i
    # (sole unimodular root at l = d/2), the other class keeps last-term
    # dominance; |u_j| = 4^j 2^h preserves the off-center row growth
    q = np.exp2(h - 1) * np.exp2(2.0 * np.arange(h - 1))
    p = np.convolve(q, [1.0, 1.0])
    mag_u = np.exp2(2.0 * np.arange(h) + h)
    other = np.sqrt(mag_u**2 - p**2)
    u = p - 1j * other if d % 4 == 0 else other + 1j * p
    v = np.concatenate((np.exp2(np.arange(h)), np.conj(u) / np.exp2(np.arange(h))))
    if d > 48:
        v = v / np.abs(v).max()  # scaled certificate; mask is scale-invariant
    g = CyclicSignal(d, v)
    expected = {(h, h)}
    if set(omega_mask(g).false_entries()) != expected:
        raise StftprError(f"internal: punctured-center certificate failed for d={d}")
    return g


def lstar(d: int) -> int:
    """Distinguished dc-row frequency for the punctured-dc construction.

    Lies strictly between d/4 and 3d/4 and is coprime to d except at d = 6.
    """
    if d < 5:
        raise StftprError(f"need d >= 5, got {d}")
    if d == 6:
        return 2
    if d % 2 == 1:
        return (d - 1) // 2
    if d % 4 == 0:
        return d // 2 - 1
    return d // 2 - 2


def _positive_coeffs(d: int, ls: int) -> np.ndarray:
    # ascending coefficients of (z - w)(z - conj(w)) (z + 2)^(m-2), w = e^(2 pi i ls / d);
    # all real and positive because Re(w) < 0 for d/4 < ls < 3d/4
    m = d // 2
    quad = np.array([1.0, -2.0 * math.cos(2.0 * math.pi * ls / d), 1.0])
    coeffs = np.array([1.0])
    for _ in range(m - 2):
        coeffs = np.convolve(coeffs, np.array([2.0, 1.0]))
    coeffs = np.convolve(coeffs, quad)
    if coeffs.min() <= 0.0:
        raise StftprError("internal: expected strictly positive polynomial coefficients")
    return coeffs


def _excluded_tops(mags: np.ndarray, d: int) -> np.ndarray:
    """Top-entry values t = g_m that zero V(k, l), for every shift 0 < k < d/2 and frequency l.

    V(k, l) = tail(k, l) + t |g_{m-k}| e^(-2 pi i l m / d), where tail(k, l) is the
    transform of the products |g_j| |g_{j-k}|, k <= j < m: one FFT gives every tail.
    """
    m = d // 2
    ks = np.arange(1, (d + 1) // 2)[:, None]
    lag = np.arange(m) - ks
    tails = np.fft.fft(np.where(lag >= 0, mags[:m] * mags[np.maximum(lag, 0)], 0.0), d, axis=1)
    return -np.exp(2j * np.pi * np.arange(d) * m / d) / mags[m - ks] * tails


def construct_punctured_dc_window(d: int, seed: int, tau_rel: float = DEFAULT_TAU_REL) -> CyclicSignal:
    """Window supported on 0..floor(d/2) whose mask misses exactly (0, l*) and (0, -l*).

    The magnitudes are square roots of the positive polynomial coefficients; the
    top entry's phase is drawn from a seeded generator on its circle, rejecting
    the finitely many values that would create extra ambiguity zeros: the four
    axis points and, from one FFT (``_excluded_tops``), the value that zeroes each
    entry off the dc row.  Row 0 of the mask, fft(|g|^2) against the energy,
    depends on no phase: when it vanishes anywhere but +-l* at ``tau_rel`` (from
    d = 36 at the default), no draw can succeed, and a ``StftprError`` names d,
    ``tau_rel`` and those frequencies before any draw.  The final mask is
    certified before returning.
    """
    if d < 5:
        raise StftprError(f"need d >= 5, got {d}")
    if not (0.0 < tau_rel < 1.0):  # the row-0 check below reads the threshold before omega_mask does
        raise StftprError(f"tau_rel must lie in (0, 1), got {tau_rel}")
    ls = lstar(d)
    m = d // 2
    mags = np.sqrt(_positive_coeffs(d, ls))

    base = np.zeros(d, dtype=np.complex128)
    base[: m + 1] = mags
    row0 = np.abs(np.fft.fft(mags**2, d))
    zeros, pair = np.flatnonzero(row0 <= tau_rel * row0.max()).tolist(), [ls, d - ls]
    if zeros != pair:
        raise StftprError(
            f"punctured-dc certificate not representable at d = {d} with tau_rel = {tau_rel:g}: "
            f"row 0 vanishes at l = {zeros}, not only at +-l* = {pair}"
        )

    bad = np.concatenate((mags[m] * np.array([1, -1, 1j, -1j]), _excluded_tops(mags, d).ravel()))
    expected = {(0, l) for l in pair}
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        theta = rng.uniform(0.0, 2.0 * np.pi)
        top = mags[m] * np.exp(1j * theta)
        if np.abs(bad - top).min() <= 1e-6 * mags[m]:
            continue
        v = base.copy()
        v[m] = top
        g = CyclicSignal(d, v)
        if set(omega_mask(g, tau_rel).false_entries()) == expected:
            return g
    raise RejectionLimit(f"no admissible top entry within {MAX_DRAWS} draws (d={d})")


def line_difference_positions(n_terms: int) -> list[int]:
    """Strictly increasing support positions whose pairwise differences are all distinct.

    Built by the greedy doubling recursion: each round appends two points whose
    new differences start at the smallest not-yet-covered positive integer.
    """
    if n_terms < 1:
        raise StftprError("need at least one term")
    a = [0]
    n = 0
    while len(a) < n_terms:
        prefix = a[: 2 * n + 1]
        covered = {x - y for x in prefix for y in prefix}
        b = 0
        while b in covered:
            b += 1
        a.append(2 * a[2 * n] + 2 * b)
        a.append(2 * a[2 * n] + 3 * b)
        n += 1
    return a[:n_terms]


def construct_line_difference_window(n_terms: int, coeffs) -> dict[int, complex]:
    """Sparse line window sum_n c_n * delta at the distinct-difference positions."""
    values = [complex(c) for c in coeffs]
    if len(values) != n_terms:
        raise StftprError(f"expected {n_terms} coefficients, got {len(values)}")
    if any(c == 0 for c in values):
        raise StftprError("coefficients must be nonzero")
    positions = line_difference_positions(n_terms)
    return {p: c for p, c in zip(positions, values)}


@dataclass(frozen=True)
class FeasibilityVerdict:
    d: int
    feasible: bool
    forced_zeros: tuple[tuple[int, int], ...] | None
    witness: CyclicSignal | None


def real_window_feasibility(d: int) -> FeasibilityVerdict:
    """Whether any real-valued window of dimension d can have a hole-free mask.

    For even d every real window's ambiguity vanishes on the entire odd-frequency
    half of the center row, so none exists; for odd d the geometric window with
    L = (d-1)/2 is a real witness with a full mask.
    """
    if d < 2:
        raise StftprError(f"need d >= 2, got {d}")
    if d % 2 == 0:
        zeros = tuple((d // 2, l) for l in range(1, d, 2))
        return FeasibilityVerdict(d, False, zeros, None)
    witness = construct_power_window(d, (d - 1) // 2)
    return FeasibilityVerdict(d, True, None, witness)


def _anchor_index(supp: tuple[int, ...], d: int) -> int:
    """Position in the sorted support of the index after the largest cyclic gap, the first on ties."""
    if not supp:
        raise EmptySupport("cannot anchor the zero window")
    gaps = [(s - p) % d for p, s in zip(supp[-1:] + supp[:-1], supp)]  # a lone index's gap is 0
    return gaps.index(max(gaps))


def classify_window(g: CyclicSignal, tau_rel: float = DEFAULT_TAU_REL) -> WindowReport:
    """Full certification report for a window, computed once per window and threshold.

    The report is memoized on ``g`` itself, keyed by ``float(tau_rel)``: a
    window owns read-only entries, so its certificate never goes stale, and
    the memo lives exactly as long as the window.  It holds the report without
    its window, so it forms no reference cycle, and each call returns it bound
    to the caller's ``g``.  A call that raises stores nothing.
    """
    key = float(tau_rel)
    memo = vars(g).setdefault("_certificates", {})
    if key not in memo:
        memo[key] = replace(_certify(g, key), window=None)
    return replace(memo[key], window=g)


def _certify(g: CyclicSignal, tau_rel: float) -> WindowReport:
    """The certification ``classify_window`` memoizes: support scan, mask, D_g and flags."""
    d, supp = g.d, g.support(tau_rel)
    i = _anchor_index(supp, d)
    shift, span = supp[i], (supp[i - 1] - supp[i]) % d + 1  # the anchored support ends at supp[i-1]
    short_L = span - 1 if span - 1 < d / 2 else None

    mask = omega_mask(g, tau_rel)
    dg = difference_set(supp, d)
    is_full = mask.all_true
    # a short window's differences lie in -L..L and rows off them stay false, so its mask
    # equals the band mask omega_L_d(d, L) exactly when it holds (2L+1) d true entries
    is_generic_short = short_L is not None and int(np.count_nonzero(mask.mask)) == (2 * short_L + 1) * d
    peak = float(np.abs(g.entries).max())
    real_valued = bool(np.abs(g.entries.imag).max() <= tau_rel * peak)
    if is_full and not dg.covers_all:
        raise StftprError("internal: full mask with incomplete difference set")
    return WindowReport(
        window=g,
        support=supp,
        canonical_shift=shift,
        short_L=short_L,
        omega=mask,
        dg=dg,
        is_generic_short=is_generic_short,
        is_full=is_full,
        real_valued=real_valued,
    )
