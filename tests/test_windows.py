import gc
import math
import weakref
from dataclasses import fields

import numpy as np
import pytest

import stftpr.windows as windows
from helpers import forced_zero_window, random_entries, random_short_window, random_signal, random_sparse_window, rng_for
from oracles import dense_omega_mask, dense_stft, loop_anchor_start
from stftpr.errors import EmptySupport, StftprError
from stftpr.linemode import recover_line_block
from stftpr.recovery import STATUS_UNIQUE, VERDICT_RETRIEVABLE, decide_retrievability, recover
from stftpr.spectral import CyclicSignal, ambiguity, embed_line, measure
from stftpr.windows import (
    DEFAULT_TAU_REL,
    WindowReport,
    classify_window,
    construct_line_difference_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
    construct_power_window,
    difference_set,
    line_difference_positions,
    lstar,
    omega_L_d,
    omega_mask,
    real_window_feasibility,
)


def test_omega_mask_delta_row():
    mask = omega_mask(CyclicSignal.delta(4))
    assert mask.full_rows() == (0,)
    assert not mask.mask[1:].any()


def test_omega_mask_rejects_zero_window():
    with pytest.raises(EmptySupport):
        omega_mask(CyclicSignal.zeros(4))


def test_omega_mask_symmetry_under_negation():
    rng = rng_for("mask-sym")
    for d in (4, 7, 10):
        g = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.7] or [0])
        m = omega_mask(g).mask
        for k in range(d):
            for l in range(d):
                assert m[k, l] == m[(-k) % d, (-l) % d]


def _windows_at(d):
    """Every construction that exists at d, and seeded dense, sparse and short windows."""
    rng = rng_for("half-mask", d)
    found = {f"power-L{L}": construct_power_window(d, L) for L in range((d + 1) // 2)}
    if d % 2 == 0 and 4 <= d <= 50:
        found["center"] = construct_punctured_center_window(d)
    if 5 <= d <= 35:
        found["dc"] = construct_punctured_dc_window(d, seed=1)
    for n in range(1, 7):
        positions = line_difference_positions(n)
        if positions[-1] < d:
            v = np.zeros(d, dtype=complex)
            for j, c in construct_line_difference_window(n, np.arange(1, n + 1) * (1 - 0.5j)).items():
                v[j] = c
            found[f"line-{n}"] = CyclicSignal(d, v)
    found["dense"] = random_signal(rng, d)
    taps = rng.choice(d, size=int(rng.integers(1, min(d, 7) + 1)), replace=False)
    found["sparse"] = random_signal(rng, d, support=sorted(taps.tolist()))
    for L in sorted({0, 1, 3, (d - 1) // 2} & set(range((d + 1) // 2))):
        found[f"short-L{L}"] = random_short_window(rng, d, L)
    return found


@pytest.mark.parametrize("d", (2, 3, 4, 5, 16, 17, 256))
def test_half_built_mask_equals_the_dense_fold(d):
    # the mask is built from ambiguity rows k <= d/2 and mirrored; the reference
    # folds the whole dense table, entry (k, l) with (-k, -l)
    windows = _windows_at(d)
    if d == 4:  # every punctured-center window, here where the parametrisation starts
        windows.update({f"center-{c}": construct_punctured_center_window(c) for c in range(4, 51, 2)})
    for name, g in windows.items():
        got = omega_mask(g)
        mask, threshold, rule = dense_omega_mask(g.entries, DEFAULT_TAU_REL)
        assert np.array_equal(got.mask, mask), name
        assert (got.threshold, got.threshold_rule) == (threshold, rule), name
        neg = (-np.arange(g.d)) % g.d
        assert np.array_equal(got.mask, got.mask[np.ix_(neg, neg)]), name
        rows, values = got.ambiguity
        dg = difference_set(g.support(0.0), g.d).members
        half = {k for k in dg if 2 * k <= g.d}  # the rows k <= d/2 of D_g, each among the built rows
        assert rows[0] == 0 and (np.diff(rows) > 0).all() and 2 * rows[-1] <= g.d and half <= set(rows.tolist()), name
        assert np.array_equal(values, dense_stft(g.entries, g.entries)[rows]), name


def test_omega_band_shapes():
    m = omega_L_d(8, 3)
    assert m.full_rows() == (0, 1, 2, 3, 5, 6, 7)
    assert not m.mask[4].any()
    assert omega_L_d(6, 0).full_rows() == (0,)
    assert omega_L_d(5, 2).all_true


def test_omega_band_range_check():
    with pytest.raises(StftprError):
        omega_L_d(8, 4)


def test_difference_set_examples():
    assert difference_set({0}).members == frozenset({0})
    block = difference_set(range(4))
    assert block.members == frozenset(range(-3, 4))
    cyc = difference_set(range(3), d=5)
    assert cyc.members == frozenset({0, 1, 2, 3, 4})
    assert cyc.covers_all


def test_difference_set_negation_closure():
    rng = rng_for("dg")
    for trial in range(50):
        supp = sorted(set(rng.integers(0, 30, size=5).tolist()))
        dg = difference_set(supp)
        assert all(-k in dg.members for k in dg.members)


def test_cyclic_difference_set_matches_pairwise_differences():
    # supports of every density, some moved off 0..d-1 by a multiple of d
    rng = rng_for("dg-cyclic")
    for trial in range(300):
        d = int(rng.integers(1, 200)) if trial < 290 else 1024
        supp = (rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False) + d * rng.integers(-2, 3)).tolist()
        assert difference_set(supp, d=d).members == frozenset((a - b) % d for a in supp for b in supp)


def test_difference_set_full_block_covers_odd_cycle():
    for d in (5, 9, 13):
        L = (d - 1) // 2
        assert difference_set(range(L + 1), d=d).covers_all


def test_power_window_full_band_when_odd_and_maximal():
    assert omega_mask(construct_power_window(7, 3)).all_true
    assert omega_mask(construct_power_window(8, 3)).same_mask(omega_L_d(8, 3))


def test_power_window_small_case_row_nonzero():
    g = construct_power_window(4, 1)
    assert np.allclose(g.entries, [1, 2, 0, 0])
    A = ambiguity(g).values
    assert np.abs(A[1]).min() > 0.1


def test_power_window_range_check():
    with pytest.raises(StftprError):
        construct_power_window(8, 4)


def test_punctured_center_single_hole_even_range():
    for d in range(4, 34, 2):
        g = construct_punctured_center_window(d)
        assert omega_mask(g).false_entries() == ((d // 2, d // 2),)


def test_punctured_center_d8_row_identity():
    # even-l entries of the center row collapse to 2(-1 - e^(-2 pi i l/8)), l not in {0, 4}
    A = ambiguity(construct_punctured_center_window(8)).values
    for l in (2, 6):
        expected = 2 * (-1 - np.exp(-2j * np.pi * l / 8))
        assert abs(A[4, l] - expected) < 1e-9
    assert abs(A[4, 4]) < 1e-9 * np.abs(A).max()


def test_punctured_center_rejects_odd():
    with pytest.raises(StftprError):
        construct_punctured_center_window(7)


def test_punctured_center_certifiable_ceiling():
    g = construct_punctured_center_window(50)
    assert omega_mask(g).false_entries() == ((25, 25),)
    with pytest.raises(StftprError):
        construct_punctured_center_window(52)


def test_lstar_values_and_arithmetic():
    assert lstar(6) == 2
    assert lstar(9) == 4
    assert lstar(12) == 5
    assert lstar(14) == 5
    with pytest.raises(StftprError):
        lstar(4)
    for d in range(5, 1001):
        ls = lstar(d)
        assert d / 4 < ls < 3 * d / 4
        if d != 6:
            assert math.gcd(ls, d) == 1


def test_punctured_dc_hole_pair_range():
    for d in range(5, 25):
        g = construct_punctured_dc_window(d, seed=1000 + d)
        ls = lstar(d)
        assert set(omega_mask(g).false_entries()) == {(0, ls), (0, (d - ls) % d)}
        supp = g.support()
        assert max(supp) <= d // 2 and min(supp) == 0 and len(supp) == d // 2 + 1


def test_punctured_dc_polynomial_coefficients_positive():
    from stftpr.windows import _positive_coeffs

    for d in range(5, 17):
        coeffs = _positive_coeffs(d, lstar(d))
        assert coeffs.min() > 0
        # expansion check against direct polynomial multiplication
        ls = lstar(d)
        poly = np.array([1.0 + 0.0j])
        for root in (np.exp(-2j * np.pi * ls / d), np.exp(2j * np.pi * ls / d)):
            poly = np.convolve(poly, np.array([-root, 1.0]))
        for _ in range(d // 2 - 2):
            poly = np.convolve(poly, np.array([2.0, 1.0]))
        assert np.abs(poly.imag).max() < 1e-12
        assert np.abs(poly.real - coeffs).max() < 1e-9 * coeffs.max()


def test_punctured_dc_is_seed_deterministic():
    a = construct_punctured_dc_window(9, seed=5)
    b = construct_punctured_dc_window(9, seed=5)
    assert np.array_equal(a.entries, b.entries)


def _excluded_tops_loop(mags, d):
    """Reference for ``windows._excluded_tops``: one transform sum per shift k and frequency l."""
    m = d // 2
    j_idx = np.arange(d)
    rows = []
    for k in range(1, (d + 1) // 2):
        row = []
        for l in range(d):
            phases = np.exp(-2j * np.pi * j_idx[k:m] * l / d)
            tail = np.sum(mags[k:m] * mags[: m - k] * phases)
            row.append(-np.exp(2j * np.pi * l * m / d) / mags[m - k] * tail)
        rows.append(row)
    return np.array(rows, dtype=np.complex128)


def test_excluded_tops_match_the_loop_to_roundoff():
    for d in range(5, 61):
        m = d // 2
        mags = np.sqrt(windows._positive_coeffs(d, lstar(d)))
        fast, ref = windows._excluded_tops(mags, d), _excluded_tops_loop(mags, d)
        assert fast.shape == ref.shape == ((d + 1) // 2 - 1, d)
        for k in range(1, (d + 1) // 2):
            scale = np.sum(mags[k:m] * mags[: m - k]) / mags[m - k]
            assert np.abs(fast[k - 1] - ref[k - 1]).max() <= 1e-12 * scale, (d, k)


class _FirstDraw:
    """Stand-in generator: its first uniform draw is ``first`` (unless None), then ``rng``'s."""

    def __init__(self, first, rng):
        self.pending, self.rng = [] if first is None else [first], rng

    def uniform(self, lo, hi):
        return self.pending.pop() if self.pending else self.rng.uniform(lo, hi)


def test_punctured_dc_windows_keep_their_bytes_against_the_loop(monkeypatch):
    cases = [(d, seed, None) for d in range(5, 36) for seed in range(10)]
    # the table decides a draw only within 1e-6 |g_m| of the top entry's circle; at d = 5 the
    # excluded tops of row k = 1 lie on it, so a first draw 5e-7 rad past each must be refused
    mags5 = np.sqrt(windows._positive_coeffs(5, lstar(5)))
    near = [float(np.angle(s)) + 5e-7 for s in _excluded_tops_loop(mags5, 5)[0]]
    cases += [(5, seed, first) for seed, first in enumerate(near)]
    default_rng = np.random.default_rng

    def build(d, seed, first):
        monkeypatch.setattr(np.random, "default_rng", lambda s: _FirstDraw(first, default_rng(s)))
        return construct_punctured_dc_window(d, seed).entries

    built = [build(*case) for case in cases]
    for entries, first in zip(built[-len(near) :], near):
        assert abs(entries[2] - np.exp(1j * first)) > 1e-3  # |g_2| = 1 at d = 5
    monkeypatch.setattr(windows, "_excluded_tops", _excluded_tops_loop)
    for case, entries in zip(cases, built):
        assert build(*case).tobytes() == entries.tobytes(), case


def test_punctured_dc_refuses_an_unrepresentable_row0_before_drawing(monkeypatch):
    calls = []
    certify = windows.omega_mask
    monkeypatch.setattr(windows, "omega_mask", lambda g, tau_rel=DEFAULT_TAU_REL: calls.append(g.d) or certify(g, tau_rel))
    # row 0 is fft(|g|^2) against the energy, whatever the top entry's phase: at d = 36 it
    # also vanishes at l = 18, between l* = 17 and d - l* = 19
    with pytest.raises(StftprError, match=r"d = 36 with tau_rel = 1e-09: row 0 vanishes at l = \[17, 18, 19\]"):
        construct_punctured_dc_window(36, seed=1)
    with pytest.raises(StftprError, match=r"tau_rel must lie in \(0, 1\)"):
        construct_punctured_dc_window(9, seed=1, tau_rel=1.0)
    assert calls == []
    for d, tau_rel in ((36, 1e-11), (40, 1e-11), (50, 1e-13)):
        g = construct_punctured_dc_window(d, seed=1, tau_rel=tau_rel)
        assert set(omega_mask(g, tau_rel).false_entries()) == {(0, lstar(d)), (0, d - lstar(d))}


def test_line_difference_positions_prefix():
    assert line_difference_positions(9) == [0, 2, 3, 14, 18, 46, 51, 114, 120]


def test_line_difference_uniqueness_over_prefix():
    pos = line_difference_positions(8)
    seen = {}
    for m in pos:
        for l in pos:
            k = m - l
            if k > 0:
                assert k not in seen, f"difference {k} repeats"
                seen[k] = (m, l)
    # the first 8 positions cover 1..5 contiguously; 6 arrives with the 9th
    run = 0
    while run + 1 in seen:
        run += 1
    assert run == 5


def test_line_difference_window_rejects_zero_coefficient():
    with pytest.raises(StftprError):
        construct_line_difference_window(3, [1.0, 0.0, 2.0])


def test_real_window_feasibility():
    even = real_window_feasibility(6)
    assert not even.feasible
    assert even.forced_zeros == ((3, 1), (3, 3), (3, 5))
    rng = rng_for("real-zero")
    g = CyclicSignal(6, rng.uniform(0.5, 1.5, 6).astype(complex))
    A = ambiguity(g).values
    for l in (1, 3, 5):
        assert abs(A[3, l]) < 1e-9 * np.abs(A).max()

    odd = real_window_feasibility(7)
    assert odd.feasible
    assert omega_mask(odd.witness).all_true
    assert not real_window_feasibility(2).feasible


def test_generic_fraction_of_random_short_windows():
    # deviations are possible on a measure-zero set; log-only, never asserted zero
    for d, L in ((8, 3), (11, 4), (16, 7)):
        band = omega_L_d(d, L)
        hits = 0
        for trial in range(200):
            rng = rng_for("generic", d, L, trial)
            if omega_mask(random_short_window(rng, d, L)).same_mask(band):
                hits += 1
        assert hits >= 199, f"(d={d}, L={L}): only {hits}/200 generic"


def _report_windows():
    """Short, box, straddling, forced-zero, power, dense, punctured and sparse windows, each at a random rotation."""
    straddle = np.sqrt(np.convolve(np.convolve([1.0, 2.0, 1.0], [1.0, 4.0, 1.0]), [1.0, 4.0, 1.0]))
    for d in (8, 11, 16, 31, 64):
        rng = rng_for("generic-short-check", d)
        drawn = [random_short_window(rng, d, L) for L in range(1, (d + 1) // 2)]
        drawn += [CyclicSignal(d, np.r_[np.ones(L + 1), np.zeros(d - L - 1)]) for L in (1, 3, (d - 1) // 2)]
        drawn += [forced_zero_window(rng, d, L) for L in (3, (d - 1) // 2)]
        drawn += [construct_power_window(d, L) for L in (1, (d - 1) // 2)] + [random_signal(rng, d)]
        drawn += [random_sparse_window(rng, d) for _ in range(4 if d >= 16 else 0)]
        if straddle.size <= d / 2:
            drawn.append(CyclicSignal(d, np.r_[straddle, np.zeros(d - straddle.size)]))
        if d in (8, 16):
            drawn.append(construct_punctured_center_window(d))
        if d in (11, 31):
            drawn.append(construct_punctured_dc_window(d, seed=d))
        for g in drawn:
            yield g.shifted(int(rng.integers(d)))


def test_generic_short_check_equals_the_band_mask_comparison():
    verdicts = []
    for g in _report_windows():
        rep = classify_window(g)
        expected = rep.short_L is not None and rep.omega.same_mask(omega_L_d(g.d, rep.short_L))
        assert rep.is_generic_short is expected
        verdicts.append(expected)
    assert any(verdicts) and not all(verdicts)


def test_canonical_anchor_rotates_support_to_zero():
    rng = rng_for("anchor")
    g = random_signal(rng, 10, support=[4, 5, 6])
    shift = classify_window(g).canonical_shift
    anchored = CyclicSignal(10, np.roll(g.entries, -shift))
    assert shift == 4
    assert anchored.support() == (0, 1, 2)
    assert np.allclose(anchored.shifted(shift).entries, g.entries)


def test_classify_window_report_fields():
    rng = rng_for("classify")
    g = random_signal(rng, 10, support=[4, 5, 6])
    rep = classify_window(g)
    assert rep.short_L == 2 and rep.canonical_shift == 4
    assert rep.is_generic_short == rep.omega.same_mask(omega_L_d(10, 2))
    full = classify_window(construct_power_window(7, 3))
    assert full.is_full and full.dg.covers_all
    assert full.real_valued


def test_one_support_scan_anchors_as_the_gap_loop_does():
    # every support of Z_d: the shift, the anchored support's span and the support tuple
    for d in range(2, 10):
        for bits in range(1, 2**d):
            v = ((bits >> np.arange(d)) & 1) * (1.0 + np.arange(d))
            g = CyclicSignal(d, v)
            supp = tuple(int(j) for j in np.nonzero(v)[0])
            shift = loop_anchor_start(supp, d)
            report = classify_window(g)
            anchored = CyclicSignal(d, np.roll(g.entries, -report.canonical_shift))
            assert anchored.support() == tuple(sorted((j - shift) % d for j in supp))
            span = max((j - shift) % d for j in supp) + 1
            assert report.support == supp and report.canonical_shift == shift
            assert report.short_L == (span - 1 if 2 * (span - 1) < d else None), (d, supp)


def _memo_windows():
    """One window of each certified class: power, punctured center and dc, box, straddling box, dense, line."""
    rng = rng_for("certificate-memo")
    box = np.r_[np.ones(4), np.zeros(28)]
    yield "power", construct_power_window(64, 3)
    yield "center", construct_punctured_center_window(16)
    yield "dc", construct_punctured_dc_window(15, seed=1)
    yield "box", CyclicSignal(32, box)
    yield "straddle", CyclicSignal(32, np.roll(box, -2))
    yield "dense", random_signal(rng, 17)
    f_map = {j: complex(z) for j, z in zip((0, 1, 3), random_entries(rng, 3))}
    yield "line", embed_line(f_map, {j: complex(z) for j, z in enumerate(random_entries(rng, 3))})[1]


def _assert_same_certificate(got, fresh):
    for field in fields(WindowReport):
        if field.name not in ("window", "omega"):
            assert getattr(got, field.name) == getattr(fresh, field.name), field.name
    assert (got.omega.d, got.omega.threshold, got.omega.threshold_rule) == (fresh.omega.d, fresh.omega.threshold, fresh.omega.threshold_rule)
    assert got.omega.mask.tobytes() == fresh.omega.mask.tobytes()
    for a, b in zip(got.omega.ambiguity, fresh.omega.ambiguity):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", _memo_windows(), ids=lambda case: case[0])
def test_a_memoized_certificate_equals_a_fresh_one(case):
    name, g = case
    first = classify_window(g)
    memoized = classify_window(g)
    assert memoized.omega is first.omega and memoized.window is g
    fresh = classify_window(CyclicSignal(g.d, g.entries.copy(), g.origin_offset))
    assert fresh.omega is not first.omega
    _assert_same_certificate(memoized, fresh)
    assert memoized.is_full if name == "dense" else not memoized.is_full


def test_each_threshold_keeps_its_own_certificate():
    g = CyclicSignal(8, [1.0, 1e-6, 1.0, 0, 0, 0, 0, 0])
    fine, coarse = classify_window(g, 1e-9), classify_window(g, 1e-3)
    assert (fine.support, coarse.support) == ((0, 1, 2), (0, 2))
    assert classify_window(g, 1e-9).omega is fine.omega and classify_window(g, 1e-3).omega is coarse.omega
    assert classify_window(g, np.float64(1e-3)).omega is coarse.omega


def test_a_certificate_is_never_memoized_from_an_error():
    zero = CyclicSignal.zeros(8)
    for _ in range(2):
        with pytest.raises(EmptySupport):
            classify_window(zero)
    g = construct_power_window(8, 2)
    for _ in range(2):
        with pytest.raises(StftprError, match="tau_rel"):
            classify_window(g, 0.0)
        with pytest.raises(EmptySupport):
            classify_window(g, 1.5)
    assert classify_window(g).short_L == 2


def test_a_certified_window_dies_with_its_last_reference():
    # the memo holds its report without the window, so no cycle waits for the collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = construct_power_window(64, 3)
        report = classify_window(g)
        assert classify_window(g).omega is report.omega
        alive = weakref.ref(g)
        del g, report
        assert alive() is None
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def mask_builds(monkeypatch):
    """Windows passed to the ``omega_mask`` that ``classify_window`` looks up, one entry a build."""
    built, build = [], windows.omega_mask

    def counting(g, tau_rel=DEFAULT_TAU_REL):
        built.append(g)
        return build(g, tau_rel)

    monkeypatch.setattr(windows, "omega_mask", counting)
    return built


def test_recover_then_decide_certifies_the_window_once(mask_builds):
    rng = rng_for("certify-once", "pair")
    g = random_short_window(rng, 32, 3)
    X = measure(random_signal(rng, 32), g)
    assert recover(X, g).status == STATUS_UNIQUE
    assert decide_retrievability(X, classify_window(g)).verdict == VERDICT_RETRIEVABLE
    assert len(mask_builds) == 1 and mask_builds[0] is g


def test_signals_sharing_a_window_certify_it_once(mask_builds):
    rng = rng_for("certify-once", "shared")
    g = construct_power_window(24, 5)
    for _ in range(5):
        X = measure(random_signal(rng, 24), g)
        recover(X, g)
        decide_retrievability(X, classify_window(g))
    assert len(mask_builds) == 1 and mask_builds[0] is g


def test_a_line_block_and_its_decision_certify_the_window_once(mask_builds):
    rng = rng_for("certify-once", "line")
    f_map = {j: complex(z) for j, z in zip((0, 1, 3, 5), random_entries(rng, 4))}
    f_emb, g_emb, _ = embed_line(f_map, {j: complex(z) for j, z in enumerate(random_entries(rng, 3))})
    X = measure(f_emb, g_emb)
    assert recover_line_block(X, g_emb, 2).status == STATUS_UNIQUE
    decide_retrievability(X, classify_window(g_emb))
    assert len(mask_builds) == 1 and mask_builds[0] is g_emb
