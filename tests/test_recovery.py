import warnings

import numpy as np
import pytest

from helpers import (
    forced_zero_window,
    isolated_zeros_signal,
    random_entries,
    random_short_window,
    random_signal,
    random_sparse_window,
    rng_for,
    row0_zero_window,
)
from oracles import (
    dense_relation_miss,
    loop_banded_equation_residual,
    loop_hole_classifier,
    loop_propagate_phases,
    naive_autocorrelation,
    union_find_components,
)
from stftpr import serialize, windows
from stftpr.connectivity import components_mod_d
from stftpr.errors import (
    AnchorInvalid,
    EmptySupport,
    NonGenericWindow,
    PreconditionViolated,
    StftprError,
    WindowClassError,
)
from stftpr.linemode import recover_line_block
from stftpr.recovery import (
    MODES,
    STATUS_INCONSISTENT,
    STATUS_PER_COMPONENT,
    STATUS_UNDECIDABLE,
    STATUS_UNIQUE,
    VERDICT_NOT_RETRIEVABLE,
    VERDICT_RETRIEVABLE,
    VERDICT_UNDECIDABLE,
    CorrelationData,
    compare_up_to_phase,
    decide_retrievability,
    hole_classifier,
    hole_zero_set,
    is_inconsistent,
    measurement_coeffs,
    propagate_phases,
    recover,
)
from stftpr.recovery import _complete_row, _divide_full_rows, _relation_miss, _row0_from_energy
from stftpr.spectral import CyclicSignal, SpectrogramMeasurement, embed_line, measure, relation_transform, stft_rows
from stftpr.windows import (
    classify_window,
    construct_power_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
    omega_L_d,
    omega_mask,
)


def box_window(d, L):
    v = np.zeros(d, dtype=np.complex128)
    v[: L + 1] = 1.0
    return CyclicSignal(d, v)


# ---------------------------------------------------------------- coefficients


def test_measurement_coeffs_zero_signal():
    g = box_window(8, 3)
    mc = measurement_coeffs(measure(CyclicSignal.zeros(8), g), 3)
    assert mc.shape == (4, 8) and np.abs(mc).max() == 0.0


def test_measurement_coeffs_linear_identity():
    # b[k][j] = sum_m conj(g_m conj(g_(m-k))) a[k][m+j] for synthesized measurements
    rng = rng_for("lincomb")
    for d, L in ((8, 3), (12, 4), (9, 2)):
        g = random_short_window(rng, d, L)
        f = random_signal(rng, d)
        mc = measurement_coeffs(measure(f, g), L)
        scale = float(np.abs(mc).max())
        for k in range(L + 1):
            a_k = naive_autocorrelation(f.entries, k)
            c_k = naive_autocorrelation(g.entries, k)  # c_k[m] = g_m conj(g_(m-k))
            for j in range(d):
                expected = sum(np.conj(c_k[m]) * a_k[(m + j) % d] for m in range(k, L + 1))
                assert abs(mc[k, j] - expected) < 1e-9 * scale


def test_measurement_coeffs_hole_marker():
    rng = rng_for("marker")
    d, L = 10, 3
    g = random_short_window(rng, d, L)
    f = random_signal(rng, d, support=[0, 1, 9])  # zeros on 2..5 and beyond
    mc = measurement_coeffs(measure(f, g), L)
    assert abs(mc[0, 2]) < 1e-9 * np.abs(mc[0]).max()


# ------------------------------------------------------- autocorrelation rows


def _with_mirrors(corr):
    """Every row the divided rows k <= d/2 determine: row d-k is a_{d-k}[j] = conj(a_k[j+k])."""
    rows = dict(corr.a)
    for k, row in corr.a.items():
        rows.setdefault((corr.d - k) % corr.d, np.conj(np.roll(row, -k)))
    return rows


def _assert_rows_match(corr, f, whole):
    """The divided rows are the whole rows k <= d/2, and with their mirrors every whole row is f's."""
    d = corr.d
    assert corr.shifts.tolist() == [k for k in whole if 2 * k <= d]
    rows = _with_mirrors(corr)
    assert sorted(rows) == list(whole)
    for k, row in rows.items():
        assert np.abs(row - naive_autocorrelation(f.entries, k)).max() < 1e-9, k


def test_recover_autocorrelations_full_window():
    rng = rng_for("full-rows")
    d = 9
    g = random_signal(rng, d)
    mask = omega_mask(g)
    assert mask.all_true
    f = random_signal(rng, d)
    _assert_rows_match(_divide_full_rows(measure(f, g), mask)[0], f, range(d))


def test_recover_autocorrelations_generic_band():
    rng = rng_for("band-rows")
    d, L = 10, 3
    g = random_short_window(rng, d, L)
    assert omega_mask(g).same_mask(omega_L_d(d, L))
    f = random_signal(rng, d)
    _assert_rows_match(_divide_full_rows(measure(f, g), omega_mask(g))[0], f, (0, 1, 2, 3, 7, 8, 9))


def test_recover_autocorrelations_skips_center_row():
    d = 8
    g = construct_punctured_center_window(d)
    rng = rng_for("center-rows")
    f = random_signal(rng, d)
    _assert_rows_match(_divide_full_rows(measure(f, g), omega_mask(g))[0], f, [k for k in range(d) if k != 4])


def _hermitian_residual(corr):
    """Max violation of a[d-k][j] = conj(a[k][j+k]) over shift pairs both known."""
    pairs = [(k, (corr.d - k) % corr.d) for k in corr.a if (corr.d - k) % corr.d in corr.a]
    return max(float(np.abs(corr.a[m] - np.conj(np.roll(corr.a[k], -k))).max()) for k, m in pairs)


def test_correlation_hermitian_pairing():
    rng = rng_for("hermitian")
    for d in (6, 9, 13):
        f = random_signal(rng, d)
        corr = CorrelationData.from_dict(d, {k: naive_autocorrelation(f.entries, k) for k in range(d)})
        assert _hermitian_residual(corr) < 1e-12
        # rows k <= d/2 extracted from a self-consistent measurement determine the rest by the pairing
        g = random_signal(rng, d)
        _assert_rows_match(_divide_full_rows(measure(f, g), omega_mask(g))[0], f, range(d))


# ------------------------------------------------------------- phase assembly


def test_propagate_phases_delta():
    d = 4
    f = CyclicSignal.delta(d)
    corr = CorrelationData.from_dict(d, {k: naive_autocorrelation(f.entries, k) for k in range(d)})
    part = components_mod_d(f.support(), d, 1)
    assert part.n_components == 1
    assert compare_up_to_phase(f, propagate_phases(corr, part))[1] < 1e-12


def test_propagate_phases_two_components():
    rng = rng_for("two-comp")
    d, L = 8, 3
    f = random_signal(rng, d, support=[0, 4])
    shifts = list(range(L + 1)) + [d - k for k in range(1, L + 1)]
    corr = CorrelationData.from_dict(d, {k: naive_autocorrelation(f.entries, k) for k in shifts})
    part = components_mod_d(f.support(), d, L)
    estimate = propagate_phases(corr, part)
    assert part.n_components == 2
    for comp in part.components:
        proj = np.zeros(d, dtype=complex)
        proj[list(comp)] = f.entries[list(comp)]
        est = np.zeros(d, dtype=complex)
        est[list(comp)] = estimate.entries[list(comp)]
        assert compare_up_to_phase(CyclicSignal(d, proj), CyclicSignal(d, est))[1] < 1e-10


def test_propagate_phases_connected_random():
    rng = rng_for("prop-random")
    d, L = 16, 5
    g = random_short_window(rng, d, L)
    assert omega_mask(g).same_mask(omega_L_d(d, L))
    f = random_signal(rng, d)
    out = recover(measure(f, g), g, mode="known", L=L)
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-8


def _with_relation_bump(X, bump):
    """X plus the measurement whose relation rows are ``bump`` at rows k <= d/2 and their mirrors
    R[-k, -l] = conj(R[k, l]), scaled to half of X's smallest entry so that X stays nonnegative;
    returns it with the scale."""
    d = X.d
    full = np.zeros((d, d), dtype=np.complex128)
    for k, row in bump.items():
        full[k] += row
        full[-k % d] += np.conj(row[-np.arange(d) % d])
    dX = np.fft.fft(np.fft.ifft(full.T, axis=0), axis=1).real  # the inverse of relation_transform
    scale = 0.5 * X.sq_mag.min() / np.abs(dX).max()
    return SpectrogramMeasurement(d, X.sq_mag + scale * dX), scale


def test_known_route_flags_a_twisted_relation_row():
    # relation row 1 turned by a constant phase: no signal's cycles agree with it and with row 2
    rng = rng_for("contradict")
    d = 5
    g = random_signal(rng, d)
    X = measure(random_signal(rng, d), g)
    R1 = relation_transform(X, [1])[0]
    bad, scale = _with_relation_bump(X, {1: R1 * (np.exp(0.2j) - 1)})
    assert recover(X, g).status == STATUS_UNIQUE
    out = recover(bad, g)
    assert out.notes["route"] == "full" and out.status == STATUS_INCONSISTENT, (scale, out.residual)


@pytest.mark.parametrize("case", range(12))
def test_propagate_phases_matches_loop_walk_exactly(case):
    rng = rng_for("walk-vs-loop", case)
    d = int(rng.integers(12, 40))
    all_shifts = case % 3 == 0
    L = int(rng.integers(1, 4))  # short bands make the walk run several levels
    shifts = range(d) if all_shifts else sorted({*range(L + 1), *(d - k for k in range(1, L + 1))})
    f = random_signal(rng, d, support=np.flatnonzero(rng.uniform(size=d) < 0.8))
    rows = {k: naive_autocorrelation(f.entries, k) for k in shifts}
    if case % 2:  # phase noise on every nonzero shift: each edge implies its own phase
        rows = {k: row * np.exp(1j * rng.normal(scale=0.1 if k else 0.0, size=d)) for k, row in rows.items()}
    corr = CorrelationData.from_dict(d, rows)
    part = components_mod_d(f.support(), d, shifts if all_shifts else L)
    est = loop_propagate_phases(corr.a, d, part.components, part.universe)
    assert np.array_equal(propagate_phases(corr, part).entries, est)


@pytest.mark.parametrize("L", (3, 7))
@pytest.mark.parametrize("n_components", (1, 2))
def test_propagate_phases_matches_loop_walk_exactly_on_deep_bands(L, n_components):
    # at d = 1024 a band walks about d / (2L) levels; phase noise on every nonzero row
    # makes each edge imply its own phase, so any other tree or order of wrapping shows
    rng = rng_for("walk-vs-loop-deep", L, n_components)
    d = 1024
    keep = rng.uniform(size=d) < 0.8
    keep[::L] = True  # no run of L zeros: the support is one band component
    if n_components == 2:
        keep[100 : 101 + L] = keep[600 : 601 + L] = False  # two runs of L+1 zeros cut it in two
    f = random_signal(rng, d, support=np.flatnonzero(keep))
    shifts = sorted({*range(L + 1), *(d - k for k in range(1, L + 1))})
    noise = {k: np.exp(1j * rng.normal(scale=0.1 if k else 0.0, size=d)) for k in shifts}
    corr = CorrelationData.from_dict(d, {k: naive_autocorrelation(f.entries, k) * noise[k] for k in shifts})
    part = components_mod_d(f.support(), d, L)
    assert part.n_components == n_components
    est = loop_propagate_phases(corr.a, d, part.components, part.universe)
    assert np.array_equal(propagate_phases(corr, part).entries, est)


def _walk_row_sets(d):
    """(known shifts, partition steps) of every walk shape: rows 0..L (hole and line routes) and the
    band ±L (known route) for each L < d/2, every shift, and every shift but d/2.  Up to d = 8, rows
    0..L also come with a partition coarser than their band split, and the band with a finer one."""
    for L in range((d + 1) // 2):
        band = sorted({*range(L + 1), *(d - k for k in range(1, L + 1))})
        yield range(L + 1), L
        yield band, L
        if d <= 8:
            yield range(L + 1), range(L + 2)
            yield band, max(L - 1, 0)
    yield range(d), range(d)
    if d % 2 == 0:
        but_center = [k for k in range(d) if k != d // 2]
        yield but_center, but_center


def test_propagate_phases_matches_loop_walk_on_every_small_support():
    # every support of Z_d for 2 <= d <= 10 under every row shape; independent phase noise on
    # each nonzero row makes every edge imply its own phase, so any other tree shows
    rng = rng_for("walk-vs-loop-exhaustive")
    for d in range(2, 11):
        f = random_signal(rng, d).entries
        for bits in range(1, 2**d):
            v = np.where((bits >> np.arange(d)) & 1 == 1, f, 0.0)
            for shifts, steps in _walk_row_sets(d):
                noise = np.exp(1j * rng.normal(scale=0.1, size=(d, d)))
                noise[0] = 1.0
                corr = CorrelationData.from_dict(d, {k: v * np.conj(np.roll(v, k)) * noise[k] for k in shifts})
                part = components_mod_d(np.flatnonzero(v), d, steps)
                est = loop_propagate_phases(corr.a, d, part.components, part.universe)
                assert np.array_equal(propagate_phases(corr, part).entries, est), (d, bits, list(shifts))


def test_known_route_flags_a_twisted_edge_the_walk_never_reads():
    # the entry a_5[20] = f_20 conj(f_15) twisted, off the anchor's spanning star: the walk
    # never reads it, so the estimate is f's and only relation row 5 misses
    rng = rng_for("twist-one")
    d, twist = 64, 0.3
    g = random_signal(rng, d)
    f = random_signal(rng, d)
    X = measure(f, g)
    V5 = omega_mask(g).ambiguity[1][5]
    edge = np.zeros(d, dtype=np.complex128)
    edge[20] = f.entries[20] * np.conj(f.entries[15]) * (np.exp(1j * twist) - 1)
    bad, scale = _with_relation_bump(X, {5: np.fft.fft(edge) * np.conj(V5)})
    out = recover(bad, g)
    assert out.notes["route"] == "full" and out.status == STATUS_INCONSISTENT
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-9
    expected = scale * np.abs(edge[20]) * np.abs(V5).max() / (X.sq_mag.sum() / d)
    assert out.residual == pytest.approx(expected, rel=1e-6)


def test_relation_miss_of_a_nan_estimate_is_nan():
    # a NaN in the estimate must not be skipped by the max, so the verdict reads Inconsistent
    rng = rng_for("nan-row")
    d = 8
    g = random_signal(rng, d)
    f = random_signal(rng, d)
    shifts = np.arange(d // 2 + 1)
    R = relation_transform(measure(f, g), shifts)
    V = omega_mask(g).ambiguity[1]
    assert _relation_miss(f.entries, shifts, R, V) < 1e-14
    est = f.entries.copy()
    est[3] = np.nan
    residual = _relation_miss(est, shifts, R, V)
    assert np.isnan(residual) and is_inconsistent(residual, 1.0)


def test_center_route_checks_a_single_point_support():
    # f_4 = 5e-6 falls below the support threshold on row 0 (2.5e-11 of the
    # peak), so the support reads as the one point 3 and the known route
    # completes the center row; row 1 still carries f_4 conj(f_3) = 5e-6
    d = 16
    g = construct_punctured_center_window(d)
    v = np.zeros(d, dtype=np.complex128)
    v[3], v[4] = 1.0, 5e-6
    out = recover(measure(CyclicSignal(d, v), g), g, mode="known")
    assert out.components.components == ((3,),)
    assert out.notes["completed_rows"] == [d // 2]
    # the estimate's row 1 is zero, so relation row 1 misses by 5e-6 |V_gg[1]|, against R[0, 0] = ||f||² ||g||²
    amb = omega_mask(g).ambiguity[1]
    assert out.residual == pytest.approx(5e-6 * np.abs(amb[1]).max() / amb[0, 0].real, rel=1e-6)
    assert out.status == STATUS_INCONSISTENT


def test_propagate_phases_wrapping_component_anchor_is_real():
    rng = rng_for("wrap-anchor")
    d, L = 16, 2
    g = random_short_window(rng, d, L)
    f = random_signal(rng, d, support=[0, 1, d - 2, d - 1])
    out = recover(measure(f, g), g, mode="known", L=L)
    assert out.components.components == ((0, 1, d - 2, d - 1),)
    est0 = out.estimate.entries[0]
    assert est0.imag == 0.0 and est0.real > 0.0
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_all_shifts_partition_closed_form():
    d = 16
    every = components_mod_d({3, 11}, d, range(d))
    assert every.relation == "all-shifts" and every.components == ((3, 11),)
    but_center = set(range(d)) - {d // 2}  # the band of width d/2 - 1
    assert components_mod_d({3, 9}, d, but_center).components == ((3, 9),)
    # antipodal pair {3, 11}: nothing joins it without the d/2 shift
    assert components_mod_d({3, 11}, d, but_center).components == ((3,), (11,))


# ------------------------------------------------------------- generic route


def test_generic_short_connected_example():
    rng = rng_for("gen-ex1")
    d, L = 8, 3
    g = random_short_window(rng, d, L)
    f = random_signal(rng, d, support=[0, 1, 2])
    out = recover(measure(f, g), g, mode="known", L=L)
    assert out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_generic_short_antipodal_pair():
    rng = rng_for("gen-ex2")
    d, L = 8, 3
    g = random_short_window(rng, d, L)
    f = random_signal(rng, d, support=[0, 4])
    out = recover(measure(f, g), g, mode="known", L=L)
    assert out.status == STATUS_PER_COMPONENT and out.free_phases == 2


def test_generic_short_full_band_case():
    rng = rng_for("gen-ex3")
    d, L = 5, 2
    g = random_short_window(rng, d, L)
    for trial in range(10):
        f = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.6] or [0])
        out = recover(measure(f, g), g, mode="known", L=L)
        assert out.status == STATUS_UNIQUE
        assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_generic_short_rejects_nongeneric_window():
    rng = rng_for("gen-reject")
    g = forced_zero_window(rng, 12, 4)
    X = measure(random_signal(rng, 12), g)
    with pytest.raises(NonGenericWindow):
        recover(X, g, mode="known", L=4)


def test_generic_short_handles_shifted_window():
    rng = rng_for("gen-shifted")
    d, L = 10, 3
    g0 = random_short_window(rng, d, L)
    g = g0.shifted(6)
    f = random_signal(rng, d)
    out = recover(measure(f, g), g, mode="known", L=L)
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-8


# ------------------------------------------------------- sparse known route


@pytest.mark.parametrize("d", [32, 256])
def test_sparse_windows_decided_by_support_connectivity(d):
    # 2-7 taps in 0..d/2-1: every mask row in D_g is whole, so f is determined up
    # to one global phase exactly when its support is connected under steps in D_g
    connected = 0
    for trial in range(25):
        rng = rng_for("sparse-known", d, trial)
        g = random_sparse_window(rng, d)
        report = classify_window(g)
        f = random_signal(rng, d, np.flatnonzero(rng.random(d) < rng.uniform(0.02, 0.3)).tolist() or [0])
        X = measure(f, g)
        out, decision = recover(X, g), decide_retrievability(X, report)
        parts = union_find_components(f.support(), d, report.dg)
        assert out.components.components == decision.partition.components == parts
        if len(parts) == 1:
            connected += 1
            assert (out.status, decision.verdict) == (STATUS_UNIQUE, VERDICT_RETRIEVABLE)
            assert compare_up_to_phase(f, out.estimate)[1] < 1e-8
        else:
            assert (out.status, decision.verdict) == (STATUS_PER_COMPONENT, VERDICT_NOT_RETRIEVABLE)
            assert out.free_phases == len(parts)
            flipped = f.entries.copy()
            flipped[list(parts[0])] *= -1  # no step in D_g joins the flipped component to the rest
            gap = np.abs(measure(CyclicSignal(d, flipped), g).sq_mag - X.sq_mag).max()
            assert gap <= 1e-9 * X.sq_mag.max()
    assert 5 <= connected <= 20


# ---------------------------------------------------------------- hole route


def test_hole_classifier_two_spike_signal():
    rng = rng_for("cls1")
    d, L = 8, 3
    g = random_short_window(rng, d, L)
    f = random_signal(rng, d, support=[0, 1])
    anchors = hole_classifier(measurement_coeffs(measure(f, g), L), L)
    assert anchors == [1]


def test_hole_classifier_comb_has_no_anchor():
    d, L = 8, 3
    g = box_window(d, L)
    f = CyclicSignal(d, np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=complex))
    anchors = hole_classifier(measurement_coeffs(measure(f, g), L), L)
    assert anchors == []


def test_hole_classifier_zero_signal():
    d, L = 8, 3
    g = box_window(d, L)
    anchors = hole_classifier(measurement_coeffs(measure(CyclicSignal.zeros(d), g), L), L)
    assert anchors == []


def _band_rows_with_zero_runs(rng):
    """Random band rows 0..L as one (L+1) x d array, zeroed on shared and per-row runs, some entries near the threshold."""
    d = int(rng.integers(5, 41))
    L = int(rng.integers(1, min(d - 1, 9)))
    rows = rng.normal(size=(L + 1, d)) + 1j * rng.normal(size=(L + 1, d))
    for _ in range(int(rng.integers(1, 4))):
        start, length = int(rng.integers(d)), int(rng.integers(1, 3 * L + 2))
        rows[:, (start + np.arange(length)) % d] = 0.0
    for k in range(1, L + 1):
        start, length = int(rng.integers(d)), int(rng.integers(0, L + 1))
        rows[k, (start + np.arange(length)) % d] = 0.0
    scale = np.abs(rows[1:]).max()
    near = rng.random(rows.shape) < 0.05
    rows[near] = scale * 1e-9 * rng.choice([0.5, 1.0, 2.0], size=near.sum())
    return rows


def test_hole_classifier_matches_loop_oracle():
    # small d with L near d includes windows 2k that wrap past the whole circle
    rng = rng_for("hole-classifier-oracle")
    with_anchors = 0
    for _ in range(1200):
        b = _band_rows_with_zero_runs(rng)
        anchors = hole_classifier(b)
        assert anchors == loop_hole_classifier(b, 1e-9)
        with_anchors += bool(anchors)
    assert with_anchors > 200  # the comparison covers the anchor-finding branch, not only empty lists


def test_banded_equation_residual_matches_the_roll_loop():
    # d=256 with a width-121 row (L=120): the completed row meets the banded
    # equation b[j] = sum_i coef[i] a[j+k+i], with b = ifft(R_k), to roundoff
    # at the row's scale when a row vanishing on the block solves it, and
    # misses it by far when none does
    rng = rng_for("banded-residual")
    d, W = 256, 121
    coef = rng.normal(size=W) + 1j * rng.normal(size=W)
    for k in (0, 1, 60, 120):
        taps = np.zeros(d, dtype=np.complex128)
        taps[k : k + W] = coef
        V_k = np.conj(d * np.fft.ifft(taps))  # conj(V_k) multiplies fft(a) into fft(b)
        divides = np.abs(V_k) > 1e-9 * np.abs(coef).sum()
        # a zero block that runs past index d-1 back to 0
        start, length = d - 40, W - 1 + k
        allowed = np.ones(d, dtype=bool)
        allowed[(start + np.arange(length)) % d] = False

        # random data: no row vanishing on the block reproduces it
        b_row = (rng.normal(size=d) + 1j * rng.normal(size=d)) * 10.0 ** rng.integers(-3, 4)
        a = _complete_row(np.fft.fft(b_row), V_k, divides, allowed)
        scale = np.abs(b_row).max()
        assert not a[~allowed].any()
        assert loop_banded_equation_residual(a, b_row, coef, k) > 1e-3 * scale

        # a solved row
        a_true = rng.normal(size=d) + 1j * rng.normal(size=d)
        a_true[~allowed] = 0.0
        b_row = np.fft.ifft(np.fft.fft(a_true) * np.conj(V_k))
        a = _complete_row(np.fft.fft(b_row), V_k, divides, allowed)
        scale = np.abs(b_row).max()
        assert loop_banded_equation_residual(a, b_row, coef, k) <= 1e-10 * scale
        assert np.abs(a - a_true).max() <= 1e-8 * np.abs(a_true).max()


def _assert_zero_set(out, label):
    """The known route answered, with row 0 completed off a zero set of the given source."""
    assert out.notes["route"] == "known" and out.notes["zero_set"] == label, out.notes
    assert out.notes["completed_rows"][0] == 0


def test_recover_with_hole_long_hole():
    # a box window's row 0 vanishes at l = 2, 4, 6; the zeros 4..7 pin it
    rng = rng_for("hole-long")
    d, L = 8, 3
    g = box_window(d, L)
    f = random_signal(rng, d, support=[0, 1, 2, 3])
    out = recover(measure(f, g), g)
    _assert_zero_set(out, "hole-L+1")
    assert out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_recover_with_hole_exact_hole():
    rng = rng_for("hole-exact")
    d, L = 8, 3
    g = box_window(d, L)
    f = random_signal(rng, d, support=[5, 0, 1])
    X = measure(f, g)
    assert 1 in hole_classifier(measurement_coeffs(X, L), L)
    label, zeros = hole_zero_set(measurement_coeffs(X, L))
    assert label == "hole-L" and np.flatnonzero(zeros).tolist() == [2, 3, 4]
    out = recover(X, g)
    _assert_zero_set(out, "hole-L")
    assert out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_recover_with_hole_rejects_comb():
    d, L = 8, 3
    g = box_window(d, L)
    f = CyclicSignal(d, np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=complex))
    X = measure(f, g)
    assert hole_zero_set(measurement_coeffs(X, L)) is None
    with pytest.raises(AnchorInvalid):
        recover(X, g, mode="known")


def test_recover_with_hole_rejects_wrong_class():
    # support {0, 3}: row 0 vanishes at every odd l, and a window not filled on
    # its band has no zero-set reader, so the known route rejects it unread
    rng = rng_for("hole-wrong-class")
    g = CyclicSignal(6, np.array([1, 0, 0, 1, 0, 0], dtype=complex))
    X = measure(random_signal(rng, 6, support=[0, 1]), g)
    with pytest.raises(WindowClassError):
        recover(X, g, mode="known")


def test_recover_with_hole_rejects_bad_anchor():
    rng = rng_for("hole-bad")
    d, L = 8, 3
    g = box_window(d, L)
    f = random_signal(rng, d)  # nonvanishing: no holes at all
    with pytest.raises(AnchorInvalid):
        recover(measure(f, g), g, mode="known")


def test_hole_and_generic_solvers_agree():
    # the same data through the generic route and through row 0 completed off a declared zero set
    rng = rng_for("agree")
    d, L = 12, 4
    g = random_short_window(rng, d, L)
    assert omega_mask(g).same_mask(omega_L_d(d, L))
    f = random_signal(rng, d, support=[0, 1, 2, 3, 4, 5, 6])  # zeros on 7..11
    X = measure(f, g)
    a = recover(X, g, mode="known", L=L)
    b = recover_line_block(X, g, L, f_span_bound=7)
    assert a.notes["route"] == "generic"
    _assert_zero_set(b, "span")
    gamma, err = compare_up_to_phase(a.estimate, b.estimate)
    assert err < 1e-9


def _with_hole(rng, d, hole):
    v = random_signal(rng, d).entries.copy()
    v[(int(rng.integers(d)) + np.arange(hole)) % d] = 0.0
    return CyclicSignal(d, v)


def test_hole_route_straddle_window_at_large_d():
    # |g|^2 are the coefficients of (1+z)^2 (1+4z+z^2)^2: band row 0 loses
    # l = d/2, and the roots -2 +- sqrt(3) lie on both sides of the unit circle,
    # so a recurrence over the row grows without bound in either direction
    d, L = 1024, 6
    head = np.sqrt(np.convolve(np.convolve([1.0, 2.0, 1.0], [1.0, 4.0, 1.0]), [1.0, 4.0, 1.0]))
    g = CyclicSignal(d, np.concatenate([head, np.zeros(d - L - 1)]))
    rng = rng_for("hole-straddle")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for hole, label in ((L + 1, "hole-L+1"), (L, "hole-L")):
            f = _with_hole(rng, d, hole)
            out = recover(measure(f, g), g)
            _assert_zero_set(out, label)
            assert out.status == STATUS_UNIQUE
            assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_hole_route_wide_band_sweep(seed):
    # the random positive windows keep every band row whole, so the generic
    # route answers; box windows with L+1 | d lose up to L frequencies of row 0,
    # which the hole pins
    d = 256
    rng = rng_for("hole-sweep", seed)
    for L in (3, 30, 60, 120):
        g = CyclicSignal(d, np.concatenate([np.abs(rng.standard_normal(L + 1)) + 0.05, np.zeros(d - L - 1)]))
        for hole in (L + 1, L):
            f = _with_hole(rng, d, hole)
            out = recover(measure(f, g), g)
            assert out.notes["route"] == "generic" and out.status == STATUS_UNIQUE, (L, hole, out.status)
            assert compare_up_to_phase(f, out.estimate)[1] < 1e-9, (L, hole)
    for L in (3, 15, 63):
        g = box_window(d, L)
        for hole, label in ((L + 1, "hole-L+1"), (L, "hole-L")):
            f = _with_hole(rng, d, hole)
            out = recover(measure(f, g), g)
            _assert_zero_set(out, label)
            assert out.status == STATUS_UNIQUE, (L, hole, out.status)
            assert compare_up_to_phase(f, out.estimate)[1] < 1e-9, (L, hole)


# ------------------------------------------------------ partial rows, known route


def test_known_route_completes_rows_pinned_by_isolated_zeros():
    # box L=2 at d=64: rows +-1 vanish at l = 32; an isolated zero at j makes
    # a_1 vanish at j and j+1, which pins that one frequency
    rng = rng_for("known-isolated-zeros")
    g = box_window(64, 2)
    report = classify_window(g)
    worst = 0.0
    for trial in range(50):
        f = isolated_zeros_signal(rng, 64, int(rng.integers(1, 4)))
        X = measure(f, g)
        out = recover(X, g)
        assert out.status == STATUS_UNIQUE, (trial, out.notes)
        assert out.notes["route"] == "known" and out.notes["completed_rows"] == [1]  # row 63 is its mirror
        worst = max(worst, compare_up_to_phase(f, out.estimate)[1])
        assert decide_retrievability(X, report).verdict == VERDICT_RETRIEVABLE
    assert worst < 1e-8


def test_known_route_answers_dense_signals_on_forced_zero_windows():
    # the partial rows cannot be completed, but the whole rows still join a dense support
    rng = rng_for("known-forced-zero-dense")
    for trial in range(40):
        g = forced_zero_window(rng, 12, 4)
        f = random_signal(rng, 12)
        X = measure(f, g)
        out = recover(X, g)
        assert out.status == STATUS_UNIQUE and out.notes["route"] == "known", (trial, out.notes)
        assert compare_up_to_phase(f, out.estimate)[1] < 1e-8
        assert decide_retrievability(X, classify_window(g)).verdict == VERDICT_RETRIEVABLE


def test_known_route_checks_the_rows_it_cannot_complete():
    # data that differs from an exact measurement only in a partial row's known
    # frequencies: the walk never reads that row, so only its check flags it
    rng = rng_for("known-unsolved-rows")
    for g in (construct_punctured_center_window(8), forced_zero_window(rng, 12, 4)):
        d = g.d
        X = measure(random_signal(rng, d), g)
        k = next(k for k in range(d) if not omega_mask(g).mask[k].all())
        l = int(np.flatnonzero(omega_mask(g).mask[k])[0])
        bump = np.zeros((d, d), dtype=np.complex128)  # relation rows R[k, l] and R[-k, -l] = conj(R[k, l])
        bump[k, l] += 1.0
        bump[-k % d, -l % d] += 1.0
        dX = np.fft.fft(np.fft.ifft(bump.T, axis=0), axis=1).real  # the inverse of relation_transform
        assert recover(X, g).status == STATUS_UNIQUE
        out = recover(SpectrogramMeasurement(d, X.sq_mag + 0.5 * X.sq_mag.min() / np.abs(dX).max() * dX), g)
        assert out.notes["route"] == "known" and out.status == STATUS_INCONSISTENT, out.notes


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_hole_route_completion_residual_ignores_the_window_scale(scale):
    # the residual is relative to R[0, 0] = ||f||^2 ||g||^2, so the window's scale cancels
    rng = rng_for("hole-scale")
    d, L = 64, 3
    g = CyclicSignal(d, scale * box_window(d, L).entries)
    f = random_signal(rng, d).entries.copy()
    f[10:15] = 0.0
    f = CyclicSignal(d, f)
    out = recover(measure(f, g), g)
    _assert_zero_set(out, "hole-L+1")
    assert out.status == STATUS_UNIQUE
    assert out.residual < 1e-12
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-8


# ----------------------------------------------------------- punctured routes


def test_center_route_examples():
    rng = rng_for("center-ex")
    d = 8
    g = construct_punctured_center_window(d)
    for supp in ([0, 4], [0, 1, 4], [0]):
        f = random_signal(rng, d, support=supp)
        out = recover(measure(f, g), g, mode="known")
        assert out.status == STATUS_UNIQUE
        assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_center_route_two_point_support_is_one_component():
    rng = rng_for("center-two-point")
    d = 16
    g = construct_punctured_center_window(d)
    f = random_signal(rng, d, support=[3, 9])
    out = recover(measure(f, g), g, mode="known")
    assert out.components.components == ((3, 9),) and out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


def test_center_route_rejects_other_windows():
    # the known route, which completes the center row, needs row 0 whole or
    # pinned by a zero set: a box window's vanishes at l = 2, 4, 6, and a
    # dense signal shows no hole; a window not filled on its band has no
    # zero-set reader at all
    rng = rng_for("center-guard")
    g = box_window(8, 3)
    with pytest.raises(AnchorInvalid):
        recover(measure(random_signal(rng, 8), g), g, mode="known")
    g = CyclicSignal(8, np.array([1, 0, 1, 0, 0, 0, 0, 0], dtype=complex))
    with pytest.raises(WindowClassError):
        recover(measure(random_signal(rng, 8), g), g, mode="known")


def test_dc_route_examples():
    rng = rng_for("dc-ex")
    for d, supp in ((7, [0, 2, 5]), (6, None), (9, [3])):
        g = construct_punctured_dc_window(d, seed=50 + d)
        f = random_signal(rng, d, support=supp)
        out = recover(measure(f, g), g, mode="known")
        assert out.status == STATUS_UNIQUE and out.notes["completed_rows"] == [0]
        assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


@pytest.mark.parametrize("d,ls", [(9, 3), (10, 4)])
def test_non_coprime_dc_pair_is_undecidable(monkeypatch, d, ls):
    # l* shares a factor with d: no dc-pair uniqueness theorem applies
    monkeypatch.setattr(windows, "lstar", lambda d: ls)
    g = construct_punctured_dc_window(d, seed=1)
    assert set(omega_mask(g).false_entries()) == {(0, ls), (0, d - ls)}
    X = measure(random_signal(rng_for("dc-non-coprime", d), d), g)
    out = recover(X, g)
    assert out.status == STATUS_UNDECIDABLE and out.estimate is None
    assert out.notes["route"] == "known" and f"l*={ls}" in out.notes["reason"]
    decision = decide_retrievability(X, classify_window(g))
    assert decision.verdict == VERDICT_UNDECIDABLE
    assert decision.notes["route"] == "known" and f"l*={ls}" in decision.notes["reason"]
    with pytest.raises(PreconditionViolated):
        recover(X, g, mode="known")


def test_dc_pair_below_five_is_undecidable():
    # l* = 1 is coprime to d = 4, but the dc-pair theorem needs d >= 5
    rng = rng_for("dc-small-d")
    mags = np.sqrt([1.0, 2.0, 1.0, 2.0])  # |g|^2 has period 2: dc row zero at l = 1, 3 only
    draws = (CyclicSignal(4, mags * np.exp(2j * np.pi * rng.random(4))) for _ in range(100))
    g = next(w for w in draws if set(omega_mask(w).false_entries()) == {(0, 1), (0, 3)})
    X = measure(random_signal(rng, 4), g)
    out = recover(X, g)
    assert out.status == STATUS_UNDECIDABLE and out.estimate is None
    assert out.notes == {"route": "known", "reason": "need d >= 5, got 4"}
    decision = decide_retrievability(X, classify_window(g))
    assert decision.verdict == VERDICT_UNDECIDABLE and decision.notes["reason"] == "need d >= 5, got 4"
    with pytest.raises(PreconditionViolated):
        recover(X, g, mode="known")


def _exact_dc_rows(f: CyclicSignal, g: CyclicSignal):
    """Every row a_k, k != 0, of f, and row 0's relation row R_0 = fft(a_0) * conj(V_0) with V_0."""
    d = f.d
    a = np.array([f.entries * np.conj(np.roll(f.entries, k)) for k in range(d)])
    rows, amb = stft_rows(g, g)
    V_0 = amb[np.searchsorted(rows, 0)]
    return a[1:], np.fft.fft(a[0]) * np.conj(V_0), V_0


@pytest.mark.parametrize("d", [5, 6, 7, 31])
def test_row0_from_energy_returns_the_true_row(d):
    g = construct_punctured_dc_window(d, seed=1)
    divides = omega_mask(g).mask[0]
    rng = rng_for("row0-energy", d)
    dominant = random_signal(rng, d).entries.copy()
    dominant[d // 2] *= 3.0 * np.sqrt(d)  # |f_j|^2 above E/2: the large root
    halves = np.zeros(d, dtype=complex)
    halves[[1, d - 2]] = [2.0, -2.0j]  # two equal entries of E/2 each
    signals = {"dominant": dominant, "halves": halves, "dense": random_signal(rng, d).entries}
    signals.update({f"spike-{j}": CyclicSignal.delta(d, j).entries for j in range(d)})
    for name, v in signals.items():
        f = CyclicSignal(d, v)
        others, R_0, V_0 = _exact_dc_rows(f, g)
        a0 = _row0_from_energy(others, R_0, V_0, divides)
        truth = np.abs(v) ** 2
        assert np.abs(a0 - truth).max() <= 1e-12 * truth.max(), (name, a0, truth)
        miss = np.abs(np.fft.fft(a0) * np.conj(V_0) - R_0).max()  # its relation row's miss, against R[0, 0]
        assert miss <= 1e-12 * truth.sum() * g.norm() ** 2, (name, miss)


@pytest.mark.parametrize("d", [21, 27, 31, 35])
def test_punctured_dc_windows_survive_the_csv_round_trip(d):
    # ROADMAP 4d: the CLI's 12-digit CSV round trip must not make exact dc data Inconsistent
    g = construct_punctured_dc_window(d, 1)
    report = classify_window(g)
    rng = rng_for("dc-csv12", d)
    sizes = {"dense": d, "two-point": 2, "three-point": 3, "half": d // 2}
    for kind, size in sizes.items():
        for trial in range(10):
            f = random_signal(rng, d, support=sorted(rng.choice(d, size, replace=False).tolist()))
            X = serialize.measurement_from_csv(serialize.measurement_to_csv(measure(f, g)))
            out = recover(X, g)
            assert out.status == STATUS_UNIQUE, (kind, trial, out.status, out.residual)
            assert compare_up_to_phase(f, out.estimate)[1] <= 1e-7, (kind, trial)
            assert decide_retrievability(X, report).verdict == VERDICT_RETRIEVABLE, (kind, trial)


def test_power_windows_survive_the_csv_round_trip():
    # ROADMAP 4d: dividing by a small |V_gg| amplified the 12-digit rounding past the
    # tolerance; the miss of the undivided relation rows stays at the rounding's size.
    # The estimates are the algebraic ones: their error reaches 1.3e-6 here (trial 6)
    d = 128
    g = construct_power_window(d, 20)
    rng = rng_for("power-csv12")
    for trial in range(10):
        f = CyclicSignal(d, rng.normal(size=d) + 1j * rng.normal(size=d))
        X = serialize.measurement_from_csv(serialize.measurement_to_csv(measure(f, g)))
        out = recover(X, g)
        assert out.status == STATUS_UNIQUE, (trial, out.residual)
        assert compare_up_to_phase(f, out.estimate)[1] <= 1e-5, trial


def _relation_miss_items():
    """One exact measurement per way the known route reads the relation rows, with the call that recovers it."""
    rng = rng_for("relation-miss-oracle")
    yield "full", random_signal(rng, 16), random_signal(rng, 16), recover
    yield "generic", random_short_window(rng, 32, 3), random_signal(rng, 32), recover
    yield "sparse", random_signal(rng, 32, support=[0, 1, 5]), random_signal(rng, 32), recover
    yield "center", construct_punctured_center_window(16), random_signal(rng, 16), recover  # row 8 unsolved
    yield "center-completed", construct_punctured_center_window(16), random_signal(rng, 16, support=range(6)), recover
    yield "dc", construct_punctured_dc_window(15, seed=1), random_signal(rng, 15), recover
    yield "hole", box_window(32, 3), random_signal(rng, 32, support=[j for j in range(32) if not 10 <= j < 14]), recover
    f_emb, g_emb, _ = embed_line(dict(enumerate(random_entries(rng, 8))), dict(enumerate(random_entries(rng, 3))))
    yield "line", g_emb, f_emb, lambda X, g: recover_line_block(X, g, 2)


@pytest.mark.parametrize("corrupt", [False, True], ids=["exact", "corrupted"])
def test_recover_residual_matches_the_dense_relation_miss(corrupt):
    # the route's residual reads only the relation rows it transformed; the oracle builds
    # both full tables.  Both are relative to R[0, 0], so they agree to roundoff in its units
    routes = []
    for name, g, f, solve in _relation_miss_items():
        X = measure(f, g)
        if corrupt:  # the peak entry scaled by 1.001
            bad = X.sq_mag.copy()
            bad[np.unravel_index(bad.argmax(), bad.shape)] *= 1.001
            X = SpectrogramMeasurement(g.d, bad)
        out = solve(X, g)
        expected = dense_relation_miss(out.estimate.entries, X.sq_mag, g.entries)
        assert abs(out.residual - expected) <= 1e-12, (name, out.residual, expected)
        assert out.status == (STATUS_INCONSISTENT if corrupt else STATUS_UNIQUE), (name, out.residual)
        routes.append((out.notes["route"], out.notes.get("zero_set"), tuple(out.notes.get("completed_rows", ()))))
    assert routes == [("full", None, ()), ("generic", None, ()), ("known", None, ()), ("known", None, ()),
                      ("known", None, (8,)), ("known", None, (0,)), ("known", "hole-L+1", (0, 1, 2, 3)),
                      ("known", "span", (0, 1, 2))]


@pytest.mark.parametrize("p", [-150, -100, -50, 0, 50, 100, 140])
def test_punctured_dc_verdict_ignores_the_scale_of_f(p):
    # ROADMAP 4g: the verdict, the estimate and the partition scale with f
    d = 31
    g = construct_punctured_dc_window(d, 1)
    f = random_signal(rng_for("dc-scale"), d)
    scaled = CyclicSignal(d, f.entries * 10.0**p)
    X = measure(scaled, g)
    out = recover(X, g)
    assert out.status == STATUS_UNIQUE, (p, out.residual)
    assert compare_up_to_phase(scaled, out.estimate)[1] <= 1e-10
    decision = decide_retrievability(X, classify_window(g))
    assert decision.verdict == VERDICT_RETRIEVABLE
    assert decision.partition.components == (tuple(range(d)),)


@pytest.mark.parametrize("d", [29, 31, 35])
def test_punctured_dc_windows_answer_spikes_and_two_point_signals(d):
    # ROADMAP 4f: the band of a punctured-dc window is all of Z_d, so its
    # signal holes are not read as zero sets; row 0 comes from the energy identity
    g = construct_punctured_dc_window(d, 1)
    rng = rng_for("dc-sparse-exact", d)
    signals = [CyclicSignal.delta(d, j) for j in range(d)]
    signals += [random_signal(rng, d, support=sorted(rng.choice(d, 2, replace=False).tolist())) for _ in range(10)]
    for f in signals:
        out = recover(measure(f, g), g)
        assert out.notes["route"] == "known" and out.status == STATUS_UNIQUE, (f.support(), out.notes)
        assert compare_up_to_phase(f, out.estimate)[1] < 1e-9


# -------------------------------------------------------------- round trips


PATH_CASES = []
for _d in range(5, 17):
    PATH_CASES.append(("full", _d))
    PATH_CASES.append(("generic", _d))
    PATH_CASES.append(("hole-long", _d))
    PATH_CASES.append(("hole-exact", _d))
    if _d % 2 == 0:
        PATH_CASES.append(("center", _d))
    PATH_CASES.append(("dcpair", _d))


@pytest.mark.parametrize("path,d", PATH_CASES)
def test_round_trip_recovery(path, d):
    worst = 0.0
    for trial in range(100):
        rng = rng_for("roundtrip", path, d, trial)
        if path == "full":
            g = random_signal(rng, d)
            if not omega_mask(g).all_true:
                continue
            f = random_signal(rng, d)
            out = recover(measure(f, g), g, mode="known")
        elif path == "generic":
            L = (d - 1) // 2
            g = random_short_window(rng, d, L)
            if not omega_mask(g).same_mask(omega_L_d(d, L)):
                continue
            while True:
                supp = [j for j in range(d) if rng.uniform() < 0.6]
                if supp and components_mod_d(supp, d, L).is_connected:
                    break
            f = random_signal(rng, d, support=supp)
            out = recover(measure(f, g), g, mode="known", L=L)
        elif path in ("hole-long", "hole-exact"):
            L = 2
            j_star = int(rng.integers(0, d))
            if path == "hole-long":
                # signal vanishes on j*..j*+L
                supp, label = [(j_star + L + 1 + off) % d for off in range(d - L - 1)], "hole-L+1"
            else:
                # signal nonzero at j*, vanishes on the next L indices
                supp, label = [(j_star + L + 1 + off) % d for off in range(d - L)], "hole-L"
            if d > 2 * L + 1:
                # row 0 vanishes at a frequency pair: the hole the measurement shows completes it
                g = row0_zero_window(rng, d, L)
            else:
                # at d = 5 no short band 0..L (2L+1 < d) holds a zero of row 0, so a forced zero
                # off row 0 stands in, completed from the support with no zero set read
                g, label = forced_zero_window(rng, d, L), None
            f = random_signal(rng, d, support=supp)
            out = recover(measure(f, g), g)
            assert (out.notes["route"], out.notes.get("zero_set")) == ("known", label), out.notes
        elif path == "center":
            g = construct_punctured_center_window(d)
            f = random_signal(rng, d)
            out = recover(measure(f, g), g, mode="known")
        else:
            g = construct_punctured_dc_window(d, seed=trial + 31 * d)
            f = random_signal(rng, d)
            out = recover(measure(f, g), g, mode="known")
        assert out.status == STATUS_UNIQUE, (path, d, trial, out.status)
        worst = max(worst, compare_up_to_phase(f, out.estimate)[1])
    assert worst < 1e-7, (path, d, worst)


def test_two_signal_consistency_both_directions():
    rng = rng_for("both-dirs")
    d, L = 12, 3
    g = random_short_window(rng, d, L)
    assert omega_mask(g).same_mask(omega_L_d(d, L))
    parts = ([0, 1], [6, 7])
    f = random_signal(rng, d, support=[j for p in parts for j in p])
    X = measure(f, g)
    twisted = f.entries.copy()
    for p in parts:
        twisted[p] = twisted[p] * np.exp(2j * np.pi * rng.uniform())
    X2 = measure(CyclicSignal(d, twisted), g)
    assert np.abs(X2.sq_mag - X.sq_mag).max() < 1e-9 * X.sq_mag.max()

    out = recover(X, g, mode="known", L=L)
    assert out.status == STATUS_PER_COMPONENT
    for comp in out.components.components:
        proj = np.zeros(d, dtype=complex)
        proj[list(comp)] = f.entries[list(comp)]
        est = np.zeros(d, dtype=complex)
        est[list(comp)] = out.estimate.entries[list(comp)]
        assert compare_up_to_phase(CyclicSignal(d, proj), CyclicSignal(d, est))[1] < 1e-7


# ------------------------------------------------------------------ decisions


def test_decide_generic_routes():
    rng = rng_for("decide-gen")
    d, L = 8, 3
    g = random_short_window(rng, d, L)
    rep = classify_window(g)
    f = random_signal(rng, d, support=[0, 1, 2])
    assert decide_retrievability(measure(f, g), rep).verdict == VERDICT_RETRIEVABLE
    f2 = random_signal(rng, d, support=[0, 4])
    decision = decide_retrievability(measure(f2, g), rep)
    assert decision.verdict == VERDICT_NOT_RETRIEVABLE
    assert decision.partition.n_components == 2


def test_decide_comb_family_with_witnesses():
    d, L, r = 8, 3, 2
    g = box_window(d, L)
    f = CyclicSignal(d, np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=complex))
    X = measure(f, g)
    decision = decide_retrievability(X, classify_window(g))
    assert decision.verdict == VERDICT_NOT_RETRIEVABLE
    assert len(decision.witnesses) == r
    for w in decision.witnesses:
        assert np.abs(measure(w, g).sq_mag - X.sq_mag).max() < 1e-9 * X.sq_mag.max()
    gamma, err = compare_up_to_phase(decision.witnesses[0], decision.witnesses[1])
    assert err > 1e-3


def test_decide_honest_undecidable():
    # box L=2: rows +-1 vanish at l = 32, and a dense signal cannot pin them;
    # without them the steps +-2 split the support into even and odd indices
    rng = rng_for("decide-und")
    g = box_window(64, 2)
    f = random_signal(rng, 64)  # nonvanishing: no zeros anywhere
    decision = decide_retrievability(measure(f, g), classify_window(g))
    assert decision.verdict == VERDICT_UNDECIDABLE
    assert decision.notes["route"] == "known" and "rows [1] " in decision.notes["reason"]  # and mirror 63


@pytest.mark.parametrize("window", ["dense", "sparse"])
def test_auto_mode_answers_a_zero_measurement_whatever_the_window(window):
    rng = rng_for("zero-hole-mode", window)
    d = 16
    g = random_signal(rng, d) if window == "dense" else random_sparse_window(rng, d)
    out = recover(measure(CyclicSignal.zeros(d), g), g)
    assert out.notes == {"route": "auto", "case": "zero-signal"}
    assert not out.estimate.entries.any()


def test_decide_hole_route_uses_connectivity():
    # a box window's row 0 vanishes at l = 3, 6, 9, so the known route decides off the signal's hole
    rng = rng_for("decide-hole")
    d, L = 12, 3
    g = box_window(d, L)
    f = random_signal(rng, d, support=[0, 1, 2, 3, 4, 5, 6])
    decision = decide_retrievability(measure(f, g), classify_window(g))
    assert decision.verdict == VERDICT_RETRIEVABLE
    assert decision.notes["route"] == "known" and decision.notes["zero_set"] == "hole-L+1"
    f2 = random_signal(rng, d, support=[0, 6])
    decision2 = decide_retrievability(measure(f2, g), classify_window(g))
    assert decision2.verdict == VERDICT_NOT_RETRIEVABLE
    assert decision2.notes["route"] == "known" and decision2.notes["zero_set"] == "hole-L+1"


def test_decide_hole_partition_matches_recover_on_rolled_windows():
    # the hole is read off band row 0 of the window-anchored problem; a box
    # window rolled off index 0 moves the unanchored row's zeros by its shift
    rng = rng_for("decide-hole-rolled")
    d, L = 64, 3
    for _ in range(40):
        g = box_window(d, L).shifted(int(rng.integers(1, d)))
        f = random_signal(rng, d).entries.copy()
        for start, length in ((int(rng.integers(d)), L + 1), (int(rng.integers(d)), L + 2)):
            f[(start + np.arange(length)) % d] = 0.0
        X = measure(CyclicSignal(d, f), g)
        outcome, decision = recover(X, g), decide_retrievability(X, classify_window(g))
        _assert_zero_set(outcome, "hole-L+1")
        assert decision.notes["route"] == "known" and decision.notes["zero_set"] == "hole-L+1"
        assert decision.partition == outcome.components


def test_decide_full_and_punctured_windows():
    rng = rng_for("decide-misc")
    g = random_signal(rng, 7)
    rep = classify_window(g)
    assert rep.is_full
    f = random_signal(rng, 7)
    assert decide_retrievability(measure(f, g), rep).verdict == VERDICT_RETRIEVABLE

    gc = construct_punctured_center_window(8)
    assert decide_retrievability(measure(random_signal(rng, 8), gc), classify_window(gc)).verdict == VERDICT_RETRIEVABLE

    gd = construct_punctured_dc_window(9, seed=2)
    assert decide_retrievability(measure(random_signal(rng, 9), gd), classify_window(gd)).verdict == VERDICT_RETRIEVABLE


@pytest.mark.parametrize("d", [40, 44, 48])
def test_large_window_does_not_make_a_signal_read_as_zero(d):
    # ||g|| is 6e11..2e14 here, so ||g||^4 dwarfs the measurement of a unit-norm f
    g = construct_punctured_center_window(d)
    f = random_signal(rng_for("zero-test", d), d)
    f = CyclicSignal(d, f.entries / f.norm())
    X = measure(f, g)
    out = recover(X, g)
    assert out.notes["route"] == "known" and out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f, out.estimate)[1] < 1e-8
    assert "case" not in decide_retrievability(X, classify_window(g)).notes


def test_is_inconsistent_flags_nan_and_excess():
    assert is_inconsistent(float("nan"), 1.0)
    assert is_inconsistent(2e-6, 1.0)
    assert not is_inconsistent(1e-6, 1.0)
    assert not is_inconsistent(0.0, 0.0)
    assert is_inconsistent(1e-300, 0.0)
    assert is_inconsistent(0.0, float("nan"))  # an unmeasurable scale certifies nothing


# ---------------------------------------------------------------- comparison


def test_compare_up_to_phase_rotation():
    rng = rng_for("cmp1")
    f = random_signal(rng, 6)
    rotated = CyclicSignal(6, 1j * f.entries)
    gamma, err = compare_up_to_phase(f, rotated)
    assert abs(gamma - 1j) < 1e-12 and err < 1e-12


def test_compare_up_to_phase_perturbation():
    rng = rng_for("cmp2")
    f = random_signal(rng, 6)
    eps = 1e-4
    bumped = f.entries.copy()
    bumped[0] += eps
    _, err = compare_up_to_phase(f, CyclicSignal(6, bumped))
    assert abs(err - eps / f.norm()) < eps


def test_compare_up_to_phase_orthogonal_convention():
    f = CyclicSignal(4, np.array([1, 0, 0, 0], dtype=complex))
    h = CyclicSignal(4, np.array([0, 2, 0, 0], dtype=complex))
    gamma, err = compare_up_to_phase(f, h)
    assert gamma == 1.0 + 0.0j
    assert abs(err - np.sqrt(1 + 4.0)) < 1e-12


def test_compare_up_to_phase_rejects_zero_reference():
    with pytest.raises(EmptySupport):
        compare_up_to_phase(CyclicSignal.zeros(4), CyclicSignal.delta(4))


# ----------------------------------------------------------------- auto route


def test_route_table_order():
    # one route: the dc-pair and hole modes are gone
    assert MODES == ("auto", "known")
    g = construct_punctured_dc_window(7, seed=1)
    X = measure(random_signal(rng_for("modes"), 7), g)
    for gone in ("dcpair", "hole"):
        with pytest.raises(StftprError, match="unknown recovery mode"):
            recover(X, g, mode=gone)


def test_auto_routing_reaches_each_solver():
    rng = rng_for("auto")
    d = 8
    # full
    g = random_signal(rng, d)
    f = random_signal(rng, d)
    assert recover(measure(f, g), g).notes["route"] == "full"
    # generic short
    g = random_short_window(rng, d, 3)
    assert recover(measure(f, g), g).notes["route"] == "generic"
    # a short window whose row 0 vanishes, completed off the signal's hole
    g = box_window(12, 3)
    f12 = random_signal(rng, 12, support=list(range(7)))
    _assert_zero_set(recover(measure(f12, g), g), "hole-L+1")
    # partial rows: a forced ambiguity zero, the punctured center
    g = forced_zero_window(rng, 12, 4)
    assert recover(measure(f12, g), g).notes["route"] == "known"
    gc = construct_punctured_center_window(d)
    assert recover(measure(f, gc), gc).notes["route"] == "known"
    # punctured dc
    gd = construct_punctured_dc_window(9, seed=4)
    f9 = random_signal(rng, 9)
    out = recover(measure(f9, gd), gd)
    assert (out.notes["route"], out.notes["completed_rows"]) == ("known", [0])


def test_auto_routing_undecidable_without_uniqueness_route():
    rng = rng_for("auto-und")
    g = box_window(64, 2)
    f = random_signal(rng, 64)
    out = recover(measure(f, g), g)
    assert out.status == STATUS_UNDECIDABLE and out.estimate is None
    assert out.notes["route"] == "known" and "rows [1] " in out.notes["reason"]  # and mirror 63
