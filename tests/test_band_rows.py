"""The spectral layer transforms only the shift rows where the supports meet.

Row k of ``stft(f, g)`` is exactly zero unless an exact nonzero of f meets one
of ``roll(g, k)``.  Every output is compared bit for bit with
``oracles.dense_stft``, which transforms all d rows.  ``relation_transform``
with ``rows`` is compared with the rows of the full table, on both sides of its
switch from a real product to a real FFT, and ``tracemalloc`` checks that a
band's rows allocate no d x d block.  A census compares ``measure``, ``stft``,
``ambiguity``, ``stft_rows`` and the window certification byte for byte with
``oracles.gather_stft_rows``, the former index-gather kernel, and
``tracemalloc`` checks that ``measure`` holds little beyond its output while it
transforms its rows a block at a time.  A counting wrapper
on ``np.fft.fft`` checks, without timing anything, that a short window's
ambiguity transforms only its band rows, that a generic decision builds no
relation table, and that the short-window routes transform no more relation
rows than they read.  A counting wrapper on the all-zero check checks that
``recover`` and ``decide_retrievability`` each scan the measurement once (and
only an exact zero measurement reads as the zero signal), and
one on ``relation_transform`` that each public call on a hole or line item
transforms once, and that the known plan reads no measurement on a window
with a partial row 0 and no zero-set reader.  A counting wrapper on
``np.linalg.lstsq`` checks that row completion fits only the frequencies
where the window's ambiguity row vanishes, never a whole row.
"""

import tracemalloc

import numpy as np
import pytest

from helpers import random_entries, random_short_window, random_signal, rng_for
from oracles import dense_omega_mask, dense_stft, gather_measure, gather_stft, gather_stft_rows
from stftpr import recovery, spectral, windows
from stftpr.linemode import recover_line_block
from stftpr.recovery import (
    DEFAULT_TAU_SUPP,
    _row0_support,
    decide_retrievability,
    measurement_coeffs,
    recover,
    support_from_magnitudes,
)
from stftpr.spectral import (
    CyclicSignal,
    SpectrogramMeasurement,
    ambiguity,
    embed_line,
    measure,
    relation_transform,
    stft,
    stft_rows,
)
from stftpr.errors import PreconditionViolated
from stftpr.windows import (
    DEFAULT_TAU_REL,
    classify_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
    difference_set,
    omega_mask,
)
from test_golden_propagation import _box, _with_zero_runs, golden_cases

DIMENSIONS = (2, 3, 16, 17, 1024)


def _signals_and_windows(d):
    """Seeded signals (dense, half zero, comb, single spike) and windows (dense, short L = 0..7)."""
    rng = rng_for("band-rows", d)
    dense = rng.normal(size=d) + 1j * rng.normal(size=d)
    comb = np.zeros(d, dtype=np.complex128)
    comb[:: max(1, d // 4)] = 1.0
    spike = np.zeros(d, dtype=np.complex128)
    spike[int(rng.integers(d))] = 2.0 - 1.0j
    signals = (dense, np.where(rng.random(d) < 0.5, dense, 0.0), comb, spike)
    windows = [rng.normal(size=d) + 1j * rng.normal(size=d)]
    for L in range(min(8, (d + 1) // 2)):
        g = np.zeros(d, dtype=np.complex128)
        g[: L + 1] = rng.normal(size=L + 1) + 1j * rng.normal(size=L + 1)
        if L >= 2:
            g[1] *= 1e-12  # below tau_rel * peak, yet its rows are not zero
        windows.append(np.roll(g, int(rng.integers(d))))
    return signals, windows


def _nonzero_rows(table):
    return np.flatnonzero(np.any(table != 0, axis=1))


@pytest.mark.parametrize("d", DIMENSIONS)
def test_stft_matches_the_dense_path_bitwise(d):
    signals, windows = _signals_and_windows(d)
    sparse = 0
    for g in windows:
        for f in signals:
            expected = dense_stft(f, g)
            F, G = CyclicSignal(d, f), CyclicSignal(d, g)
            assert np.array_equal(stft(F, G).values, expected)
            rows = stft_rows(F, G)[0]
            assert np.isin(_nonzero_rows(expected), rows).all()
            if np.count_nonzero(f) * np.count_nonzero(g) < d:  # rows are sought only then
                assert np.array_equal(rows, _nonzero_rows(expected))
                sparse += 1
    assert sparse > 0


@pytest.mark.parametrize("d", DIMENSIONS)
def test_window_certification_matches_the_dense_path_bitwise(d):
    for g in _signals_and_windows(d)[1]:
        G = CyclicSignal(d, g)
        table = dense_stft(g, g)
        assert np.array_equal(ambiguity(G).values, table)
        mask, threshold, rule = dense_omega_mask(g, DEFAULT_TAU_REL)
        got = omega_mask(G)
        assert np.array_equal(got.mask, mask)
        assert (got.threshold, got.threshold_rule) == (threshold, rule)
        assert difference_set(np.flatnonzero(g), d).members == frozenset(_nonzero_rows(table).tolist())


def test_non_finite_entries_meet_every_row():
    # inf * 0 is NaN, so a non-finite entry reaches rows its support never meets
    f = np.zeros(16, dtype=np.complex128)
    f[3] = np.inf
    g = np.zeros(16, dtype=np.complex128)
    g[:2] = 1.0
    with np.errstate(invalid="ignore"):
        expected = dense_stft(f, g)
        got = stft(CyclicSignal(16, f), CyclicSignal(16, g)).values
    assert np.isnan(expected).all(axis=1).any()
    assert np.array_equal(got, expected, equal_nan=True)


CENSUS_DIMENSIONS = (2, 3, 5, 16, 17, 31, 64, 100, 256, 300, 1024)


def _census_signals(d):
    """Seeded dense, sparse (about one entry in ten) and short (three taps) vectors, and a dense one with
    an infinite entry.  measure transforms 2**15 // d rows per block: at d = 300 the last of three blocks
    is partial, and at d = 1024 a sparse signal against a short window meets hundreds of rows with gaps,
    across many 32-row blocks."""
    rng = rng_for("band-rows-census", d)
    dense = rng.normal(size=d) + 1j * rng.normal(size=d)
    sparse = np.where(rng.random(d) < 0.1, dense, 0.0)
    sparse[int(rng.integers(d))] = 1.0
    short = np.roll(np.where(np.arange(d) < 3, dense, 0.0), int(rng.integers(d)))
    non_finite = dense.copy()
    non_finite[int(rng.integers(d))] = np.inf
    return (dense, sparse, short), non_finite


def _assert_same_bytes(got, expected, label):
    assert got.shape == expected.shape and got.dtype == expected.dtype, label
    assert got.tobytes() == expected.tobytes(), label


@pytest.mark.parametrize("d", CENSUS_DIMENSIONS)
def test_transforms_match_the_index_gather_byte_for_byte(d):
    signals, non_finite = _census_signals(d)
    names = ("dense", "sparse", "short")
    for gname, g in zip(names, signals):
        G = CyclicSignal(d, g)
        _assert_same_bytes(ambiguity(G).values, gather_stft(g, g), ("ambiguity", gname))
        mask = omega_mask(G)
        _assert_same_bytes(mask.mask, dense_omega_mask(g, DEFAULT_TAU_REL)[0], ("omega mask", gname))
        for got, expected in zip(mask.ambiguity, gather_stft_rows(g, g, half=True)):
            _assert_same_bytes(got, expected, ("omega rows", gname))
        for fname, f in zip(names, signals):
            F = G if f is g else CyclicSignal(d, f)  # g is f: the window meets itself
            label = (fname, gname)
            _assert_same_bytes(measure(F, G).sq_mag, gather_measure(f, g), ("measure", *label))
            _assert_same_bytes(stft(F, G).values, gather_stft(f, g), ("stft", *label))
            for got, expected in zip(stft_rows(F, G, half=True), gather_stft_rows(f, g, half=True)):
                _assert_same_bytes(got, expected, ("stft_rows half", *label))
    for gname, g in zip(names, signals):
        F, G = CyclicSignal(d, non_finite), CyclicSignal(d, g)
        with np.errstate(invalid="ignore"):
            for got, expected in zip(stft_rows(F, G), gather_stft_rows(non_finite, g)):
                _assert_same_bytes(got, expected, ("non-finite stft_rows", gname))
            with pytest.raises(ValueError, match="finite"):
                measure(F, G)


def test_measure_holds_little_beyond_its_output():
    # the rows are transformed a cache-sized block at a time, not through a d x d complex table
    rng = rng_for("band-rows-measure-peak")
    f, g = random_signal(rng, 512), random_signal(rng, 512)
    measure(f, g)  # warm numpy's caches outside the traced call
    tracemalloc.start()
    try:
        X = measure(f, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * X.sq_mag.nbytes


def test_row0_support_matches_the_dense_tables():
    # the known and center routes read row 0, which their masks keep
    # whole; the dc and box windows' row 0 vanishes somewhere, and the known
    # route completes it, from the energy identity or off a signal hole
    cases, skipped = [], set()
    for case in golden_cases():
        if omega_mask(case[2]).mask[0].all():
            cases.append(case)
        else:
            skipped.add(case[0].split("-")[0])
    assert skipped == {"dc", "hole"}
    for case_id, X, g, _ in cases:
        with np.errstate(all="ignore"):
            a0 = np.fft.ifft(relation_transform(X).values[0] / np.conj(dense_stft(g.entries, g.entries)[0]))
            expected = support_from_magnitudes(a0, DEFAULT_TAU_SUPP)
            assert _row0_support(X, omega_mask(g), DEFAULT_TAU_SUPP) == expected, case_id


def _count_fft_rows(monkeypatch, names=("fft",)) -> list[int]:
    """Rows each call of the named ``np.fft`` functions transforms, as ``stftpr.spectral`` sees them."""
    counted = []

    def counting(fft):
        def wrapper(a, *args, **kwargs):
            a = np.asarray(a)
            counted.append(a.size // a.shape[kwargs.get("axis", -1)])
            return fft(a, *args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(spectral.np.fft, name, counting(getattr(spectral.np.fft, name)))
    return counted


def test_short_window_ambiguity_transforms_only_its_band_rows(monkeypatch):
    g = random_short_window(rng_for("band-rows-count"), 1024, 3)
    counted = _count_fft_rows(monkeypatch)
    ambiguity(g)
    assert 0 < sum(counted) <= 7


def test_generic_decision_builds_no_relation_table(monkeypatch):
    rng = rng_for("band-rows-decide")
    g = random_short_window(rng, 1024, 3)
    X = measure(random_signal(rng, 1024), g)
    calls = []

    def counting(X):
        calls.append(X.d)
        return relation_transform(X)

    monkeypatch.setattr(spectral, "relation_transform", counting)
    monkeypatch.setattr(recovery, "relation_transform", counting)
    report = classify_window(g)
    decision = decide_retrievability(X, report)
    assert report.is_generic_short and decision.notes["route"] == "generic"
    assert calls == []


def test_each_public_call_scans_for_a_zero_measurement_once(monkeypatch):
    scans = []
    scan = recovery._zero_measurement
    monkeypatch.setattr(recovery, "_zero_measurement", lambda X: scans.append(X.d) or scan(X))
    rng = rng_for("band-rows-zero-scan")
    d, L = 32, 3
    g = CyclicSignal(d, np.r_[np.ones(L + 1), np.zeros(d - L - 1)])  # box: row 0 vanishes, so the hole is read
    v = random_signal(rng, d).entries.copy()
    v[5 : 6 + L] = 0.0
    X = measure(CyclicSignal(d, v), g)
    assert recover(X, g).notes["zero_set"] == "hole-L+1" and len(scans) == 1
    scans.clear()
    assert decide_retrievability(X, classify_window(g)).notes["zero_set"] == "hole-L+1" and len(scans) == 1


def test_only_an_exact_zero_measurement_is_the_zero_signal():
    d = 16
    g = random_signal(rng_for("band-rows-zero-signal"), d)
    report = classify_window(g)
    for at in ((3, 5), (0, 7)):  # off row 0 the whole measurement is scanned; on it, row 0 settles it
        tiny = np.zeros((d, d))
        tiny[at] = 5e-324  # the smallest subnormal is still a positive entry
        X = SpectrogramMeasurement(d, tiny)
        assert recover(X, g).notes.get("case") != "zero-signal"
        assert decide_retrievability(X, report).notes.get("case") != "zero-signal"
    zero = SpectrogramMeasurement(d, np.zeros((d, d)))
    assert recover(zero, g).notes == {"route": "auto", "case": "zero-signal"}
    assert decide_retrievability(zero, report).notes["case"] == "zero-signal"


@pytest.mark.parametrize("d", (2, 3, 16, 17, 511, 1024))
def test_relation_rows_match_the_table(d):
    rng = rng_for("relation-rows", d)
    L = min(3, d - 1)
    measurements = (
        SpectrogramMeasurement(d, rng.random((d, d))),
        measure(random_signal(rng, d), random_short_window(rng, d, min(3, d // 2))),
    )
    row_sets = (
        [],
        [0],
        [d // 2],
        [*range(d - L, d), *range(L + 1)],  # a band that wraps past index 0
        [5, -1, 3, -d - 2, 2 * d + 1],  # unsorted and negative, taken mod d
        list(rng.permutation(d)[: (d + 1) // 2]),  # half the rows
        list(range(d // 2 + 1)),  # rows 0..d/2, as the full route reads them: the last row path
        list(range(d // 2 + 2)),  # one row past the switch: the table, sliced
    )
    for X in measurements:
        table = relation_transform(X).values
        bound = 1e-15 * np.abs(table).max()
        for rows in row_sets:
            got = relation_transform(X, rows)
            expected = table[np.asarray(rows, dtype=np.intp) % d]
            assert got.shape == (len(rows), d)
            if len(rows) > d // 2 + 1:
                assert np.array_equal(got, expected)
            else:
                assert np.abs(got - expected).max(initial=0.0) <= bound
        mc = measurement_coeffs(X, L)
        for k in range(L + 1):
            assert np.abs(mc[k] - np.fft.ifft(table[k])).max() <= bound


@pytest.mark.parametrize("d", (16, 17, 1024))
def test_relation_rows_match_the_table_at_the_edges(d, monkeypatch):
    # m distinct folded columns min(k, d - k) come from one real product up to
    # m = 2 * bit_length(d), and from a real FFT of every row beyond it
    rng = rng_for("relation-rows-edges", d)
    crossover = 2 * d.bit_length()
    row_sets = {
        "k and d-k": [1, d - 1, 3, d - 3, 0],
        "row d/2 and its fold": [d // 2 - 1, d // 2, d - d // 2],
        "duplicates": [2, d - 2, 5] * ((d + 5) // 6),  # at least d/2 entries, three rows
        "duplicates past the switch": ([2, d - 2, 5] * d)[: d // 2 + 2],  # the table, sliced
        "crossover": list(range(crossover)),
        "crossover+1": list(range(crossover + 1)),
    }
    measurements = (
        SpectrogramMeasurement(d, rng.random((d, d))),
        measure(random_signal(rng, d), random_short_window(rng, d, 3)),
    )
    rfft_rows = _count_fft_rows(monkeypatch, ("rfft",))
    for X in measurements:
        table = relation_transform(X).values
        bound = 1e-15 * np.abs(table).max()
        for name, rows in row_sets.items():
            rfft_rows.clear()
            got = relation_transform(X, rows)
            assert got.shape == (len(rows), d)
            assert np.abs(got - table[np.asarray(rows, dtype=np.intp) % d]).max(initial=0.0) <= bound, name
            if name.startswith("crossover") and len(rows) <= d // 2 + 1:
                assert bool(rfft_rows) == (name == "crossover+1"), name
    assert len(row_sets["duplicates"]) * 2 >= d


def test_relation_rows_allocate_no_table():
    d = 1024
    rng = rng_for("relation-rows-memory")
    X = measure(random_signal(rng, d), random_short_window(rng, d, 3))
    rows = [0, 1, 2, 3, d - 3, d - 2, d - 1]
    relation_transform(X, rows)  # warm numpy's caches outside the traced call
    tracemalloc.start()
    try:
        relation_transform(X, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8 / 4


def _short_route_cases():
    """Generic d=1024, L=3 and a box window L=3 with a signal hole, whose row 0 the known route
    completes off that hole."""
    rng = rng_for("band-rows-routes")
    g = random_short_window(rng, 1024, 3)
    yield "generic", measure(random_signal(rng, 1024), g), g
    box = _box(1024, 3)
    yield "hole-4", measure(_with_zero_runs(rng, 1024, [(int(rng.integers(1024)), 4)]), box), box


@pytest.mark.parametrize("case", _short_route_cases(), ids=lambda case: case[0])
def test_short_window_routes_transform_only_the_rows_they_read(monkeypatch, case):
    route, X, g = case
    calls = []

    def counting(X, rows=None):
        calls.append(rows)
        return relation_transform(X, rows)

    monkeypatch.setattr(recovery, "relation_transform", counting)
    report = classify_window(g)
    counted = _count_fft_rows(monkeypatch, ("fft", "ifft"))
    outcome = recover(X, g)
    decision = decide_retrievability(X, report)
    expected = {"generic": ("generic", None), "hole-4": ("known", "hole-L+1")}[route]
    assert (outcome.notes["route"], outcome.notes.get("zero_set")) == expected
    assert (decision.notes["route"], decision.notes.get("zero_set")) == expected
    assert calls and all(rows is not None and len(rows) <= 7 for rows in calls)
    assert counted and max(counted) <= 7


def test_row_completion_fits_at_most_L_frequencies(monkeypatch):
    # the band-short line shape (d=511, L=3 and 7) and a box-window hole route:
    # each fit solves only for the vanished frequencies of one ambiguity row
    columns = []
    lstsq = np.linalg.lstsq

    def counting(a, b, *args, **kwargs):
        columns.append(np.shape(a)[1])
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    rng = rng_for("band-rows-fits")
    for L, span in ((3, 250), (7, 246)):
        f, g, d = embed_line(dict(enumerate(random_entries(rng, span))), dict(enumerate(random_entries(rng, L + 1))))
        assert d == 511
        recover_line_block(measure(f, g), g, L)
        assert max(columns, default=0) <= L
    X, g = next(case[1:] for case in _short_route_cases() if case[0] == "hole-4")
    recover(X, g)
    decide_retrievability(X, classify_window(g))
    assert columns and max(columns) <= 3  # the box window's rows vanish at up to L = 3 frequencies


def _line_item(rng, L=7):
    """The band-short line shape: an L = 7 window and a span that embed in d = 511."""
    f, g, d = embed_line(dict(enumerate(random_entries(rng, 246))), dict(enumerate(random_entries(rng, L + 1))))
    assert d == 511
    return measure(f, g), g


def test_each_public_call_transforms_a_hole_or_line_item_once(monkeypatch):
    calls = []

    def counting(X, rows=None):
        calls.append(rows)
        return relation_transform(X, rows)

    monkeypatch.setattr(recovery, "relation_transform", counting)
    X, g = next(case[1:] for case in _short_route_cases() if case[0] == "hole-4")
    assert recover(X, g).notes["zero_set"] == "hole-L+1" and len(calls) == 1
    calls.clear()
    # a decision after recover reads the partition off X's record of the plan; on a fresh X it plans once
    assert decide_retrievability(X, classify_window(g)).notes["zero_set"] == "hole-L+1" and len(calls) == 0
    fresh = SpectrogramMeasurement(X.d, X.sq_mag.copy())
    assert decide_retrievability(fresh, classify_window(g)).notes["zero_set"] == "hole-L+1" and len(calls) == 1
    calls.clear()
    X, g = _line_item(rng_for("band-rows-line-transforms"))
    assert recover_line_block(X, g, 7).notes["zero_set"] == "span" and len(calls) == 1


def test_each_public_call_transforms_a_dc_item_once_and_decides_without_a_walk(monkeypatch):
    # the plan divides the whole rows once, completes row 0 from them and hands both to the solver
    calls = {"relation_transform": 0, "propagate_phases": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(recovery, name, counting(name, getattr(recovery, name)))
    g = construct_punctured_dc_window(15, seed=1)
    X = measure(random_signal(rng_for("band-rows-dc-calls"), 15), g)
    decision = decide_retrievability(X, classify_window(g))
    assert decision.notes["route"] == "known" and decision.partition.components == (tuple(range(15)),)
    assert calls == {"relation_transform": 1, "propagate_phases": 0}
    calls.update(dict.fromkeys(calls, 0))
    assert recover(X, g).notes["completed_rows"] == [0]
    assert calls == {"relation_transform": 1, "propagate_phases": 1}


def _ambiguity_items():
    """One item per way the known route reads the window: full, generic band, punctured center,
    punctured dc and a box window completed off a signal hole."""
    rng = rng_for("band-rows-ambiguity-builds")
    full = random_signal(rng, 64)
    yield "full", measure(random_signal(rng, 64), full), full
    g = random_short_window(rng, 64, 3)
    yield "generic", measure(random_signal(rng, 64), g), g
    g = construct_punctured_center_window(16)
    yield "center", measure(random_signal(rng, 16), g), g
    g = construct_punctured_dc_window(15, seed=1)
    yield "dc", measure(random_signal(rng, 15), g), g
    g = _box(32, 3)
    yield "hole", measure(_with_zero_runs(rng, 32, [(5, 4)]), g), g


@pytest.mark.parametrize("case", _ambiguity_items(), ids=lambda case: case[0])
def test_the_window_ambiguity_is_built_once_per_certification(monkeypatch, case):
    # recover builds V_gg once, inside classify_window, and reads it off the report from then on;
    # decide reads the caller's report and builds none
    name, X, g = case
    builds, inside, transformed = [], [], []
    stft_rows, classify, transform = spectral.stft_rows, windows.classify_window, recovery.relation_transform

    def counting_rows(f, h, *args, **kwargs):
        if f is h:
            builds.append(bool(inside))
        return stft_rows(f, h, *args, **kwargs)

    def certifying(*args, **kwargs):
        inside.append(True)
        try:
            return classify(*args, **kwargs)
        finally:
            inside.pop()

    for module in (spectral, windows, recovery):
        for attr, spy in (("stft_rows", counting_rows), ("classify_window", certifying)):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, spy)
    monkeypatch.setattr(recovery, "relation_transform", lambda X, rows=None: transformed.append(rows) or transform(X, rows))
    outcome = recover(X, g)
    assert outcome.status == "UniqueUpToGlobalPhase", (name, outcome.notes)
    assert builds == [True], name
    d = g.d
    if name == "full":
        assert len(transformed) == 1 and len(transformed[0]) == d // 2 + 1
    assert all(rows is not None and max(rows) <= d // 2 for rows in transformed), name
    report = windows.classify_window(g)
    builds.clear()
    decide_retrievability(X, report)
    assert builds == [], name


def test_a_dc_item_builds_its_rows_once_in_the_plan_and_once_with_row0(monkeypatch):
    # the plan's divided rows, then those with the completed row 0; nothing new to add after that
    built = []
    init = recovery.CorrelationData.__init__

    def counting(self, *args):
        init(self, *args)
        built.append(self.shifts.size)

    monkeypatch.setattr(recovery.CorrelationData, "__init__", counting)
    g = construct_punctured_dc_window(15, seed=1)
    X = measure(random_signal(rng_for("band-rows-dc-builds"), 15), g)
    assert recover(X, g).notes["completed_rows"] == [0]
    assert built == [7, 8]


def test_each_public_call_completes_each_row_of_a_hole_or_line_item_once(monkeypatch):
    # the zero-set plan completes row 0 to read the support and hands it to the solver
    fits = []
    complete_row = recovery._complete_row

    def counting(*args):
        fits.append(args)
        return complete_row(*args)

    monkeypatch.setattr(recovery, "_complete_row", counting)
    X, g = next(case[1:] for case in _short_route_cases() if case[0] == "hole-4")
    out = recover(X, g)
    assert out.notes["completed_rows"][0] == 0 and len(fits) == len(out.notes["completed_rows"])
    fits.clear()
    X, g = _line_item(rng_for("band-rows-line-transforms"))
    out = recover_line_block(X, g, 7)
    assert out.notes["completed_rows"][0] == 0 and len(fits) == len(out.notes["completed_rows"])


class _Unread:
    """A measurement stand-in that fails any read but its dimension."""

    def __init__(self, d):
        self.d = d

    def __getattr__(self, name):
        raise AssertionError(f"the plan read X.{name}")


def test_known_plan_reads_no_measurement_without_a_zero_set_source(monkeypatch):
    # a punctured-dc window whose l* shares a factor with d fits no theorem, and
    # its band is all of Z_d: no zero-set reader, so the plan rejects it unread.
    # A punctured center keeps row 0 whole: the plan reads the support off it,
    # but no relation row and no hole.
    read = []
    monkeypatch.setattr(recovery, "relation_transform", lambda *a, **k: read.append("relation_transform"))
    monkeypatch.setattr(recovery, "hole_zero_set", lambda *a, **k: read.append("hole_zero_set"))
    for d, ls in ((9, 3), (10, 4)):
        monkeypatch.setattr("stftpr.windows.lstar", lambda d: ls)
        report = classify_window(construct_punctured_dc_window(d, seed=1))
        assert not report.omega.mask[0].all()
        plan = recovery._plan_known(_Unread(d), report, None, DEFAULT_TAU_REL, DEFAULT_TAU_SUPP)
        assert isinstance(plan, PreconditionViolated), plan
    for d in (16, 40):
        g = construct_punctured_center_window(d)
        report = classify_window(g)
        assert report.omega.mask[0].all() and not report.omega.mask[d // 2].all()
        X = measure(random_signal(rng_for("band-rows-center-plan", d), d), g)
        plan = recovery._plan_known(X, report, None, DEFAULT_TAU_REL, DEFAULT_TAU_SUPP)
        assert [*plan["complete"], *plan["unsolved"]] == [d // 2] and "zero_set" not in plan
    assert read == []
