import numpy as np
import pytest

from helpers import random_signal, rng_for
from oracles import (
    naive_dft,
    naive_dft_loops,
    naive_inverse_dft_loops,
    naive_relation,
    naive_stft,
    naive_stft_loops,
)
from stftpr import serialize
from stftpr.errors import DimensionMismatch, EmptySupport
from stftpr.spectral import (
    ComplexTable,
    CyclicSignal,
    SpectrogramMeasurement,
    ambiguity,
    dft,
    embed_line,
    inverse_dft,
    measure,
    relation_transform,
    stft,
)


def test_a_signal_owns_a_read_only_copy_of_its_entries():
    # the caller's array stays writable, and writing through a view's base leaves the signal as built
    a = np.ones(8, dtype=np.complex128)
    CyclicSignal(8, a)
    assert a.flags.writeable
    b = np.zeros(16, dtype=np.complex128)
    g = CyclicSignal(8, b[:8])
    b[0] = 5.0
    assert g.entries[0] == 0.0 and not g.entries.flags.writeable


def test_a_measurement_owns_read_only_bytes():
    # the caller's array stays writable, and writing through a view's base leaves the measurement as built
    a = np.ones((8, 8))
    SpectrogramMeasurement(8, a)
    assert a.flags.writeable
    b = np.zeros((8, 16))
    X = SpectrogramMeasurement(8, b[:, :8])
    b[0, 0] = 5.0
    assert X.sq_mag[0, 0] == 0.0 and not X.sq_mag.flags.writeable
    # measure and the CSV loader hand over the arrays they made, and another measurement may share them
    X = measure(CyclicSignal.delta(8), CyclicSignal.delta(8))
    assert X.sq_mag.flags.owndata and SpectrogramMeasurement(8, X.sq_mag).sq_mag is X.sq_mag
    assert serialize.measurement_from_csv(serialize.measurement_to_csv(X)).sq_mag.flags.owndata


def test_a_table_owns_read_only_bytes():
    # the caller's array stays writable, and writing through a view's base leaves the table as built
    a = np.ones((4, 4), dtype=np.complex128)
    ComplexTable(4, a)
    assert a.flags.writeable
    b = np.zeros((8, 4), dtype=np.complex128)
    T = ComplexTable(4, b[:4])
    b[0, 0] = 5.0
    assert T.values[0, 0] == 0.0 and not T.values.flags.writeable
    # stft, ambiguity and relation_transform hand over the arrays they made, dense or not
    f, spike = random_signal(rng_for("table-bytes"), 8), CyclicSignal.delta(8, 3)
    for T in (stft(f, f), stft(spike, spike), ambiguity(f), relation_transform(measure(f, f))):
        assert T.values.flags.owndata and ComplexTable(8, T.values).values is T.values


def test_dft_delta_is_flat():
    assert np.allclose(dft(CyclicSignal.delta(4).entries), np.ones(4))


def test_dft_constant_is_scaled_delta():
    out = dft(np.ones(4))
    assert np.allclose(out, [4, 0, 0, 0], atol=1e-12)


def test_dft_matches_naive_oracle():
    rng = rng_for("dft", 7)
    v = rng.normal(size=7) + 1j * rng.normal(size=7)
    fast = dft(v)
    assert np.abs(fast - naive_dft_loops(v)).max() < 1e-12 * np.abs(fast).max()


def test_dft_inverse_round_trip():
    for d in (2, 3, 8, 33, 64):
        rng = rng_for("roundtrip", d)
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        back = inverse_dft(dft(v))
        assert np.abs(back - v).max() < 1e-12 * np.abs(v).max()
        assert np.abs(naive_inverse_dft_loops(naive_dft_loops(v[:8] if d > 8 else v)) - (v[:8] if d > 8 else v)).max() < 1e-10


def test_dft_rejects_short_vectors():
    with pytest.raises(DimensionMismatch):
        dft([1.0])


def test_stft_delta_delta():
    table = stft(CyclicSignal.delta(5), CyclicSignal.delta(5)).values
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, :] = 1.0
    assert np.allclose(table, expected, atol=1e-12)


def test_stft_window_shift_moves_rows():
    rng = rng_for("shift")
    d = 9
    f = random_signal(rng, d)
    g = random_signal(rng, d)
    y = 4
    shifted = g.shifted(y)
    lhs = np.abs(stft(f, shifted).values)
    rhs = np.abs(stft(f, g).values)
    for k in range(d):
        assert np.allclose(lhs[k], rhs[(k + y) % d], atol=1e-10)


def test_stft_matches_naive_triple_loop():
    rng = rng_for("stft", 6)
    f = rng.normal(size=6) + 1j * rng.normal(size=6)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    fast = stft(CyclicSignal.from_values(f), CyclicSignal.from_values(g)).values
    naive = naive_stft_loops(f, g)
    assert np.abs(fast - naive).max() < 1e-12 * np.abs(naive).max()


def test_stft_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        stft(CyclicSignal.delta(4), CyclicSignal.delta(5))


def test_measure_zero_signal():
    X = measure(CyclicSignal.zeros(6), CyclicSignal.delta(6))
    assert X.sq_mag.max() == 0.0


def test_measure_delta_delta_rows():
    X = measure(CyclicSignal.delta(3), CyclicSignal.delta(3)).sq_mag
    assert np.allclose(X[0], 1.0)
    assert np.allclose(X[1:], 0.0)


def test_measure_total_mass_parseval():
    rng = rng_for("parseval")
    d = 8
    f = random_signal(rng, d)
    g = random_signal(rng, d)
    X = measure(f, g)
    expected = d * f.norm() ** 2 * g.norm() ** 2
    assert abs(X.total_mass() - expected) < 1e-9 * expected


def test_measurement_rejects_negative_entries():
    with pytest.raises(ValueError):
        SpectrogramMeasurement(2, np.array([[1.0, -0.5], [0.0, 0.0]]))


def test_ambiguity_delta_and_energy():
    g = CyclicSignal.delta(4)
    A = ambiguity(g).values
    assert np.allclose(A[0], 1.0)
    assert np.allclose(A[1:], 0.0, atol=1e-12)
    rng = rng_for("amb-energy")
    h = random_signal(rng, 6)
    assert abs(ambiguity(h).values[0, 0] - h.norm() ** 2) < 1e-10


def test_ambiguity_conjugate_symmetry():
    rng = rng_for("amb-sym")
    for d in (2, 5, 9, 12):
        g = random_signal(rng, d)
        A = ambiguity(g).values
        for k in range(d):
            for l in range(d):
                lhs = A[(-k) % d, (-l) % d]
                rhs = np.exp(-2j * np.pi * k * l / d) * np.conj(A[k, l])
                assert abs(lhs - rhs) < 1e-12 * max(1.0, np.abs(A).max())


def test_relation_transform_factors_measurement():
    rng = rng_for("relation", 6)
    f = random_signal(rng, 6)
    g = random_signal(rng, 6)
    R = relation_transform(measure(f, g)).values
    target = stft(f, f).values * np.conj(stft(g, g).values)
    assert np.abs(R - target).max() < 1e-9 * np.abs(target).max()


def test_relation_transform_zero_and_delta_window():
    assert np.abs(relation_transform(measure(CyclicSignal.zeros(5), CyclicSignal.delta(5))).values).max() == 0.0
    rng = rng_for("relation-delta")
    f = random_signal(rng, 5)
    R = relation_transform(measure(f, CyclicSignal.delta(5))).values
    vff = stft(f, f).values
    assert np.abs(R[0] - vff[0]).max() < 1e-9 * np.abs(vff).max()
    assert np.abs(R[1:]).max() < 1e-9 * np.abs(vff).max()


def test_relation_transform_matches_naive_double_sum():
    rng = rng_for("relation-oracle")
    for d in (2, 3, 7, 16):
        X = measure(random_signal(rng, d), random_signal(rng, d))
        fast = relation_transform(X).values
        naive = naive_relation(X.sq_mag)
        assert np.abs(fast - naive).max() < 1e-12 * np.abs(naive).max()


def test_fast_transforms_match_matrix_oracles_to_d64():
    for d in (24, 48, 64):
        for trial in range(10):
            rng = rng_for("matrix-oracle", d, trial)
            f = random_signal(rng, d)
            g = random_signal(rng, d)
            fast_dft = dft(f.entries)
            ref_dft = naive_dft(f.entries)
            assert np.abs(fast_dft - ref_dft).max() < 1e-12 * np.abs(ref_dft).max()
            fast_tab = stft(f, g).values
            ref_tab = naive_stft(f.entries, g.entries)
            assert np.abs(fast_tab - ref_tab).max() < 1e-12 * np.abs(ref_tab).max()


def test_relation_measure_contract_sweep():
    # 100 random pairs per dimension 2..16
    for d in range(2, 17):
        for trial in range(100):
            rng = rng_for("sweep", d, trial)
            f = random_signal(rng, d)
            g = random_signal(rng, d)
            R = relation_transform(measure(f, g)).values
            target = stft(f, f).values * np.conj(stft(g, g).values)
            assert np.abs(R - target).max() < 1e-9 * np.abs(target).max()


def test_orthogonality_relation_random():
    for d in (2, 5, 11, 32):
        rng = rng_for("orth", d)
        f, f2, g, g2 = (random_signal(rng, d) for _ in range(4))
        lhs = np.sum(stft(f, g).values * np.conj(stft(f2, g2).values))
        rhs = d * np.sum(f.entries * np.conj(f2.entries)) * np.sum(g2.entries * np.conj(g.entries))
        scale = d * f.norm() * f2.norm() * g.norm() * g2.norm()
        assert abs(lhs - rhs) < 1e-9 * scale


def test_embed_line_deltas():
    f, g, d = embed_line({0: 1.0}, {0: 1.0})
    assert d >= 3
    assert np.allclose(f.entries, CyclicSignal.delta(d).entries)
    assert np.allclose(g.entries, CyclicSignal.delta(d).entries)


def test_embed_line_dimension_bound():
    f_map = {j: 1.0 for j in range(10)}
    g_map = {j: 1.0 for j in range(5)}
    _, _, d = embed_line(f_map, g_map)
    assert d >= 31


def test_embed_line_records_offsets_and_no_wrap():
    rng = rng_for("embed")
    f_map = {j: complex(z) for j, z in zip((-3, 0, 2), rng.normal(size=3) + 1j * rng.normal(size=3))}
    g_map = {j: complex(z) for j, z in zip((1, 2, 4), rng.normal(size=3) + 1j * rng.normal(size=3))}
    f, g, d = embed_line(f_map, g_map)
    assert f.origin_offset == -3 and g.origin_offset == 1
    ext = 5 + 3
    for k in range(-ext, ext + 1):
        cyclic = np.sum(f.entries * np.conj(np.roll(g.entries, k)))
        line = sum(
            fv * np.conj(gv)
            for fj, fv in f_map.items()
            for gj, gv in g_map.items()
            if (fj - (-3)) - (gj - 1) == k
        )
        assert abs(cyclic - line) < 1e-12 * max(1.0, abs(line))


def test_embed_line_rejects_empty():
    with pytest.raises(EmptySupport):
        embed_line({}, {0: 1.0})
    with pytest.raises(EmptySupport):
        embed_line({0: 0.0}, {0: 1.0})
