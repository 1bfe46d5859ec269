import numpy as np
import pytest

from helpers import random_entries, rng_for
from stftpr.errors import InconsistentData, InsufficientSamples
from stftpr.linemode import recover_line_block, recover_line_limited
from stftpr.recovery import STATUS_INCONSISTENT, STATUS_PER_COMPONENT, STATUS_UNIQUE, compare_up_to_phase
from stftpr.spectral import CyclicSignal, embed_line, measure


def line_setup(rng, supp, L):
    f_map = {j: complex(z) for j, z in zip(supp, random_entries(rng, len(supp)))}
    g_map = {j: complex(z) for j, z in zip(range(L + 1), random_entries(rng, L + 1))}
    f_emb, g_emb, d = embed_line(f_map, g_map)
    return f_map, f_emb, g_emb, d


def test_line_block_connected_recovery():
    rng = rng_for("lb1")
    f_map, f_emb, g_emb, d = line_setup(rng, [0, 1, 3, 5], L=2)
    out = recover_line_block(measure(f_emb, g_emb), g_emb, 2)
    assert out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f_emb, out.estimate)[1] < 1e-9


def test_line_block_disconnected_per_component():
    rng = rng_for("lb2")
    f_map, f_emb, g_emb, d = line_setup(rng, [0, 1, 8, 9], L=2)
    out = recover_line_block(measure(f_emb, g_emb), g_emb, 2)
    assert out.status == STATUS_PER_COMPONENT and out.free_phases == 2
    for comp in out.components.components:
        proj = np.zeros(d, dtype=complex)
        proj[list(comp)] = f_emb.entries[list(comp)]
        est = np.zeros(d, dtype=complex)
        est[list(comp)] = out.estimate.entries[list(comp)]
        assert compare_up_to_phase(CyclicSignal(d, proj), CyclicSignal(d, est))[1] < 1e-9


def test_line_block_box_window_with_structural_zeros():
    # the all-ones block window has ambiguity zeros on the sample grid; the
    # row solve must work around them
    rng = rng_for("lb3")
    supp = [0, 2, 4, 6]
    f_map = {j: complex(z) for j, z in zip(supp, random_entries(rng, len(supp)))}
    g_map = {j: 1.0 + 0.0j for j in range(3)}
    f_emb, g_emb, d = embed_line(f_map, g_map)
    out = recover_line_block(measure(f_emb, g_emb), g_emb, 2)
    assert out.status == STATUS_UNIQUE
    assert compare_up_to_phase(f_emb, out.estimate)[1] < 1e-9


@pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
def test_line_block_completion_residual_ignores_the_window_scale(scale):
    rng = rng_for("line-scale")
    f_map = dict(enumerate(random_entries(rng, 12)))
    g_map = {j: scale * z for j, z in enumerate(random_entries(rng, 4))}
    f_emb, g_emb, d = embed_line(f_map, g_map)
    out = recover_line_block(measure(f_emb, g_emb), g_emb, 3)
    assert out.status == STATUS_UNIQUE, out.notes
    assert out.residual < 1e-12
    assert compare_up_to_phase(f_emb, out.estimate)[1] < 1e-8


def test_line_block_span_bound_shorter_than_the_signal_is_inconsistent():
    # no autocorrelation row confined to the short span reproduces the data, so
    # the estimate misses the relation rows, rather than a wrong estimate passing as unique
    rng = rng_for("line-short-span")
    for L in (1, 2, 3):
        for span in range(6, 14):
            f_map = dict(enumerate(random_entries(rng, span)))
            g_map = dict(enumerate(random_entries(rng, L + 1)))
            f_emb, g_emb, d = embed_line(f_map, g_map)
            X = measure(f_emb, g_emb)
            exact = recover_line_block(X, g_emb, L, f_span_bound=span)
            assert exact.status == STATUS_UNIQUE and compare_up_to_phase(f_emb, exact.estimate)[1] < 1e-9
            for short in (1, 2):
                out = recover_line_block(X, g_emb, L, f_span_bound=span - short)
                assert out.status == STATUS_INCONSISTENT, (L, span, short)


def make_samples(f, kstar, extent, rows=None, n_small=None):
    n_nodes = 2 * extent + 7
    nodes = np.exp(2j * np.pi * np.arange(n_nodes) / n_nodes)

    def vff(k, z):
        return complex(sum(f[j] * np.conj(f[j - k]) * z ** (-j) for j in range(k, extent + 1)))

    samples = {0: [(z, vff(0, z)) for z in nodes[: extent + 2]]}
    small = n_small if n_small is not None else kstar + 1
    for k in range(1, kstar + 1):
        picks = nodes[1 : 1 + small]
        samples[k] = [(z, vff(k, z)) for z in picks]
    for k in range(kstar + 1, extent + 1):
        samples[k] = [(z, vff(k, z)) for z in nodes[: extent + 2]]
    if rows is not None:
        samples = {k: v for k, v in samples.items() if k in rows}
    return samples


def aligned_error(f, sig, extent):
    est = np.zeros(extent + 1, dtype=complex)
    for j, v in sig.items():
        est[j] = v
    gamma = complex(np.vdot(f, est))
    gamma = gamma / abs(gamma) if abs(gamma) > 0 else 1.0
    return float(np.linalg.norm(est - gamma * f) / np.linalg.norm(f))


def test_line_limited_compact_induction_path():
    rng = rng_for("ll1")
    extent = 3  # span <= 2 k* forces the inward walk
    f = np.zeros(extent + 1, dtype=complex)
    f[:] = random_entries(rng, extent + 1)
    sig, res = recover_line_limited(make_samples(f, 2, extent), 2, extent)
    assert aligned_error(f, sig, extent) < 1e-9
    assert res < 1e-9


def test_line_limited_wide_shortcut_path():
    rng = rng_for("ll2")
    extent = 6
    f = np.zeros(extent + 1, dtype=complex)
    f[0], f[6] = random_entries(rng, 2)
    sig, _ = recover_line_limited(make_samples(f, 2, extent), 2, extent)
    assert aligned_error(f, sig, extent) < 1e-9


def test_line_limited_delta():
    extent = 4
    f = np.zeros(extent + 1, dtype=complex)
    f[0] = 2.0
    sig, _ = recover_line_limited(make_samples(f, 2, extent), 2, extent)
    assert set(sig) == {0} and abs(sig[0] - 2.0) < 1e-12


def test_line_limited_requires_small_row_samples():
    rng = rng_for("ll3")
    extent = 3
    f = np.zeros(extent + 1, dtype=complex)
    f[:] = random_entries(rng, extent + 1)
    short = make_samples(f, 2, extent, n_small=2)  # needs k*+1 = 3
    with pytest.raises(InsufficientSamples):
        recover_line_limited(short, 2, extent)
    missing = make_samples(f, 2, extent, rows={0, 1, 2})  # row 3 absent but needed
    with pytest.raises(InsufficientSamples):
        recover_line_limited(missing, 2, extent)


def test_line_limited_detects_inconsistent_samples():
    rng = rng_for("ll4")
    extent = 3
    f = np.zeros(extent + 1, dtype=complex)
    f[:] = random_entries(rng, extent + 1)
    samples = make_samples(f, 2, extent)
    z, v = samples[3][0]
    samples[3][0] = (z, v + 0.3)
    with pytest.raises(InconsistentData):
        recover_line_limited(samples, 2, extent)


def test_line_limited_agrees_with_block_recovery():
    rng = rng_for("ll5")
    supp = [0, 1, 2, 3]
    extent = 3
    f = np.zeros(extent + 1, dtype=complex)
    f[supp] = random_entries(rng, len(supp))
    sig, _ = recover_line_limited(make_samples(f, 2, extent), 2, extent)

    f_map = {j: complex(f[j]) for j in supp}
    g_map = {j: complex(z) for j, z in zip(range(3), random_entries(rng, 3))}
    f_emb, g_emb, d = embed_line(f_map, g_map)
    out = recover_line_block(measure(f_emb, g_emb), g_emb, 2)

    est_lim = np.zeros(d, dtype=complex)
    for j, v in sig.items():
        est_lim[j] = v
    gamma, err = compare_up_to_phase(CyclicSignal(d, est_lim), out.estimate)
    assert err < 1e-9
