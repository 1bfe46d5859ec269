"""Randomized cross-checks: a claimed reconstruction must reproduce the
measurement it came from, and corrupted data must never pass silently."""

import numpy as np
import pytest

from helpers import random_entries, random_short_window, random_signal, random_sparse_window, rng_for
from stftpr.errors import AnchorInvalid, StftprError
from stftpr.recovery import (
    STATUS_INCONSISTENT,
    STATUS_PER_COMPONENT,
    STATUS_UNDECIDABLE,
    STATUS_UNIQUE,
    is_inconsistent,
    recover,
)
from stftpr.spectral import CyclicSignal, SpectrogramMeasurement, measure
from stftpr.windows import (
    construct_punctured_center_window,
    construct_punctured_dc_window,
)


def random_scenario(rng):
    kind = int(rng.integers(0, 5))
    if kind == 0:  # dense window, hole-free mask
        d = int(rng.integers(5, 17))
        g = random_signal(rng, d)
        f = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.7] or [0])
    elif kind == 1:  # generic short window, arbitrary support
        d = int(rng.integers(5, 17))
        L = int(rng.integers(1, (d - 1) // 2 + 1))
        g = random_short_window(rng, d, L)
        f = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.6] or [0])
    elif kind == 2:  # short window, signal with a guaranteed long hole
        d = int(rng.integers(7, 17))
        L = 2
        g = random_short_window(rng, d, L)
        j_star = int(rng.integers(0, d))
        supp = [(j_star + L + 1 + off) % d for off in range(d - L - 1) if rng.uniform() < 0.8]
        f = random_signal(rng, d, support=supp or [(j_star + L + 1) % d])
    elif kind == 3:
        d = 2 * int(rng.integers(2, 9))
        g = construct_punctured_center_window(d)
        f = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.5] or [0])
    else:
        d = int(rng.integers(5, 17))
        g = construct_punctured_dc_window(d, seed=int(rng.integers(0, 2**31)))
        f = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.5] or [0])
    return f, g


def test_fuzz_estimates_reproduce_their_measurements():
    undecidable = 0
    for trial in range(300):
        rng = rng_for("fuzz", trial)
        f, g = random_scenario(rng)
        X = measure(f, g)
        out = recover(X, g, mode="auto")
        assert out.status in (STATUS_UNIQUE, STATUS_PER_COMPONENT, STATUS_UNDECIDABLE), (
            trial, out.status, out.notes,
        )
        if out.status == STATUS_UNDECIDABLE:
            undecidable += 1
            continue
        X2 = measure(out.estimate, g)
        scale = max(float(X.sq_mag.max()), 1e-300)
        assert np.abs(X2.sq_mag - X.sq_mag).max() < 1e-7 * scale, (trial, out.notes)
    # the scenarios above all admit an implemented route
    assert undecidable == 0


def assert_flagged_or_honest(out, g, bad, context) -> bool:
    """True when the outcome flags the data; otherwise its residual and its estimate must both hold up.

    A verdict on corrupted data is silent unless the estimate's own measurement
    reproduces the corrupted X, and the residual it reports is within the
    consistency tolerance at the scale of the estimate's largest squared entry.
    """
    if out.status in (STATUS_INCONSISTENT, STATUS_UNDECIDABLE):
        return True
    peak = float(np.abs(out.estimate.entries).max()) ** 2
    assert not is_inconsistent(out.residual, peak), (context, out.status, out.residual, peak, out.notes)
    gap = float(np.abs(measure(out.estimate, g).sq_mag - bad).max())
    assert gap <= 1e-6 * float(bad.max()), (context, out.status, gap, out.notes)
    return False


def test_fuzz_corrupted_measurements_never_pass_silently():
    flagged = 0
    for trial in range(100):
        rng = rng_for("fuzz-bad", trial)
        d = int(rng.integers(7, 15))
        L = 2
        g = random_short_window(rng, d, L)
        j_star = int(rng.integers(0, d))
        supp = [(j_star + L + 1 + off) % d for off in range(d - L - 1)]
        f = random_signal(rng, d, support=supp)
        X = measure(f, g)
        bad = X.sq_mag.copy()
        # multiplicative corruption of a random band entry
        k = int(rng.integers(0, d))
        l = int(rng.integers(0, d))
        bad[k, l] *= 1.3
        bad_X = SpectrogramMeasurement(d, bad)
        try:
            out = recover(bad_X, g, mode="auto")
        except (AnchorInvalid, StftprError):
            flagged += 1
            continue
        flagged += assert_flagged_or_honest(out, g, bad, trial)
    assert flagged >= 50  # the majority of corruptions are detected outright


def corrupted_known_scenario(rng, kind: str):
    """A known-route window and a gapped signal, with one to three X entries scaled by 0.9-1.5.

    ``band``: a short window of width L = 1..3, whose band rows leave a gapped
    support with few or no phase cycles.  ``sparse``: a window of 2-7 random
    taps, whose difference set is neither a band nor all of Z_d.
    """
    if kind == "band":
        d = int(rng.integers(7, 17))
        g = random_short_window(rng, d, int(rng.integers(1, 4)))
    else:
        d = int(rng.choice([16, 32]))
        g = random_sparse_window(rng, d)
    f = random_signal(rng, d, support=[j for j in range(d) if rng.uniform() < 0.6] or [0])
    bad = measure(f, g).sq_mag.copy()
    n = int(rng.integers(1, 4))
    bad[rng.integers(0, d, size=n), rng.integers(0, d, size=n)] *= rng.uniform(0.9, 1.5, size=n)
    return g, bad


@pytest.mark.parametrize("kind", ["band", "sparse"])
def test_fuzz_corrupted_known_route_never_passes_silently(kind):
    flagged = 0
    for trial in range(150):
        g, bad = corrupted_known_scenario(rng_for("fuzz-bad-known", kind, trial), kind)
        out = recover(SpectrogramMeasurement(g.d, bad), g, mode="auto")
        flagged += assert_flagged_or_honest(out, g, bad, trial)
    assert flagged >= 75
