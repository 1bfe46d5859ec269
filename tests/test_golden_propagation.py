"""Golden outputs of every route that ends in phase propagation.

``tests/golden/propagation.json`` holds, for each seeded case below, the
``recover(...).to_json()`` document and the ``decide_retrievability`` verdict
and partition.  It was captured before the phase walk was vectorised, and the
rewrite must reproduce it byte for byte.  Regenerate it only when an output is
meant to change:

    PYTHONPATH=src python tests/test_golden_propagation.py --write

which prints, for each case it changes, the paths that are not numbers and
how far the numbers drifted (``helpers.drift_report``).
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from helpers import (
    changed_cases,
    drift_report,
    random_entries,
    random_short_window,
    random_signal,
    random_sparse_window,
    rng_for,
)
from oracles import union_find_components
from stftpr import serialize
from stftpr.linemode import recover_line_block
from stftpr.recovery import decide_retrievability, recover
from stftpr.spectral import CyclicSignal, embed_line, measure
from stftpr.windows import (
    classify_window,
    construct_power_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "propagation.json"


def _with_zero_runs(rng, d, runs):
    f = random_signal(rng, d)
    v = f.entries.copy()
    for start, length in runs:
        v[(start + np.arange(length)) % d] = 0.0
    return CyclicSignal(d, v)


def _box(d, L):
    v = np.zeros(d, dtype=np.complex128)
    v[: L + 1] = 1.0
    return CyclicSignal(d, v)


def _walk(rng, d, steps, n) -> list[int]:
    """Points of an n-step random walk over the steps: a support the steps leave connected."""
    moves = rng.choice(sorted(steps), size=n)
    return sorted(set(((int(rng.integers(d)) + np.cumsum(moves)) % d).tolist()))


def golden_cases(seed: int = 0) -> list[tuple[str, object, CyclicSignal, int | None]]:
    """Seeded (case id, measurement, window, line L or None) tuples, one per route shape."""
    cases = []

    def add(case_id, f, g, line_L=None):
        cases.append((case_id, measure(f, g), g, line_L))

    for d in (16, 64, 256):
        rng = rng_for("golden-full", d, seed)
        g = CyclicSignal(d, random_entries(rng, d))
        add(f"full-d{d}", random_signal(rng, d), g)
    rng = rng_for("golden-full-sparse", seed)
    g = CyclicSignal(64, random_entries(rng, 64))
    add("full-d64-sparse", random_signal(rng, 64, support=(3, 40, 41)), g)

    for d in range(16, 51, 2):
        rng = rng_for("golden-center", d, seed)
        add(f"center-d{d}", random_signal(rng, d), construct_punctured_center_window(d))
    rng = rng_for("golden-center-pairs", seed)
    add("center-d16-antipodal", random_signal(rng, 16, support=(3, 11)), construct_punctured_center_window(16))
    add("center-d16-two-point", random_signal(rng, 16, support=(3, 9)), construct_punctured_center_window(16))

    for d in range(15, 36, 2):
        rng = rng_for("golden-dc", d, seed)
        add(f"dc-d{d}", random_signal(rng, d), construct_punctured_dc_window(d, seed=1))

    d = 64
    for L, starts in ((3, (10, 40)), (7, (20, 50))):
        runs = [(start, L + 2) for start in starts]
        rng = rng_for("golden-generic", L, seed)
        g = random_short_window(rng, d, L)
        add(f"generic-L{L}-connected", random_signal(rng, d), g)
        # the second arc runs past index d-1 back to 0
        add(f"generic-L{L}-disconnected", _with_zero_runs(rng, d, runs), g)

    rng = rng_for("golden-power", seed)
    add("power-d128-L20", random_signal(rng, 128), construct_power_window(128, 20))

    for L in (3, 7):
        rng = rng_for("golden-hole", L, seed)
        for hole in (L + 1, L):
            add(f"hole-box-L{L}-len{hole}", _with_zero_runs(rng, d, [(int(rng.integers(d)), hole)]), _box(d, L))

    for L in (3, 7):
        rng = rng_for("golden-line", L, seed)
        g_line = dict(enumerate(random_entries(rng, L + 1)))
        f_line = dict(enumerate(random_entries(rng, 12)))
        f, g, _ = embed_line(f_line, g_line)
        add(f"line-L{L}", f, g, L)

    # sparse windows: the mask is D_g x Z_d, with D_g neither a band nor all of Z_d
    for d in (32, 256):
        rng = rng_for("golden-sparse", d, seed)
        g = random_sparse_window(rng, d)
        steps = classify_window(g).dg.members - {0}
        add(f"sparse-d{d}-connected", random_signal(rng, d, _walk(rng, d, steps, d // 4)), g)
        if d == 32:
            supp = []
            while len(union_find_components(supp, d, steps)) < 2:
                supp = _walk(rng, d, steps, 2) + _walk(rng, d, steps, 2)
            add(f"sparse-d{d}-disconnected", random_signal(rng, d, supp), g)
            continue
        # one component steps from d-3 across index 0, the other is a point no step reaches
        arc = [(d - 3 + i * min(steps)) % d for i in range(4)]
        far = next(j for j in rng.permutation(d).tolist() if all((j - a) % d not in steps for a in arc))
        add(f"sparse-d{d}-disconnected-wrap", random_signal(rng, d, [*arc, far]), g)

    # the CLI's 12-digit CSV round trip exercises the Inconsistent paths
    by_id = {case[0]: case for case in cases}
    for case_id in ("full-d64", "center-d20", "dc-d31", "generic-L3-connected", "power-d128-L20", "hole-box-L3-len4", "line-L3"):
        _, X, g, line_L = by_id[case_id]
        rounded = serialize.measurement_from_csv(serialize.measurement_to_csv(X))
        cases.append((f"{case_id}-csv12", rounded, g, line_L))
    return cases


def golden_document(seed: int = 0) -> str:
    doc = {}
    for case_id, X, g, line_L in golden_cases(seed):
        if line_L is not None:
            doc[case_id] = {"recover": recover_line_block(X, g, line_L).to_json(), "decide": None}
            continue
        decision = decide_retrievability(X, classify_window(g))
        partition = decision.partition.to_json() if decision.partition is not None else None
        doc[case_id] = {
            "recover": recover(X, g, mode="auto").to_json(),
            "decide": {"verdict": decision.verdict, "partition": partition},
        }
    return serialize.dump_json(doc)


def test_propagation_outputs_match_golden():
    actual, expected = golden_document(), GOLDEN.read_text()
    changed = changed_cases(actual, expected)
    assert not changed, f"cases whose output changed: {', '.join(changed)}"
    assert actual == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_propagation.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    document = golden_document()
    print(drift_report(document, GOLDEN.read_text() if GOLDEN.exists() else "{}"))
    GOLDEN.write_text(document)
