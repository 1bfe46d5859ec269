"""Golden routing outputs: every decision, every recovery mode, and the CLI.

``tests/golden/routing.json`` holds, for each case below, the full
``decide_retrievability`` document, the ``recover(...).to_json()`` document for
``auto`` and for each explicit mode (or the name of the exception that mode
raises, or ``"same-as-auto"`` when the mode's document equals auto's), and for
a few cases the stdout and exit code of the CLI's ``recover``, ``decide`` and
``window analyze``.  It pins the route order and
every route's applicability test, so a change to the dispatch that moves any
case to another route, note or exception shows here.  Regenerate it only when
an output is meant to change:

    PYTHONPATH=src python tests/test_golden_routing.py --write

which prints, for each case it changes, the paths that are not numbers and
how far the numbers drifted (``helpers.drift_report``).
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    changed_cases,
    drift_report,
    forced_zero_window,
    isolated_zeros_signal,
    numeric_drift,
    random_signal,
    rng_for,
)
from stftpr import serialize
from stftpr.cli import main
from stftpr.recovery import MODES, decide_retrievability, recover
from stftpr.spectral import CyclicSignal, measure
from stftpr.windows import classify_window, construct_punctured_dc_window
from test_golden_propagation import golden_cases

GOLDEN = Path(__file__).resolve().parent / "golden" / "routing.json"
CLI_CASES = (
    "full-d16",
    "generic-L3-disconnected",
    "hole-box-L3-len4",
    "center-d20",
    "dc-d15",
    "sparse-d32-disconnected",
    "comb-box-d8-L3",
    "undecidable-box-d64-L2-dense",
    "zero-box-d8-L3",
)


def _box(d, L):
    v = np.zeros(d, dtype=np.complex128)
    v[: L + 1] = 1.0
    return CyclicSignal(d, v)


def routing_cases(seed: int = 0) -> list[tuple[str, object, CyclicSignal]]:
    """Non-line propagation cases plus the comb, zero, partial-row, undecidable and hole-note shapes."""
    cases = [(case_id, X, g) for case_id, X, g, line_L in golden_cases(seed) if line_L is None]

    comb = CyclicSignal(8, np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=complex))
    cases.append(("comb-box-d8-L3", measure(comb, _box(8, 3)), _box(8, 3)))
    cases.append(("zero-box-d8-L3", measure(CyclicSignal.zeros(8), _box(8, 3)), _box(8, 3)))

    rng = rng_for("golden-routing-forced-zero", seed)
    g = forced_zero_window(rng, 12, 4)
    cases.append(("forced-zero-dense", measure(random_signal(rng, 12), g), g))
    cases.append(("hole-forced-zero-long", measure(random_signal(rng, 12, support=range(7)), g), g))
    cases.append(("hole-forced-zero-split", measure(random_signal(rng, 12, support=(0, 6)), g), g))

    # box L=2: rows +-1 vanish at l = 32; isolated zeros pin them, a dense signal
    # does not, and the steps +-2 alone split it into even and odd indices
    rng = rng_for("golden-routing-box-L2", seed)
    g = _box(64, 2)
    cases.append(("box-d64-L2-isolated-zeros", measure(isolated_zeros_signal(rng, 64, 3), g), g))
    cases.append(("undecidable-box-d64-L2-dense", measure(random_signal(rng, 64), g), g))

    rng = rng_for("golden-routing-dc", seed)
    g = construct_punctured_dc_window(11, seed=1)
    cases.append(("dc-d11-hole-routes", measure(random_signal(rng, 11), g), g))
    return cases


def _decide_doc(X, g) -> dict:
    decision = decide_retrievability(X, classify_window(g))
    return {
        "verdict": decision.verdict,
        "partition": decision.partition.to_json() if decision.partition is not None else None,
        "notes": {k: v for k, v in sorted(decision.notes.items())},
        "witnesses": [serialize.signal_to_json(w) for w in decision.witnesses],
    }


def _recover_doc(X, g, mode) -> dict:
    try:
        return recover(X, g, mode=mode).to_json()
    except Exception as exc:  # the exception class is part of each mode's contract
        return {"raises": type(exc).__name__}


def _cli_doc(X, g) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        x_path, g_path = Path(tmp) / "X.csv", Path(tmp) / "g.json"
        x_path.write_text(serialize.measurement_to_csv(X))
        g_path.write_text(serialize.dump_json(serialize.signal_to_json(g)))
        runs = {
            "recover": ["recover", "--measurement", str(x_path), "--window", str(g_path)],
            "decide": ["decide", "--measurement", str(x_path), "--window", str(g_path)],
            "window-analyze": ["window", "analyze", "--window", str(g_path)],
        }
        doc = {}
        for name, argv in runs.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            doc[name] = {"exit": code, "stdout": out.getvalue()}
        return doc


def routing_document(seed: int = 0) -> str:
    doc = {}
    for case_id, X, g in routing_cases(seed):
        recovered = {mode: _recover_doc(X, g, mode) for mode in MODES}
        # an explicit mode that reproduces auto's document is stored by reference
        for mode in MODES[1:]:
            if recovered[mode] == recovered["auto"]:
                recovered[mode] = "same-as-auto"
        entry = {"decide": _decide_doc(X, g), "recover": recovered}
        if case_id in CLI_CASES:
            entry["cli"] = _cli_doc(X, g)
        doc[case_id] = entry
    return serialize.dump_json(doc)


def test_routing_outputs_match_golden():
    actual, expected = routing_document(), GOLDEN.read_text()
    changed = changed_cases(actual, expected)
    assert not changed, f"cases whose output changed: {', '.join(changed)}"
    assert actual == expected


def test_changed_cases_names_the_first_differing_leaf():
    stdout = serialize.dump_json({"notes": {"route": "center"}, "status": "Inconsistent"})
    old = {"a": {"cli": {"recover": {"stdout": stdout}}}, "b": {"x": [1, 2]}, "c": {"x": 1}, "gone": {}}
    new = {
        "a": {"cli": {"recover": {"stdout": stdout.replace("Inconsistent", "UniqueUpToGlobalPhase")}}},
        "b": {"x": [1, 2, 3]},
        "c": {"x": 1, "y": 2},
        "new": {},
    }
    assert changed_cases(serialize.dump_json(new), serialize.dump_json(old)) == [
        "a: cli.recover.stdout.status",
        "b: x[2]",
        "c: y",
        "gone: removed",
        "new: added",
    ]
    spaced = {"a": {"cli": {"recover": {"stdout": stdout.replace(": ", ":  ")}}}}
    assert changed_cases(serialize.dump_json(spaced), serialize.dump_json({"a": old["a"]})) == ["a: layout"]


def test_numeric_drift_separates_roundoff_from_other_changes():
    def stdout(residual, status):
        return serialize.dump_json({"notes": {"route": "hole-4"}, "residual": residual, "status": status})

    old = {
        "a": {"residual": 2.0, "estimate": {"re": [1.0, -4.0, 0.5]}, "cli": {"stdout": stdout(1e-15, "Unique")}},
        "b": {"x": [1, 2], "ok": True, "n": 3.0, "route": "hole-4"},
        "c": {"cli": {"stdout": stdout(1.0, "Unique")}},
        "same": {"x": 1.0},
        "gone": {},
    }
    new = {
        "a": {
            "residual": 2.0 + 4e-16,
            "estimate": {"re": [1.0, -4.0 * (1 + 1e-15), 0.5]},
            "cli": {"stdout": stdout(3e-15, "Unique")},
        },
        "b": {"x": [1, 2, 3], "ok": False, "n": None, "route": "hole-5"},
        "c": {"cli": {"stdout": stdout(1.0, "Unique").replace(": ", ":  ")}},
        "same": {"x": 1.0},
        "new": {},
    }
    report = numeric_drift(serialize.dump_json(new), serialize.dump_json(old))
    assert sorted(report) == ["a", "b", "c", "gone", "new"]
    a = report["a"]
    assert a["other"] == [] and sorted(a["drift"]) == ["cli.stdout.residual", "estimate.re[1]", "residual"]
    assert a["drift"]["residual"] == pytest.approx(2e-16, rel=0.5)
    assert a["drift"]["estimate.re[1]"] == pytest.approx(1e-15, rel=0.5)
    assert a["drift"]["cli.stdout.residual"] == pytest.approx(2 / 3)
    assert report["b"] == {"drift": {}, "other": ["n", "ok", "route", "x[2]"]}
    assert report["c"] == {"drift": {}, "other": ["layout"]}
    assert report["gone"]["other"] == ["removed"] and report["new"]["other"] == ["added"]

    lines = drift_report(serialize.dump_json(new), serialize.dump_json(old)).splitlines()
    assert lines[:2] == [
        "a: 3 numeric leaves, largest drift 0.667; other: none",
        "b: no numeric leaf; other: n, ok, route, x[2]",
    ]
    assert drift_report(serialize.dump_json(old), serialize.dump_json(old)) == "no case changed"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_routing.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    document = routing_document()
    print(drift_report(document, GOLDEN.read_text() if GOLDEN.exists() else "{}"))
    GOLDEN.write_text(document)
