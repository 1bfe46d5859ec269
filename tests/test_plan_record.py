"""The record of a plan kept on the measurement.

A plan that read X with no declared zero set (hole, punctured center,
punctured dc) is recorded on X, and ``decide_retrievability`` reads it before
planning again; ``recover`` records it and never reads it.  These tests check
that no call order changes either answer, that the record is keyed by the
window's bytes, both thresholds, L and the window's certificate, and that it
holds no array and no error.
"""

from __future__ import annotations

import gc
import json
from dataclasses import fields

from helpers import random_entries, random_signal, rng_for
from stftpr import recovery, serialize
from stftpr.connectivity import ConnectivityPartition
from stftpr.linemode import recover_line_block
from stftpr.recovery import _plan_key, decide_retrievability, recover
from stftpr.spectral import CyclicSignal, SpectrogramMeasurement, measure
from stftpr.windows import (
    classify_window,
    construct_power_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
)
from test_band_rows import _line_item
from test_golden_propagation import _box, _with_zero_runs
from test_golden_routing import GOLDEN, _decide_doc, routing_cases


def _fresh(X: SpectrogramMeasurement) -> SpectrogramMeasurement:
    """An equal measurement with no record, over its own copy of the bytes."""
    return SpectrogramMeasurement(X.d, X.sq_mag.copy())


def _counting_plans(monkeypatch) -> list:
    calls = []
    plan = recovery._plan_known

    def counting(*args, **kwargs):
        calls.append(args[1].window)
        return plan(*args, **kwargs)

    monkeypatch.setattr(recovery, "_plan_known", counting)
    return calls


def _hole_item():
    """A box window of width 4 on Z_32 and a signal with one hole of length 4: a recorded hole plan."""
    g = _box(32, 3)
    return measure(_with_zero_runs(rng_for("plan-record-hole"), 32, [(5, 4)]), g), g


def _as_stored(doc: dict) -> dict:
    return json.loads(serialize.dump_json(doc))


def test_decide_reads_the_same_report_in_any_call_order(monkeypatch):
    # every routing case: decide before recover, after it and on a fresh equal X gives the golden
    # decision, recover gives the same outcome either way, and decide after recover plans again
    # exactly when recover recorded nothing
    golden = json.loads(GOLDEN.read_text())
    calls = _counting_plans(monkeypatch)
    recorded = set()
    for case_id, X, g in routing_cases():
        first, after, fresh = _fresh(X), _fresh(X), _fresh(X)
        before = _as_stored(_decide_doc(first, g))
        outcome_after_decide = recover(first, g).to_json()
        outcome = recover(after, g).to_json()
        calls.clear()
        assert _as_stored(_decide_doc(after, g)) == before == golden[case_id]["decide"], case_id
        planned = not vars(after).get("_plans") and before["notes"].get("case") != "zero-signal"
        assert len(calls) == planned, case_id
        assert _as_stored(_decide_doc(fresh, g)) == before, case_id
        assert outcome_after_decide == outcome, case_id
        if vars(after).get("_plans"):
            recorded.add(case_id.split("-")[0])
        else:  # whole-row plans read no X, and a plan that fails is never stored
            assert not vars(first).get("_plans") and not vars(fresh).get("_plans"), case_id
    assert "Undecidable" in {golden[case_id]["decide"]["verdict"] for case_id in golden}
    assert {"center", "dc", "hole"} <= recorded and not recorded & {"full", "generic", "power"}


def test_a_different_window_threshold_band_or_certificate_misses_the_record(monkeypatch):
    X, g = _hole_item()
    recover(X, g)
    report = classify_window(g)
    assert list(vars(X)["_plans"]) == [_plan_key(report, None, 1e-9, 1e-10)]
    assert _plan_key(report, 3, 1e-9, 1e-10) not in vars(X)["_plans"]
    calls = _counting_plans(monkeypatch)
    decide_retrievability(X, report)
    assert calls == []
    wider = CyclicSignal(32, 2.0 * g.entries)  # the same class, other bytes
    misses = [
        (wider, dict()),
        (g, dict(tau_rel=2e-9)),
        (g, dict(tau_supp=2e-10)),
    ]
    for window, thresholds in misses:
        calls.clear()
        got = decide_retrievability(X, classify_window(window), **thresholds)
        assert len(calls) == 1 and calls[0] is window, thresholds
        fresh = decide_retrievability(_fresh(X), classify_window(window), **thresholds)
        assert (got.verdict, got.partition, got.notes) == (fresh.verdict, fresh.partition, fresh.notes)
    # the same window certified at another threshold: same key, other certificate
    calls.clear()
    other = classify_window(g, 1e-6)
    decide_retrievability(X, other)
    assert len(calls) == 1


def test_a_record_dies_with_its_certificate(monkeypatch):
    X, g = _hole_item()
    recover(X, g)
    twin = CyclicSignal(32, g.entries)
    del g
    gc.collect()
    calls = _counting_plans(monkeypatch)
    decide_retrievability(X, classify_window(twin))
    assert len(calls) == 1  # the twin's certificate is a new one, so the old record does not answer for it
    calls.clear()
    decide_retrievability(X, classify_window(twin))
    assert calls == []  # that decision recorded its own plan


def _leaves(value):
    if isinstance(value, dict):
        for item in value.values():
            yield from _leaves(item)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _leaves(item)
    elif isinstance(value, ConnectivityPartition):
        for field in fields(value):
            yield from _leaves(getattr(value, field.name))
    else:
        yield value


def test_the_record_holds_no_array_and_no_error():
    rng = rng_for("plan-record-leaves")
    recorded = [_hole_item()]
    g = construct_punctured_center_window(16)
    recorded.append((measure(random_signal(rng, 16), g), g))
    g = construct_punctured_dc_window(15, seed=1)
    recorded.append((measure(random_signal(rng, 15), g), g))
    for X, g in recorded:
        recover(X, g)
        (key, (certificate, summary)), = vars(X)["_plans"].items()
        assert certificate() is classify_window(g).omega
        assert set(summary) <= {"route", "L", "zero_set", "partition"}
        leaves = list(_leaves((key, summary)))
        assert all(isinstance(leaf, (str, bytes, int, float, type(None))) for leaf in leaves), summary
    # whole-row plans read no X, and a plan that fails is never stored
    full, power, box = CyclicSignal(16, random_entries(rng, 16)), construct_power_window(64, 3), _box(32, 3)
    for X, g, route in [
        (measure(random_signal(rng, 16), full), full, "full"),
        (measure(random_signal(rng, 64), power), power, "generic"),
        (measure(random_signal(rng, 32), box), box, "auto"),  # no hole: AnchorInvalid
    ]:
        assert recover(X, g).notes["route"] == route
        decide_retrievability(X, classify_window(g))
        assert not vars(X).get("_plans"), route
    # a declared zero set (line mode's span) is another plan than decide's, so it is never recorded
    X, g = _line_item(rng)
    assert recover_line_block(X, g, 7).notes["zero_set"] == "span" and not vars(X).get("_plans")
    assert decide_retrievability(X, classify_window(g)).notes == decide_retrievability(_fresh(X), classify_window(g)).notes
