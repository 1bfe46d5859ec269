"""The record of a plan kept on the measurement.

Every plan with no declared zero set (full, generic, hole, punctured center,
punctured dc) reads the support once and is recorded on X, and
``decide_retrievability`` reads it before planning again; ``recover`` records
it and never reads it.  These tests check that no call order or support
threshold makes the two entry points disagree, that the record is keyed by the
window's bytes, both thresholds, L and the window's certificate, and that it
holds no array and no error.
"""

from __future__ import annotations

import gc
import json
from dataclasses import fields

import numpy as np
import pytest
from helpers import random_entries, random_signal, rng_for
from stftpr import recovery, serialize
from stftpr.connectivity import ConnectivityPartition
from stftpr.linemode import recover_line_block
from stftpr.acceptance import random_short_window
from stftpr.recovery import STATUS_UNDECIDABLE, VERDICT_RETRIEVABLE, _plan_key, decide_retrievability, recover
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


def _counting(monkeypatch, name: str, record=lambda args: args) -> list:
    calls = []
    function = getattr(recovery, name)

    def counting(*args, **kwargs):
        calls.append(record(args))
        return function(*args, **kwargs)

    monkeypatch.setattr(recovery, name, counting)
    return calls


def _counting_plans(monkeypatch) -> list:
    return _counting(monkeypatch, "_plan_known", lambda args: args[1].window)


def _hole_item():
    """A box window of width 4 on Z_32 and a signal with one hole of length 4: a recorded hole plan."""
    g = _box(32, 3)
    return measure(_with_zero_runs(rng_for("plan-record-hole"), 32, [(5, 4)]), g), g


def _as_stored(doc: dict) -> dict:
    return json.loads(serialize.dump_json(doc))


def test_decide_reads_the_same_report_in_any_call_order(monkeypatch):
    # every routing case: decide before recover, after it and on a fresh equal X gives the golden
    # decision, recover gives the same outcome either way, and recover records every plan that
    # succeeds, so decide after it plans again only when recover's plan failed
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
        failed = outcome["status"] == STATUS_UNDECIDABLE
        assert len(calls) == failed, case_id
        assert bool(vars(after).get("_plans")) == (not failed and outcome["notes"].get("case") != "zero-signal"), case_id
        assert _as_stored(_decide_doc(fresh, g)) == before, case_id
        assert outcome_after_decide == outcome, case_id
        if vars(after).get("_plans"):
            recorded.add(case_id.split("-")[0])
        else:  # a plan that fails is never stored
            assert not vars(first).get("_plans") and not vars(fresh).get("_plans"), case_id
    assert "Undecidable" in {golden[case_id]["decide"]["verdict"] for case_id in golden}
    assert {"center", "dc", "hole", "full", "generic", "power"} <= recorded


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
    full, power = CyclicSignal(16, random_entries(rng, 16)), construct_power_window(64, 3)
    recorded.append((measure(random_signal(rng, 16), full), full))
    recorded.append((measure(random_signal(rng, 64), power), power))
    routes = []
    for X, g in recorded:
        routes.append(recover(X, g).notes["route"])
        (key, (certificate, summary)), = vars(X)["_plans"].items()
        assert certificate() is classify_window(g).omega
        assert set(summary) <= {"route", "L", "zero_set", "partition"}
        assert summary["route"] == routes[-1] and summary.get("L") == (3 if g is power else None)
        leaves = list(_leaves((key, summary)))
        assert all(isinstance(leaf, (str, bytes, int, float, type(None))) for leaf in leaves), summary
    assert routes == ["known"] * 3 + ["full", "generic"]
    # a plan that fails is never stored
    box = _box(32, 3)
    X = measure(random_signal(rng, 32), box)
    assert recover(X, box).notes["route"] == "auto"  # no hole: AnchorInvalid
    decide_retrievability(X, classify_window(box))
    assert not vars(X).get("_plans")
    # a declared zero set (line mode's span) is another plan than decide's, so it is never recorded
    X, g = _line_item(rng)
    assert recover_line_block(X, g, 7).notes["zero_set"] == "span" and not vars(X).get("_plans")
    assert decide_retrievability(X, classify_window(g)).notes == decide_retrievability(_fresh(X), classify_window(g)).notes


def test_a_decision_after_recover_reads_the_support_no_more(monkeypatch):
    # on a generic L=3 window at d=1024, recover reads the support once, off X's row sums, and
    # the decision after it reads the partition recover's plan judged: no plan, no support read
    rng = rng_for("plan-record-generic-1024")
    g = construct_power_window(1024, 3)
    X = measure(random_signal(rng, 1024), g)
    plans = _counting_plans(monkeypatch)
    reads = _counting(monkeypatch, "_row0_support")
    outcome = recover(X, g)
    assert outcome.notes["route"] == "generic" and (len(plans), len(reads)) == (1, 1)
    plans.clear()
    reads.clear()
    decision = decide_retrievability(X, classify_window(g))
    assert (plans, reads) == ([], [])
    assert decision.partition == outcome.components and decision.notes["L"] == 3


@pytest.mark.parametrize("window", ("power", "random"))
def test_recover_and_decide_agree_at_every_support_threshold(window):
    # generic L=3 windows at d=64 and signals that vanish on 10..13 and 40..43: the divided
    # row 0 there is roundoff, so thresholds from 1e-17 to 1e-13 cut through it.  Both entry
    # points read one support, so on a fresh X each they return the same components, and
    # one component is exactly Retrievable
    rng = rng_for("plan-record-threshold", window)
    d, L = 64, 3
    for _ in range(6):
        g = construct_power_window(d, L) if window == "power" else random_short_window(rng, d, L)
        X = measure(_with_zero_runs(rng, d, [(10, 4), (40, 4)]), g)
        for tau_supp in np.geomspace(1e-17, 1e-13, 25):
            outcome = recover(_fresh(X), g, tau_supp=tau_supp)
            decision = decide_retrievability(_fresh(X), classify_window(g), tau_supp=tau_supp)
            assert outcome.notes["route"] == "generic", outcome.notes
            assert outcome.components.components == decision.partition.components, tau_supp
            assert (outcome.components.n_components == 1) == (decision.verdict == VERDICT_RETRIEVABLE), tau_supp
