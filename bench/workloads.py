"""Seeded inputs and the ground-truth oracle of each benchmark workload.

stftpr only ever receives the measurement X, the window g and the mode/L
arguments.  The true signal, its support components and the status the
construction implies stay in the ``Item`` for the oracle.

Known defects (ROADMAP item 4) are kept in the batches on purpose; an item
that carries a ``defect`` tag may fail today without making the run
incorrect, and is counted in ``fail_frac`` when it does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from stftpr import serialize, spectral, windows

TOLERANCE = 1e-6  # largest phase-aligned relative error accepted as recovery

UNIQUE = "UniqueUpToGlobalPhase"
PER_COMPONENT = "UniquePerComponent"
RETRIEVABLE = "Retrievable"
NOT_RETRIEVABLE = "NotRetrievable"

# the straddling non-generic window: g = sqrt(coeffs of (1+z)^2 (1+4z+z^2)^2), L = 6
STRADDLE = np.sqrt(np.convolve(np.convolve([1.0, 2.0, 1.0], [1.0, 4.0, 1.0]), [1.0, 4.0, 1.0]))


@dataclass
class Item:
    id: str
    X: object
    g: object
    f: np.ndarray
    components: list[np.ndarray]
    status: str = UNIQUE
    verdict: str = RETRIEVABLE
    defect: str | None = None
    line_L: int | None = None  # recover with recover_line_block instead of recover


@dataclass
class CliItem:
    """One CLI round trip (measure, recover, decide) or one window analysis."""

    id: str
    calls: list[tuple[str, list[str]]]  # (kind, argv after "python -m stftpr.cli")
    f: np.ndarray | None = None
    g: object = None
    files: dict = field(default_factory=dict)
    analysis: dict | None = None  # expected window-analysis fields
    defect: str | None = None


def _rng(seed: int, *branch: int) -> np.random.Generator:
    return np.random.default_rng([seed, *branch])


def _entries(rng: np.random.Generator, n: int) -> np.ndarray:
    # magnitudes bounded away from zero keep the true support unambiguous
    return rng.uniform(0.5, 1.5, size=n) * np.exp(2j * np.pi * rng.uniform(size=n))


def _short_window(d: int, head: np.ndarray):
    v = np.zeros(d, dtype=np.complex128)
    v[: len(head)] = head
    return spectral.CyclicSignal(d, v)


def _rotated(rng: np.random.Generator, g):
    """Same window times a fresh global phase: same class, different bytes."""
    return spectral.CyclicSignal(g.d, np.exp(2j * np.pi * rng.uniform()) * g.entries)


def _with_zero_runs(rng: np.random.Generator, d: int, runs: list[tuple[int, int]]) -> np.ndarray:
    f = _entries(rng, d)
    for start, length in runs:
        f[(start + np.arange(length)) % d] = 0.0
    return f


def _item(item_id: str, f: np.ndarray, g, components=None, **kw) -> Item:
    X = spectral.measure(spectral.CyclicSignal(g.d, f), g)
    return Item(item_id, X, g, f, components or [np.flatnonzero(f)], **kw)


# -- all-shifts --------------------------------------------------------------
# Every shift row is known (hole-free mask) or all but one entry is: the
# partition and the phase propagation walk every shift, and no window repeats
# (fresh dense windows; constructions under a fresh global phase).

def all_shifts_windows(seed: int, small: bool) -> dict:
    center_ds = (16,) if small else range(16, 51, 2)
    dc_ds = (15,) if small else range(15, 36, 2)
    return {
        "center": {d: windows.construct_punctured_center_window(d) for d in center_ds},
        "dc": {d: windows.construct_punctured_dc_window(d, seed=seed) for d in dc_ds},
    }


def all_shifts_batch(win: dict, seed: int, b: int, small: bool) -> list[Item]:
    rng = _rng(seed, 1, b)
    # no d = 1024 full items: their cache-bound walk slows less under host
    # contention than the speed kernel and every other item (see speed.py), so
    # normalised they would drift the other way, and with one per batch they
    # would set batch_s.  The d = 256 items run the same partition and walk.
    full = ((16, 2),) if small else ((256, 8),)
    items = []
    for d, count in full:
        for i in range(count):
            g = spectral.CyclicSignal(d, _entries(rng, d))
            items.append(_item(f"full-d{d}-{i}", _entries(rng, d), g))
    for d, g in win["center"].items():
        # ROADMAP 4a: at d = 40..48 the absolute zero-signal test swallows unit-scale f.
        # 4d's cause, a constant consistency tolerance blind to the tiny |V_gg| of
        # the rescaled d = 50 window, calls about 1 in 500 exact d = 50 items Inconsistent.
        defect = "4a" if 40 <= d <= 48 else "4d" if d == 50 else None
        items.append(_item(f"center-d{d}", _entries(rng, d), _rotated(rng, g), defect=defect))
    for d, g in win["dc"].items():
        items.append(_item(f"dc-d{d}", _entries(rng, d), _rotated(rng, g)))
    return items


# -- band-short --------------------------------------------------------------
# d = 1024 with short windows: a few shared windows serve many signals, so a
# window cache would hit here; propagation is only O(d L).

LINE_SPAN = 250  # line signal span for L = 3; embeds in d = 2 * (250 + 4) + 3 = 511


def band_short_windows(seed: int, small: bool) -> dict:
    d = 16 if small else 1024
    rng = _rng(seed, 2)
    line = {L: dict(enumerate(_entries(rng, L + 1))) for L in (3, 7)}
    span = 6 if small else LINE_SPAN
    return {
        "d": d,
        "generic": {L: _short_window(d, _entries(rng, L + 1)) for L in (3, 7)},
        "box": {L: _short_window(d, np.ones(L + 1)) for L in (3, 7)},
        "straddle": _short_window(d, STRADDLE),
        "line": line,
        "line_span": span,
        "line_probe": spectral.embed_line(dict.fromkeys(range(span - 4), 1.0), line[7])[1],
    }


def band_short_batch(win: dict, seed: int, b: int, small: bool) -> list[Item]:
    rng = _rng(seed, 3, b)
    d = win["d"]
    items = []
    for L, g in win["generic"].items():
        items.append(_item(f"generic-L{L}-connected", _entries(rng, d), g))
        if d < 4 * (L + 2):
            continue
        # two zero runs longer than L split the support into the two arcs between them
        start, half = int(rng.integers(d)), d // 2
        f = _with_zero_runs(rng, d, [(start, L + 2), (start + half, L + 2)])
        arcs = [np.arange(start + L + 2, start + half) % d, np.arange(start + half + L + 2, start + d) % d]
        items.append(_item(f"generic-L{L}-disconnected", f, g, arcs,
                           status=PER_COMPONENT, verdict=NOT_RETRIEVABLE))
    # ROADMAP 4c: the straddling window's recurrence roots lie on both sides of
    # the unit circle and the passes overflow.  Its three items (about 1 s each,
    # in the lstsq fallback) are the batch's slowest, so with 4 batches the
    # recover_tail_ms rank falls inside that one kind of item, not between two.
    shaped = [(f"box-L{L}", g, L, (L + 1, L), None) for L, g in win["box"].items()]
    shaped.append(("straddle-L6", win["straddle"], 6, (7, 6, 6), None if small else "4c"))
    for name, g, L, holes, defect in shaped:
        for i, hole in enumerate(holes):
            f = _with_zero_runs(rng, d, [(int(rng.integers(d)), hole)])
            items.append(_item(f"{name}-hole{hole}-{i}", f, g, defect=defect))
    for L, g_line in win["line"].items():
        # f and g spans add up to the same total for both L, so both embed in one d
        f_line = dict(enumerate(_entries(rng, win["line_span"] - (L - 3))))
        f, g, _ = spectral.embed_line(f_line, g_line)
        items.append(_item(f"line-L{L}", f.entries.copy(), g, line_L=L))
    return items


# -- cli-roundtrip -----------------------------------------------------------
# `python -m stftpr.cli` subprocesses: interpreter start, import and CSV
# parse/emit dominate, not the solvers.  Signals are complex Gaussian: with
# them every power-window round trip trips 4d, where unit-band magnitudes trip
# it for only about 70% of signals and would make fail_frac a coin flip.  The
# dc window trips 4d for about 65% of signals under either law, so it gets one
# signal per batch against the power window's four.

CLI_SIGNALS = {"generic-L3": 1, "generic-L7": 1, "power": 4, "dc": 1}


def cli_windows(seed: int, small: bool) -> dict:
    rng = _rng(seed, 4)
    d = 16 if small else 256
    return {
        "generic-L3": (_short_window(d, _entries(rng, 4)), {"is_generic_short": True, "short_L": 3}, None),
        "generic-L7": (_short_window(d, _entries(rng, 8)), {"is_generic_short": True, "short_L": 7}, None),
        # ROADMAP 4d: the CLI's 12-digit CSV turns exact data Inconsistent
        "power": (windows.construct_power_window(16, 5) if small else windows.construct_power_window(128, 20),
                  {"is_generic_short": True, "short_L": 5 if small else 20}, None if small else "4d"),
        "dc": (windows.construct_punctured_dc_window(15 if small else 31, seed=seed),
               {"is_generic_short": False, "false_count": 2}, None if small else "4d"),
    }


def write_json(path: Path, doc) -> None:
    path.write_text(serialize.dump_json(doc))


def cli_batch(win: dict, seed: int, b: int, workdir: Path) -> list[CliItem]:
    """Write this batch's signal files and return its CLI items."""
    rng = _rng(seed, 5, b)
    items = []
    for name, (g, analysis, defect) in win.items():
        gpath = workdir / f"window-{name}.json"
        out = workdir / f"{name}-analysis.json"
        items.append(CliItem(f"analyze-{name}", [("analyze", ["window", "analyze", "--window", str(gpath),
                                                              "--out", str(out)])],
                             files={"analysis": out}, analysis=analysis))
        for i in range(CLI_SIGNALS[name]):
            f = rng.normal(size=g.d) + 1j * rng.normal(size=g.d)
            stem = workdir / f"{name}-{i}"
            paths = {k: Path(f"{stem}-{k}") for k in ("signal.json", "X.csv", "recover.json", "decide.json")}
            write_json(paths["signal.json"], serialize.signal_to_json(spectral.CyclicSignal(g.d, f)))
            common = ["--measurement", str(paths["X.csv"]), "--window", str(gpath)]
            calls = [
                ("measure", ["measure", "--signal", str(paths["signal.json"]), "--window", str(gpath),
                             "--out", str(paths["X.csv"])]),
                ("recover", ["recover", *common, "--mode", "auto", "--out", str(paths["recover.json"])]),
                ("decide", ["decide", *common, "--out", str(paths["decide.json"])]),
            ]
            items.append(CliItem(f"roundtrip-{name}-{i}", calls, f=f, g=g, files=paths, defect=defect))
    return items


def cli_probe(g, analysis: dict, workdir: Path, count: int = 5) -> list[CliItem]:
    """Window analyses on one workload window, so every workload reports cli_p50_ms."""
    gpath = workdir / "probe-window.json"
    write_json(gpath, serialize.signal_to_json(g))
    out = workdir / "probe-analysis.json"
    argv = ["window", "analyze", "--window", str(gpath), "--out", str(out)]
    return [CliItem(f"cli-probe-{i}", [("analyze", argv)], files={"analysis": out}, analysis=analysis)
            for i in range(count)]


# -- oracle ------------------------------------------------------------------

def aligned_error(f: np.ndarray, est: np.ndarray, components: list[np.ndarray]) -> float:
    """Relative error after the best unimodular phase per true component.

    Mass the estimate puts outside the true support counts as error too.
    """
    fnorm = float(np.linalg.norm(f))
    if est.shape != f.shape or not np.isfinite(est).all():
        return float("inf")
    err2 = 0.0
    covered = np.zeros(f.shape[0], dtype=bool)
    for comp in components:
        fc, ec = f[comp], est[comp]
        ip = np.vdot(fc, ec)
        gamma = ip / abs(ip) if abs(ip) > 0.0 else 1.0
        err2 += float(np.linalg.norm(ec - gamma * fc)) ** 2
        covered[comp] = True
    err2 += float(np.linalg.norm(est[~covered])) ** 2
    return float(np.sqrt(err2)) / fnorm


def check_outcome(item: Item, outcome, decision) -> str | None:
    """Reason the item failed, or None when recover and decide are both right."""
    if outcome.status != item.status:
        return f"status {outcome.status}, expected {item.status}"
    if decision.verdict != item.verdict:
        return f"verdict {decision.verdict}, expected {item.verdict}"
    if outcome.estimate is None:
        return "no estimate"
    err = aligned_error(item.f, np.asarray(outcome.estimate.entries), item.components)
    if not err <= TOLERANCE:
        return f"aligned error {err:.3g} > {TOLERANCE:g}"
    return None


def check_cli(item: CliItem, codes: dict[str, int]) -> str | None:
    """Reason a CLI item failed, or None when every output file is right."""
    if item.analysis is not None:
        if codes["analyze"] != 0:
            return f"window analyze exited {codes['analyze']}"
        doc = json.loads(item.files["analysis"].read_text())
        got = {"false_count": doc["omega"]["false_count"], **doc}
        wrong = {k: got.get(k) for k, v in item.analysis.items() if got.get(k) != v}
        return f"window analysis {wrong}, expected {item.analysis}" if wrong else None
    if codes["measure"] != 0:
        return f"measure exited {codes['measure']}"
    X = np.loadtxt(item.files["X.csv"], delimiter=",", ndmin=2)
    exact = spectral.measure(spectral.CyclicSignal(item.g.d, item.f), item.g).sq_mag
    # 12 printed digits, in the CSV and in the f and g JSON it was measured
    # from, leave each entry within ~3e-11 of the exact value, relative to the peak
    if X.shape != exact.shape or np.abs(X - exact).max() > 1e-10 * exact.max():
        return "measurement CSV differs from the exact measurement beyond 12 digits"
    # every round-trip signal is dense, so its support is connected: the CLI
    # should report a unique recovery and a Retrievable verdict, both with exit 0
    rec = json.loads(item.files["recover.json"].read_text()) if codes["recover"] in (0, 2, 3, 4) else None
    if rec is None or rec["status"] != UNIQUE or codes["recover"] != 0:
        return f"recover status {rec and rec['status']} exit {codes['recover']}, expected {UNIQUE}"
    est = serialize.signal_from_json(rec["estimate"]).entries
    err = aligned_error(item.f, est, [np.flatnonzero(item.f)])
    if not err <= TOLERANCE:
        return f"aligned error {err:.3g} > {TOLERANCE:g}"
    dec = json.loads(item.files["decide.json"].read_text()) if codes["decide"] in (0, 2, 4) else None
    if dec is None or dec["verdict"] != RETRIEVABLE or codes["decide"] != 0:
        return f"decide verdict {dec and dec['verdict']} exit {codes['decide']}, expected {RETRIEVABLE}"
    return None


@dataclass(frozen=True)
class Workload:
    windows: Callable  # (seed, small) -> shared windows: the set-up
    batch: Callable | None  # (windows, seed, batch index, small) -> in-process items
    probe: Callable | None  # (windows) -> (window, expected analysis) for the CLI probe
    # batch wall time on the commit that defined the benchmark; a run measures
    # round(seconds / nominal_batch_s) batches, so every commit times the same items
    nominal_batch_s: float
    speed_kernel: str  # the speed.py kernel shaped like the workload's in-process work


WORKLOADS = {
    "all-shifts": Workload(all_shifts_windows, all_shifts_batch,
                           lambda w: (w["center"][max(w["center"])], {"is_generic_short": False, "false_count": 1}),
                           4.0, "walk"),
    # the probe analyses the embedded line window (d = 511): a d = 1024 analysis costs ~1 s a call
    "band-short": Workload(band_short_windows, band_short_batch,
                           lambda w: (w["line_probe"], {"is_generic_short": True, "short_L": 7}), 6.0, "table"),
    "cli-roundtrip": Workload(cli_windows, None, None, 6.0, "walk"),
}


def shuffled(items: list, seed: int, b: int) -> list:
    """Seeded order, so each kind of item samples the whole run, not one stretch of it."""
    return [items[i] for i in _rng(seed, 6, b).permutation(len(items))]


def setup_windows(name: str, seed: int, small: bool) -> dict:
    """The workload's set-up: its shared windows and window constructions."""
    return WORKLOADS[name].windows(seed, small)
