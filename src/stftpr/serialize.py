"""JSON/CSV wire formats for signals and measurements.

Signal JSON: ``{"d": int, "re": [...], "im": [...]}`` plus an optional
``origin_offset`` for line-mode embedded signals.  Measurement matrices are
CSV of plain floats.  All floats are printed with 12 significant digits.
"""

from __future__ import annotations

import json

import numpy as np

from .spectral import CyclicSignal, SpectrogramMeasurement

SIG_DIGITS = 12
_FMT = f"%.{SIG_DIGITS}g"


def format_float(x: float) -> str:
    return _FMT % float(x)


def round_float(x: float) -> float:
    """Round to the printed precision so JSON output is platform-stable."""
    return float(format_float(x))


def signal_to_json(sig: CyclicSignal) -> dict:
    doc = {
        "d": sig.d,
        "re": [round_float(x) for x in sig.entries.real],
        "im": [round_float(x) for x in sig.entries.imag],
    }
    if sig.origin_offset is not None:
        doc["origin_offset"] = sig.origin_offset
    return doc


def signal_from_json(doc: dict) -> CyclicSignal:
    try:
        d = int(doc["d"])
        re_part = [float(x) for x in doc["re"]]
        im_part = [float(x) for x in doc["im"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed signal document: {exc}") from exc
    if len(re_part) != d or len(im_part) != d:
        raise ValueError(f"signal document length mismatch (d={d})")
    entries = np.array(re_part, dtype=np.float64) + 1j * np.array(im_part, dtype=np.float64)
    if not np.isfinite(entries.view(np.float64)).all():
        raise ValueError("signal document contains non-finite entries")
    offset = doc.get("origin_offset")
    return CyclicSignal(d, entries, origin_offset=None if offset is None else int(offset))


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_json(text: str):
    return json.loads(text)


def measurement_to_csv(X: SpectrogramMeasurement) -> str:
    line = ",".join([_FMT] * X.d) + "\n"  # one format operation a row
    return "".join(line % tuple(row) for row in X.sq_mag.tolist())


def measurement_from_csv(text: str) -> SpectrogramMeasurement:
    rows = [line for line in text.strip().splitlines() if line.strip()]
    values = [[float(cell) for cell in line.split(",")] for line in rows]
    d = len(values)
    if any(len(row) != d for row in values):
        raise ValueError("measurement CSV must be square")
    arr = np.array(values, dtype=np.float64)
    # values straddling zero at printed precision are clipped, real negatives rejected, against the CSV's own peak
    if arr.min() < -1e-12 * np.abs(arr).max():
        raise ValueError("measurement CSV contains negative entries")
    np.clip(arr, 0.0, None, out=arr).setflags(write=False)  # handed over, not copied
    return SpectrogramMeasurement(d, arr)
