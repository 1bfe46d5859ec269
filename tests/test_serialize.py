import numpy as np
import pytest

from helpers import random_signal, rng_for
from stftpr import serialize
from stftpr.spectral import CyclicSignal, SpectrogramMeasurement, measure


def test_signal_json_round_trip():
    rng = rng_for("sig-json")
    f = random_signal(rng, 6)
    doc = serialize.signal_to_json(f)
    back = serialize.signal_from_json(doc)
    assert back.d == 6
    assert np.abs(back.entries - f.entries).max() < 1e-11 * f.norm()
    assert back.origin_offset is None


def test_signal_json_keeps_origin_offset():
    f = CyclicSignal(5, np.ones(5), origin_offset=-2)
    doc = serialize.signal_to_json(f)
    assert doc["origin_offset"] == -2
    assert serialize.signal_from_json(doc).origin_offset == -2


def test_signal_json_rejects_malformed():
    with pytest.raises(ValueError):
        serialize.signal_from_json({"d": 3, "re": [1, 2], "im": [0, 0, 0]})
    with pytest.raises(ValueError):
        serialize.signal_from_json({"re": [1], "im": [0]})


def test_measurement_csv_round_trip_and_validation():
    rng = rng_for("meas-csv")
    X = measure(random_signal(rng, 4), random_signal(rng, 4))
    back = serialize.measurement_from_csv(serialize.measurement_to_csv(X))
    assert np.abs(back.sq_mag - X.sq_mag).max() < 1e-10 * X.sq_mag.max()
    with pytest.raises(ValueError):
        serialize.measurement_from_csv("1.0,2.0\n-5.0,1.0\n")
    with pytest.raises(ValueError):
        serialize.measurement_from_csv("1.0,2.0\n3.0\n")


def test_twelve_significant_digits():
    assert serialize.format_float(1.0 / 3.0) == "0.333333333333"


def test_csv_rows_print_as_each_cell_alone():
    # one format operation a row writes the bytes that formatting each cell alone writes
    rng = rng_for("csv-rows")
    for d in (1, 2, 17):
        m = rng.random((d, d)) * 10.0 ** rng.integers(-300, 300, (d, d)).astype(float)
        m.flat[:4] = [0.0, 5e-324, 1e-310, 1e300][: m.size]
        X = SpectrogramMeasurement(d, m)
        per_cell = "\n".join(",".join(serialize.format_float(x) for x in row) for row in X.sq_mag) + "\n"
        assert serialize.measurement_to_csv(X) == per_cell
