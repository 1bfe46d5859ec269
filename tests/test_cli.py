import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_short_window, random_signal, rng_for
from stftpr import serialize, windows
from stftpr.cli import build_parser, main
from stftpr.recovery import compare_up_to_phase
from stftpr.spectral import SpectrogramMeasurement, measure


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_signal(path, sig):
    path.write_text(serialize.dump_json(serialize.signal_to_json(sig)))


def test_measure_then_recover_round_trip(workdir, capsys):
    rng = rng_for("cli-golden")
    f = random_signal(rng, 8)
    g = random_short_window(rng, 8, 3)
    write_signal(workdir / "f.json", f)
    write_signal(workdir / "g.json", g)

    rc = main(["measure", "--signal", "f.json", "--window", "g.json", "--out", "X.csv"])
    assert rc == 0
    rc = main(["recover", "--measurement", "X.csv", "--window", "g.json", "--mode", "auto", "--out", "r.json"])
    assert rc == 0
    result = json.loads((workdir / "r.json").read_text())
    assert result["status"] == "UniqueUpToGlobalPhase"
    est = serialize.signal_from_json(result["estimate"])
    assert compare_up_to_phase(f, est)[1] < 1e-7


def test_recover_exit_codes_per_component(workdir):
    rng = rng_for("cli-percomp")
    g = random_short_window(rng, 8, 3)
    f = random_signal(rng, 8, support=[0, 4])
    write_signal(workdir / "f.json", f)
    write_signal(workdir / "g.json", g)
    assert main(["measure", "--signal", "f.json", "--window", "g.json", "--out", "X.csv"]) == 0
    assert main(["recover", "--measurement", "X.csv", "--window", "g.json", "--out", "r.json"]) == 2


def test_window_construct_punctured_center(workdir, capsys):
    rc = main(["window", "construct", "--kind", "punctured-center", "--d", "8"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega"]["mask_false"] == [[4, 4]]


def test_window_construct_punctured_dc_out_of_range_is_a_data_error(workdir, capsys):
    rc = main(["window", "construct", "--kind", "punctured-dc", "--d", "36", "--seed", "1"])
    assert rc == 65
    assert "punctured-dc certificate not representable at d = 36" in capsys.readouterr().err


def test_window_analyze_reports_class(workdir, capsys):
    rng = rng_for("cli-analyze")
    g = random_short_window(rng, 10, 3)
    write_signal(workdir / "g.json", g)
    assert main(["window", "analyze", "--window", "g.json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["short_L"] == 3
    assert doc["is_generic_short"] is True
    assert doc["difference_set"]["modulus"] == 10


def test_counterexample_periodic_self_check(workdir, capsys):
    rc = main(["counterexample", "periodic", "--d", "8", "--L", "3", "--r", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.strip().endswith("self-check: PASS")


def test_counterexample_small_d(workdir, capsys):
    assert main(["counterexample", "small-d", "--d", "3", "--k", "1", "--l", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_decide_exit_codes(workdir):
    rng = rng_for("cli-decide")
    g = random_short_window(rng, 8, 3)
    write_signal(workdir / "g.json", g)
    f = random_signal(rng, 8, support=[0, 1, 2])
    write_signal(workdir / "f.json", f)
    assert main(["measure", "--signal", "f.json", "--window", "g.json", "--out", "X.csv"]) == 0
    assert main(["decide", "--measurement", "X.csv", "--window", "g.json", "--out", "d.json"]) == 0
    f2 = random_signal(rng, 8, support=[0, 4])
    write_signal(workdir / "f2.json", f2)
    assert main(["measure", "--signal", "f2.json", "--window", "g.json", "--out", "X2.csv"]) == 0
    assert main(["decide", "--measurement", "X2.csv", "--window", "g.json", "--out", "d2.json"]) == 2


def test_usage_and_data_error_exit_codes(workdir, capsys):
    assert main(["recover", "--measurement", "missing.csv", "--window", "also-missing.json"]) == 65
    assert main(["recover", "--window", "g.json"]) == 64
    assert main(["window", "construct", "--kind", "punctured-dc", "--d", "7"]) == 64
    assert main(["recover", "--measurement", "x", "--window", "y", "--tau-rel", "-1"]) == 64
    capsys.readouterr()


def test_tolerances_outside_the_open_unit_interval_are_usage_errors(workdir, capsys):
    # on an exact dense d=16 measurement these used to reach the solvers: a wild
    # --tau-supp made recover Inconsistent and decide Retrievable with no components
    g = random_signal(rng_for("cli-tol-window"), 16)
    write_signal(workdir / "g.json", g)
    (workdir / "X.csv").write_text(serialize.measurement_to_csv(measure(random_signal(rng_for("cli-tol"), 16), g)))
    files = ["--measurement", "X.csv", "--window", "g.json"]
    for flag in ("--tau-rel", "--tau-supp"):
        for value in ("nan", "inf", "0", "1", "2", "-1"):
            for command in ("recover", "decide"):
                capsys.readouterr()
                assert main([command, *files, flag, value]) == 64, (command, flag, value)
                assert flag in capsys.readouterr().err
        assert main(["window", "analyze", "--window", "g.json", flag, "nan"]) == 64
        assert main(["recover", *files, flag, "1e-9"]) == 0
    assert main(["decide", *files]) == 0
    capsys.readouterr()


def test_seed_env_fallback(workdir, monkeypatch, capsys):
    monkeypatch.setenv("STFTPR_SEED", "13")
    assert main(["window", "construct", "--kind", "punctured-dc", "--d", "7", "--out", "g1.json"]) == 0
    monkeypatch.delenv("STFTPR_SEED")
    assert main(["window", "construct", "--kind", "punctured-dc", "--d", "7", "--seed", "13", "--out", "g2.json"]) == 0
    assert (workdir / "g1.json").read_bytes() == (workdir / "g2.json").read_bytes()


def test_byte_identical_reruns(workdir):
    rng = rng_for("cli-deterministic")
    f = random_signal(rng, 6)
    g = random_short_window(rng, 6, 2)
    write_signal(workdir / "f.json", f)
    write_signal(workdir / "g.json", g)
    for name in ("a", "b"):
        assert main(["measure", "--signal", "f.json", "--window", "g.json", "--out", f"X{name}.csv"]) == 0
    assert (workdir / "Xa.csv").read_bytes() == (workdir / "Xb.csv").read_bytes()
    for name in ("a", "b"):
        assert main(["recover", "--measurement", "Xa.csv", "--window", "g.json", "--out", f"r{name}.json"]) == 0
    assert (workdir / "ra.json").read_bytes() == (workdir / "rb.json").read_bytes()


def test_measure_json_format(workdir, capsys):
    rng = rng_for("cli-json")
    f = random_signal(rng, 4)
    g = random_signal(rng, 4)
    write_signal(workdir / "f.json", f)
    write_signal(workdir / "g.json", g)
    assert main(["measure", "--signal", "f.json", "--window", "g.json", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d"] == 4 and len(doc["sq_mag"]) == 4


def test_line_difference_construct(workdir, capsys):
    assert main(["window", "construct", "--kind", "line-difference", "--n-terms", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["positions"] == [0, 2, 3, 14, 18]


def test_counterexample_delta_line_mode(workdir, capsys):
    assert main(["counterexample", "delta", "--line", "--n-terms", "6", "--drop", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_recover_mode_choices_are_the_route_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    mode = next(a for a in sub.choices["recover"]._actions if a.dest == "mode")
    assert tuple(mode.choices) == ("auto", "known")


def test_non_coprime_dc_pair_recovers_undecidable(workdir, monkeypatch, capsys):
    monkeypatch.setattr(windows, "lstar", lambda d: 3)
    g = windows.construct_punctured_dc_window(9, seed=1)
    write_signal(workdir / "g.json", g)
    (workdir / "X.csv").write_text(serialize.measurement_to_csv(measure(random_signal(rng_for("cli-dc-lstar"), 9), g)))
    capsys.readouterr()
    assert main(["recover", "--measurement", "X.csv", "--window", "g.json"]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "Undecidable" and "l*=3" in doc["notes"]["reason"]
    assert main(["decide", "--measurement", "X.csv", "--window", "g.json"]) == 4
    assert main(["recover", "--measurement", "X.csv", "--window", "g.json", "--mode", "known"]) == 65
    # the dc-pair mode is gone: naming it is a usage error
    assert main(["recover", "--measurement", "X.csv", "--window", "g.json", "--mode", "dcpair"]) == 64


def test_cli_import_leaves_the_battery_unloaded():
    # only selftest and counterexample need these; every other command skips loading them
    code = "import sys, stftpr.cli; print(sorted(m for m in ('stftpr.acceptance', 'stftpr.adversary') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_non_finite_measurement_is_refused(workdir):
    g = windows.construct_power_window(16, 3)
    sq_mag = measure(random_signal(rng_for("cli-nan"), 16), g).sq_mag.copy()
    for bad in (np.nan, np.inf):
        sq_mag[2, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            SpectrogramMeasurement(16, sq_mag)
    rows = serialize.measurement_to_csv(measure(random_signal(rng_for("cli-nan"), 16), g)).splitlines()
    cells = rows[2].split(",")
    cells[5] = "nan"
    rows[2] = ",".join(cells)
    (workdir / "X.csv").write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="finite"):
        serialize.measurement_from_csv((workdir / "X.csv").read_text())
    write_signal(workdir / "g.json", g)
    assert main(["recover", "--measurement", "X.csv", "--window", "g.json"]) == 65
    assert main(["decide", "--measurement", "X.csv", "--window", "g.json"]) == 65
