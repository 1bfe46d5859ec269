"""Command-line interface: measurement synthesis, window work, recovery,
decisions, counterexamples and the acceptance selftest.

Exit codes: 0 success / unique recovery, 2 per-component recovery or a
not-retrievable decision, 3 inconsistent data, 4 undecidable, 64 usage error,
65 malformed input file.  Randomized commands require --seed (or the
STFTPR_SEED environment variable).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .errors import StftprError
from .recovery import (
    MODES,
    STATUS_INCONSISTENT,
    STATUS_PER_COMPONENT,
    STATUS_UNDECIDABLE,
    STATUS_UNIQUE,
    VERDICT_NOT_RETRIEVABLE,
    VERDICT_RETRIEVABLE,
    VERDICT_UNDECIDABLE,
    decide_retrievability,
    recover,
)
from .spectral import CyclicSignal, measure
from .windows import (
    classify_window,
    construct_line_difference_window,
    construct_power_window,
    construct_punctured_center_window,
    construct_punctured_dc_window,
    line_difference_positions,
)

EXIT_OK = 0
EXIT_PER_COMPONENT = 2
EXIT_INCONSISTENT = 3
EXIT_UNDECIDABLE = 4
EXIT_USAGE = 64
EXIT_DATA = 65

_STATUS_EXIT = {
    STATUS_UNIQUE: EXIT_OK,
    STATUS_PER_COMPONENT: EXIT_PER_COMPONENT,
    STATUS_INCONSISTENT: EXIT_INCONSISTENT,
    STATUS_UNDECIDABLE: EXIT_UNDECIDABLE,
}
_VERDICT_EXIT = {
    VERDICT_RETRIEVABLE: EXIT_OK,
    VERDICT_NOT_RETRIEVABLE: EXIT_PER_COMPONENT,
    VERDICT_UNDECIDABLE: EXIT_UNDECIDABLE,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_signal(path: str) -> CyclicSignal:
    try:
        return serialize.signal_from_json(serialize.load_json(Path(path).read_text()))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise _DataError(f"cannot read signal {path}: {exc}") from exc


def _read_measurement(path: str):
    try:
        return serialize.measurement_from_csv(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise _DataError(f"cannot read measurement {path}: {exc}") from exc


class _DataError(Exception):
    pass


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(args, required: bool) -> int | None:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("STFTPR_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise _UsageError(f"STFTPR_SEED must be an integer, got {env!r}") from exc
    if required:
        raise _UsageError("this command is randomized: pass --seed or set STFTPR_SEED")
    return None


def _tolerances(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau-rel", type=float, default=1e-9, help="relative ambiguity-zero threshold")
    parser.add_argument("--tau-supp", type=float, default=1e-10, help="relative support threshold")


def _check_tolerances(args) -> None:
    """Both thresholds are fractions of a peak: finite and strictly between 0 and 1 (NaN fails)."""
    for name in ("tau_rel", "tau_supp"):
        value = getattr(args, name, 0.5)
        if not 0.0 < value < 1.0:
            raise _UsageError(f"--{name.replace('_', '-')} must lie strictly between 0 and 1, got {value}")


def _window_summary(g: CyclicSignal, tau_rel: float, max_entries: int = 1000) -> dict:
    report = classify_window(g, tau_rel)
    unset = ~report.omega.mask
    doc = {
        "d": g.d,
        "support": list(report.support),
        "canonical_shift": report.canonical_shift,
        "short_L": report.short_L,
        "is_generic_short": report.is_generic_short,
        "is_full": report.is_full,
        "real_valued": report.real_valued,
        "difference_set": {
            "modulus": report.dg.modulus,
            "members": sorted(report.dg.members),
        },
        "omega": {
            "threshold": serialize.round_float(report.omega.threshold),
            "threshold_rule": report.omega.threshold_rule,
            "false_count": int(np.count_nonzero(unset)),
            "mask_false": np.argwhere(unset)[:max_entries].tolist(),
        },
    }
    return doc


def _cmd_measure(args) -> int:
    f = _read_signal(args.signal)
    g = _read_signal(args.window)
    X = measure(f, g)
    if args.format == "json":
        doc = {"d": X.d, "sq_mag": [[serialize.round_float(x) for x in row] for row in X.sq_mag]}
        _emit(serialize.dump_json(doc), args.out)
    else:
        _emit(serialize.measurement_to_csv(X), args.out)
    return EXIT_OK


def _cmd_window(args) -> int:
    if args.window_cmd == "analyze":
        g = _read_signal(args.window)
        _emit(serialize.dump_json(_window_summary(g, args.tau_rel)), args.out)
        return EXIT_OK

    kind = args.kind
    if kind == "power":
        if args.d is None or args.L is None:
            raise _UsageError("power window needs --d and --L")
        g = construct_power_window(args.d, args.L)
    elif kind == "box":
        if args.d is None or args.L is None:
            raise _UsageError("box window needs --d and --L")
        v = np.zeros(args.d, dtype=np.complex128)
        v[: args.L + 1] = 1.0
        g = CyclicSignal(args.d, v)
    elif kind == "punctured-center":
        if args.d is None:
            raise _UsageError("punctured-center window needs --d")
        g = construct_punctured_center_window(args.d)
    elif kind == "punctured-dc":
        if args.d is None:
            raise _UsageError("punctured-dc window needs --d")
        seed = _resolve_seed(args, required=True)
        g = construct_punctured_dc_window(args.d, seed=seed, tau_rel=args.tau_rel)
    elif kind == "line-difference":
        if args.n_terms is None:
            raise _UsageError("line-difference window needs --n-terms")
        window = construct_line_difference_window(args.n_terms, [1.0] * args.n_terms)
        doc = {
            "positions": line_difference_positions(args.n_terms),
            "coeffs_re": [serialize.round_float(c.real) for c in window.values()],
            "coeffs_im": [serialize.round_float(c.imag) for c in window.values()],
        }
        _emit(serialize.dump_json(doc), args.out)
        return EXIT_OK
    else:  # pragma: no cover - argparse restricts choices
        raise _UsageError(f"unknown window kind {kind}")

    doc = serialize.signal_to_json(g)
    doc.update(_window_summary(g, args.tau_rel))
    _emit(serialize.dump_json(doc), args.out)
    return EXIT_OK


def _cmd_recover(args) -> int:
    X = _read_measurement(args.measurement)
    g = _read_signal(args.window)
    outcome = recover(X, g, mode=args.mode, L=args.L, tau_rel=args.tau_rel, tau_supp=args.tau_supp)
    _emit(serialize.dump_json(outcome.to_json()), args.out)
    return _STATUS_EXIT[outcome.status]


def _cmd_decide(args) -> int:
    X = _read_measurement(args.measurement)
    g = _read_signal(args.window)
    report = classify_window(g, args.tau_rel)
    decision = decide_retrievability(X, report, args.tau_rel, args.tau_supp)
    doc = {
        "verdict": decision.verdict,
        "partition": decision.partition.to_json() if decision.partition else None,
        "notes": {k: v for k, v in sorted(decision.notes.items())},
        "witnesses": [serialize.signal_to_json(w) for w in decision.witnesses],
    }
    _emit(serialize.dump_json(doc), args.out)
    return _VERDICT_EXIT[decision.verdict]


def _bundle_doc(bundle) -> dict:
    return {
        "window": serialize.signal_to_json(bundle.window),
        "signals": [serialize.signal_to_json(s) for s in bundle.signals],
        "max_measurement_gap": serialize.round_float(bundle.max_measurement_gap),
        "measurement_scale": serialize.round_float(bundle.measurement_scale),
        "pairwise_phase_err": serialize.round_float(bundle.pairwise_phase_err),
        "valid": bundle.is_valid(),
    }


def _cmd_counterexample(args) -> int:
    from .adversary import delta_pair, periodic_family, real_even_pair, small_d_witness
    kind = args.family
    if kind == "periodic":
        bundle = periodic_family(args.d, args.L, args.r)
    elif kind == "delta":
        if args.line:
            n = args.n_terms if args.n_terms is not None else 6
            drop = args.drop if args.drop is not None else 2
            window = construct_line_difference_window(n, [1.0] * n)
            positions = sorted(window)
            if not (0 < drop < len(positions)):
                raise _UsageError("--drop must name an interior term index")
            dropped_pos = positions[drop]
            truncated = {p: c for p, c in window.items() if p != dropped_pos}
            k = dropped_pos - positions[drop - 1]
            bundle = delta_pair(k, truncated)
        else:
            if args.d is None or args.k is None:
                raise _UsageError("cyclic delta pair needs --d and --k")
            if args.window:
                g = _read_signal(args.window)
            else:
                v = np.zeros(args.d, dtype=np.complex128)
                v[0] = v[1] = 1.0
                g = CyclicSignal(args.d, v)
            bundle = delta_pair(args.k, g, d=args.d)
    elif kind == "real-even":
        if args.d is None:
            raise _UsageError("real-even pair needs --d")
        if args.window:
            bundle = real_even_pair(args.d, window=_read_signal(args.window))
        else:
            bundle = real_even_pair(args.d, seed=_resolve_seed(args, required=True))
    elif kind == "small-d":
        if args.d is None or args.k is None or args.l is None:
            raise _UsageError("small-d witness needs --d --k --l")
        bundle = small_d_witness(args.d, (args.k, args.l))
    else:  # pragma: no cover
        raise _UsageError(f"unknown counterexample family {kind}")

    _emit(serialize.dump_json(_bundle_doc(bundle)), args.out)
    ok = bundle.is_valid()
    print(f"self-check: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1


def _cmd_selftest(args) -> int:
    from .acceptance import DEFAULT_SEED, run_all
    seed = _resolve_seed(args, required=False)
    results = run_all(DEFAULT_SEED if seed is None else seed)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="stftpr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="synthesize a squared-magnitude measurement")
    p.add_argument("--signal", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("window", help="analyze or construct windows")
    wsub = p.add_subparsers(dest="window_cmd", required=True)
    pa = wsub.add_parser("analyze")
    pa.add_argument("--window", required=True)
    pa.add_argument("--out")
    _tolerances(pa)
    pc = wsub.add_parser("construct")
    pc.add_argument("--kind", required=True,
                    choices=("power", "box", "punctured-center", "punctured-dc", "line-difference"))
    pc.add_argument("--d", type=int)
    pc.add_argument("--L", type=int)
    pc.add_argument("--n-terms", type=int)
    pc.add_argument("--seed", type=int)
    pc.add_argument("--out")
    _tolerances(pc)
    p.set_defaults(func=_cmd_window)

    p = sub.add_parser("recover", help="reconstruct a signal from a measurement")
    p.add_argument("--measurement", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--mode", choices=MODES, default="auto")
    p.add_argument("--L", type=int)
    p.add_argument("--out")
    _tolerances(p)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("decide", help="decide retrievability from the measurement alone")
    p.add_argument("--measurement", required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--out")
    _tolerances(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("counterexample", help="generate a self-verifying counterexample bundle")
    csub = p.add_subparsers(dest="family", required=True)
    pp = csub.add_parser("periodic")
    pp.add_argument("--d", type=int, required=True)
    pp.add_argument("--L", type=int, required=True)
    pp.add_argument("--r", type=int, required=True)
    pp.add_argument("--out")
    pd = csub.add_parser("delta")
    pd.add_argument("--d", type=int)
    pd.add_argument("--k", type=int)
    pd.add_argument("--window")
    pd.add_argument("--line", action="store_true")
    pd.add_argument("--n-terms", type=int)
    pd.add_argument("--drop", type=int)
    pd.add_argument("--out")
    pr = csub.add_parser("real-even")
    pr.add_argument("--d", type=int, required=True)
    pr.add_argument("--window")
    pr.add_argument("--seed", type=int)
    pr.add_argument("--out")
    ps = csub.add_parser("small-d")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--l", type=int, required=True)
    ps.add_argument("--out")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_tolerances(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StftprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
