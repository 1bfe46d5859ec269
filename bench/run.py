"""Layered benchmark for stftpr.

    python3 bench/run.py --workload all-shifts --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --seed 1             # every workload, one after another
    python3 bench/run.py --smoke              # d = 16 end-to-end check of the harness

Run from the root of a checkout.  The load is a closed loop with one caller in
one process: each item is one ``recover(X, g, mode="auto")`` followed by one
``classify_window`` + ``decide_retrievability`` on the same input, or one CLI
round trip.  With ``--trace 0`` the last line of standard output is a JSON
object holding every end-to-end metric named in BENCHMARK.json; with
``--trace 1`` it holds every per-layer metric instead.  Every time is
normalised to the uncontended reference host (see speed.py).  Details (provenance,
failing item ids, tail percentile, counters) go to ``.bench_out/``.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7  # fresh-process set-up measurements per run
CLI_PROBES = 15  # window-analysis subprocesses per run on workloads without their own CLI calls
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples above it

# per-layer time metrics: span names whose self times they sum
LAYER_TIMES = {
    "recovery.propagate_phases_ms": ["recovery.propagate_phases"],
    "recovery.route_self_ms": ["recovery.recover", "recovery.decide_retrievability"],
    "recovery.recover_with_hole_ms": ["recovery.recover_with_hole"],
    "recovery.hole_classifier_ms": ["recovery.hole_classifier"],
    "recovery.measurement_coeffs_ms": ["recovery.measurement_coeffs"],
    "recovery.recover_autocorrelations_ms": ["recovery.recover_autocorrelations"],
    "spectral.stft_ms": ["spectral.stft"],
    "spectral.relation_transform_ms": ["spectral.relation_transform"],
    "windows.omega_mask_ms": ["windows.omega_mask"],
    "windows.classify_window_ms": ["windows.classify_window"],
    "windows.canonical_anchor_ms": ["windows.canonical_anchor"],
    "connectivity.components_ms": ["connectivity.components_mod_d", "connectivity.components_line"],
    "linemode.recover_line_block_ms": ["linemode.recover_line_block"],
    "serialize.measurement_from_csv_ms": ["serialize.measurement_from_csv"],
    "serialize.measurement_to_csv_ms": ["serialize.measurement_to_csv"],
    "serialize.json_ms": ["serialize.dump_json", "serialize.load_json",
                          "serialize.signal_to_json", "serialize.signal_from_json"],
    "cli.main_ms": ["cli.main"],
}
LAYER_CALLS = {
    "recovery.propagate_phases_calls": ["recovery.propagate_phases"],
    "spectral.stft_calls": ["spectral.stft"],
    "spectral.relation_transform_calls": ["spectral.relation_transform"],
    "windows.omega_mask_calls": ["windows.omega_mask"],
    "connectivity.components_calls": ["connectivity.components_mod_d", "connectivity.components_line"],
}
CONSTRUCTIONS = ["windows.construct_power_window", "windows.construct_punctured_center_window",
                 "windows.construct_punctured_dc_window"]
TRACED = sorted({n for names in LAYER_TIMES.values() for n in names} | set(CONSTRUCTIONS))


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout(f"child process ran longer than {CHILD_TIMEOUT_S} s")


def run_child(argv: list[str], env: dict) -> tuple[float, int, int]:
    """Run one child process to completion: wall seconds, exit code, peak RSS in KiB.

    The blocking ``wait4`` reaps the child as soon as it exits, so the wall time
    is not quantized by polling, and returns that child's own resource usage.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is reported as percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, n
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(p * n / 100))  # nearest-rank definition
    return xs[rank - 1], p, n


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (unknown outside a clone)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, tolerance: float) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "seed": seed,
        "git_commit": git_commit(),
        "tolerance": tolerance,
    }


class Harness:
    """One workload run: set-up, timed batches, oracle, metrics."""

    def __init__(self, name: str, seed: int, seconds: float, small: bool):
        # imported here, after main() has set the BLAS thread variables
        import workloads
        from speed import Speed
        from stftpr import cli, linemode, recovery, windows

        self.wl, self.workloads = workloads.WORKLOADS[name], workloads
        self.cli, self.linemode, self.recovery, self.windows = cli, linemode, recovery, windows
        self.name, self.seed, self.seconds, self.small = name, seed, seconds, small
        self.env = {**os.environ, "PYTHONPATH": "src"}
        self.workdir = OUT / f"work-{name}-{os.getpid()}"
        self.attempted = 0
        self.setup_walls: list[tuple[float, float]] = []  # (wall, start)
        self.failures: list[dict] = []
        self.runtime_warnings = 0
        self.details: dict = {}
        self.speed = Speed()

    # -- single measurements ---------------------------------------------------------

    def setup_probe(self) -> None:
        """Wall time of a fresh process that imports stftpr and builds the workload's windows."""
        code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; import workloads; "
                f"workloads.setup_windows({self.name!r}, {self.seed}, {self.small})")
        self.speed.sample()
        start = time.perf_counter()
        wall, rc, _ = run_child([sys.executable, "-c", code], self.env)
        if rc != 0:
            raise RuntimeError(f"set-up child exited {rc}")
        self.setup_walls.append((wall, start))

    def solve(self, item, tracer, tag: str) -> dict:
        """Run one in-process item: recover, then classify + decide.  Never raises."""
        reason = t1 = t2 = None
        with tracer.root(f"{tag}/{item.id}") if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                if item.line_L is None:
                    outcome = self.recovery.recover(item.X, item.g, mode="auto")
                else:
                    outcome = self.linemode.recover_line_block(item.X, item.g, item.line_L)
                t1 = time.perf_counter()
                decision = self.recovery.decide_retrievability(item.X, self.windows.classify_window(item.g))
                t2 = time.perf_counter()
            except Exception as exc:  # a raising item is a failed item; the run goes on
                reason = f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
        # a call that raised still took its time up to the raise
        rec_s = (t1 or end) - t0
        dec_s = (t2 or end) - (t1 or end)
        if reason is None:
            reason = self.workloads.check_outcome(item, outcome, decision)
        return {"id": f"{tag}/{item.id}", "start": t0, "recover_s": rec_s, "decide_s": dec_s,
                "wall_s": rec_s + dec_s, "reason": reason, "defect": item.defect}

    def run_cli_item(self, item, tag: str) -> dict:
        """Run one CLI item as subprocesses, then check its output files."""
        calls, codes = [], {}
        for kind, argv in item.calls:
            self.speed.sample()
            start = time.perf_counter()
            wall, rc, rss = run_child([sys.executable, "-m", "stftpr.cli", *argv], self.env)
            calls.append({"kind": kind, "start": start, "wall_s": wall, "rss_kib": rss})
            codes[kind] = rc
        try:
            reason = self.workloads.check_cli(item, codes)
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output is a failure
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        return {"id": f"{tag}/{item.id}", "calls": calls, "wall_s": sum(c["wall_s"] for c in calls),
                "reason": reason, "defect": item.defect}

    def record(self, result: dict) -> None:
        self.attempted += 1
        if result["reason"] is not None:
            self.failures.append({"id": result["id"], "reason": result["reason"], "defect": result["defect"]})

    # -- batches ---------------------------------------------------------------------

    def make_batch(self, win, b: int) -> list:
        if self.wl.batch is None:
            items = self.workloads.cli_batch(win, self.seed, b, self.workdir)
        else:
            items = self.wl.batch(win, self.seed, b, self.small)
        return self.workloads.shuffled(items, self.seed, b)

    def batches(self, win, count: int, tracer=None, side: list | None = None, tag: str = "b") -> list[dict]:
        """Run ``count`` batches; ``side`` measurements are spread evenly between items."""
        out = []
        side, done = side or [], 0
        for b in range(count):
            items = self.make_batch(win, b)
            results = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                for i, item in enumerate(items):
                    if self.wl.batch is None:
                        result = self.run_cli_item(item, f"{tag}{b}")
                    else:
                        self.speed.sample()
                        result = self.solve(item, tracer, f"{tag}{b}")
                    self.record(result)
                    results.append(result)
                    progress = (b * len(items) + i + 1) / (count * len(items))
                    while done < len(side) and progress >= (done + 0.5) / len(side):
                        side[done]()
                        done += 1
            self.runtime_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            out.append({"wall_s": sum(r["wall_s"] for r in results), "results": results})
        self.speed.sample()  # the last item's slowdown has samples on both sides
        for bt in out:
            self.normalise(bt["results"])
            bt["norm_s"] = sum(r["norm_s"] for r in bt["results"])
        return out

    def normalise(self, results: list[dict]) -> None:
        """Add each time as on the uncontended reference host (see speed.py) beside the raw one."""
        def norm(seconds, start, kind=self.wl.speed_kernel):
            return self.speed.normalised(kind, seconds, start)

        for r in results:
            if "calls" in r:
                for c in r["calls"]:
                    c["norm_s"] = norm(c["wall_s"], c["start"], "child")
                r["norm_s"] = sum(c["norm_s"] for c in r["calls"])
            else:
                r["recover_norm_s"] = norm(r["recover_s"], r["start"])
                r["decide_norm_s"] = norm(r["decide_s"], r["start"] + r["recover_s"])
                r["norm_s"] = r["recover_norm_s"] + r["decide_norm_s"]

    def cli_replay(self, items, b: int, tracer=None) -> tuple[float, list[float]]:
        """Replay every CLI call in this process through ``cli.main``: batch wall and per-call walls."""
        walls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for item in items:
                self.speed.sample()
                with tracer.root(f"b{b}/{item.id}", "cli") if tracer else nullcontext():
                    for _, argv in item.calls:
                        t0 = time.perf_counter()
                        self.cli.main(list(argv))
                        walls.append((time.perf_counter() - t0, t0))
        self.speed.sample()
        walls = [self.speed.normalised(self.wl.speed_kernel, w, t0) for w, t0 in walls]
        return sum(walls), walls

    # -- runs ------------------------------------------------------------------------

    def run(self, trace: bool) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            win = self.workloads.setup_windows(self.name, self.seed, self.small)
            if self.wl.batch is None:
                for name, (g, _, _) in win.items():
                    self.workloads.write_json(self.workdir / f"window-{name}.json",
                                              self.workloads.serialize.signal_to_json(g))
            self._warm_up(win)
            return self._run_traced(win) if trace else self._run_plain(win)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def batch_count(self) -> int:
        """Batches per run: about --seconds of work at the nominal batch time."""
        return max(1, round(self.seconds / self.wl.nominal_batch_s))

    def _warm_up(self, win) -> None:
        """Let lazy set-up (page cache, FFT planning) finish before timing."""
        self.speed.warm_up()
        if self.wl.batch is None:
            item = self.make_batch(win, 10**6)[0]
            for _, argv in item.calls:
                run_child([sys.executable, "-m", "stftpr.cli", *argv], self.env)
            return
        smallest = min(self.make_batch(win, 10**6), key=lambda it: it.g.d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            self.solve(smallest, None, "warm-up")

    def _run_plain(self, win) -> dict:
        side = [self.setup_probe] * SETUP_REPEATS
        probe_results = []
        if self.wl.probe is not None:
            g, analysis = self.wl.probe(win)
            probes = self.workloads.cli_probe(g, analysis, self.workdir, CLI_PROBES)
            calls = [lambda it=it: probe_results.append(self.run_cli_item(it, "probe")) for it in probes]
            side = [task for pair in zip_longest(side, calls) for task in pair if task is not None]
        batches = self.batches(win, self.batch_count(), side=side)
        for r in probe_results:
            self.record(r)
        self.normalise(probe_results)
        results = [r for bt in batches for r in bt["results"]]
        if self.wl.batch is None:
            calls = [c for r in results for c in r["calls"]]
            rec = [c["norm_s"] for c in calls if c["kind"] == "recover"]
            dec = [c["norm_s"] for c in calls if c["kind"] == "decide"]
            cli_walls = [c["norm_s"] for c in calls]
            peak_kib = max(c["rss_kib"] for c in calls)
        else:
            rec = [r["recover_norm_s"] for r in results]
            dec = [r["decide_norm_s"] for r in results]
            cli_walls = [c["norm_s"] for r in probe_results for c in r["calls"]]
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = [self.speed.normalised("child", wall, start) for wall, start in self.setup_walls]
        tail_s, tail_p, tail_n = tail(rec)
        self.details.update({
            "speed": self.speed.summary(),
            "batch_walls_s": {"raw": [bt["wall_s"] for bt in batches], "normalised": [bt["norm_s"] for bt in batches]},
            "setup_walls_s": {"raw": [wall for wall, _ in self.setup_walls], "normalised": setup},
            "recover_tail": {"percentile": tail_p, "samples": tail_n},
            "runtime_warnings": self.runtime_warnings,
            "samples": [{k: v for k, v in r.items() if k not in ("reason", "defect")} for r in results],
            "cli_probe_calls": [c for r in probe_results for c in r["calls"]],
        })
        return {
            "setup_s": statistics.median(setup),
            "batch_s": statistics.median(bt["norm_s"] for bt in batches),
            "recover_p50_ms": 1e3 * statistics.median(rec),
            "recover_tail_ms": 1e3 * tail_s,
            "decide_p50_ms": 1e3 * statistics.median(dec),
            "cli_p50_ms": 1e3 * statistics.median(cli_walls),
            "fail_frac": len(self.failures) / self.attempted,
            "peak_rss_mb": peak_kib / 1024.0,
        }

    def _run_traced(self, win) -> dict:
        from tracing import Tracer

        tracer = Tracer()
        count = self.batch_count()
        if self.wl.batch is None:
            # subprocess walls, then the same calls replayed in process, untraced and traced
            count = max(1, count // 3)
            sub = self.batches(win, count)
            plain = [self.cli_replay(self.make_batch(win, b), b) for b in range(count)]
            tracer.install(TRACED)
            try:
                with tracer.root("setup", "setup"):
                    self.workloads.setup_windows(self.name, self.seed, self.small)
                traced = [self.cli_replay(self.make_batch(win, b), b, tracer) for b in range(count)]
            finally:
                tracer.uninstall()
            startup = [bt["norm_s"] - wall for bt, (wall, _) in zip(sub, plain)]
            plain_walls, traced_walls = [w for w, _ in plain], [w for w, _ in traced]
        else:
            count = max(1, count // 2)
            plain_walls = [bt["norm_s"] for bt in self.batches(win, count)]
            tracer.install(TRACED)
            try:
                with tracer.root("setup", "setup"):
                    self.workloads.setup_windows(self.name, self.seed, self.small)
                traced_walls = [bt["norm_s"] for bt in self.batches(win, count, tracer, tag="traced-b")]
            finally:
                tracer.uninstall()
            startup = [0.0]
        tracer.check()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{self.name}_seed{self.seed}.jsonl")
        metrics = self.layer_metrics(tracer, count)
        metrics["cli.startup_ms"] = 1e3 * statistics.median(startup)
        metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        # the untraced and the traced pass run the same batches, hence 2 * count
        metrics["recovery.runtime_warnings"] = self.runtime_warnings / (2 * count)
        return metrics

    def layer_metrics(self, tracer, n_batches: int) -> dict:
        """Per-batch sums of self times and call counts beneath the item roots.

        Times are normalised like the end-to-end ones, each at its span's mid-point.
        """
        spans = tracer.spans
        kind = self.wl.speed_kernel
        selfs = [st / self.speed.slowdown(kind, 0.5 * (s.start + s.end)) for s, st in zip(spans, tracer.self_times())]
        root: list[int] = []
        by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            root.append(i if s.parent is None else root[s.parent])
            if spans[root[i]].name != "setup":
                by_name.setdefault(s.name, []).append(i)

        def ms(names):
            return 1e3 * sum(selfs[i] for n in names for i in by_name.get(n, ())) / n_batches

        def calls(names):
            return sum(len(by_name.get(n, ())) for n in names) / n_batches

        metrics = {m: ms(names) for m, names in LAYER_TIMES.items()}
        metrics.update({m: calls(names) for m, names in LAYER_CALLS.items()})
        metrics["spectral.bytes_moved_computed"] = sum(
            16 * spans[i].d ** 2 for n in ("spectral.stft", "spectral.relation_transform")
            for i in by_name.get(n, ())) / n_batches
        metrics["recovery.lstsq_calls"] = sum(
            c for caller, c in tracer.lstsq_callers.items() if caller.startswith("stftpr.recovery.")) / n_batches
        # inclusive: set-up cost of the constructions, measured once per run
        metrics["windows.construct_ms"] = 1e3 * sum(
            self.speed.normalised(kind, s.end - s.start, s.start) for s in spans
            if s.name in CONSTRUCTIONS and s.parent is not None and spans[s.parent].name == "setup")
        per_item: dict[str, dict[str, int]] = {}
        for n in ("spectral.stft", "windows.omega_mask"):
            for i in by_name.get(n, ()):
                if spans[i].item.startswith(("b0/", "traced-b0/")):
                    counts = per_item.setdefault(spans[i].item, {})
                    counts[n] = counts.get(n, 0) + 1
        self.details["calls_per_item_batch0"] = per_item
        self.details["lstsq_calls_by_caller"] = dict(tracer.lstsq_callers)
        return metrics


def emit(name: str, seed: int, trace: bool, spec: dict, values: dict, harness: Harness) -> None:
    """Print the human-readable lines, write the details file, print the result line last."""
    section = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        raise RuntimeError(f"harness produced no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}
    unexpected = [f for f in harness.failures if f["defect"] is None]
    result = {"correct": not unexpected, "attempted": harness.attempted, "failed": len(harness.failures),
              "metrics": metrics}
    prov = provenance(seed, harness.workloads.TOLERANCE)
    OUT.mkdir(exist_ok=True)
    details = {"workload": name, "trace": int(trace), "provenance": prov, **result,
               "failing_items": harness.failures, **harness.details}
    (OUT / f"BENCH_{name}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(details, indent=2) + "\n")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for metric, v in metrics.items():
        print(f"{name:14s} {metric:38s} {v['value']:14.6g} {v['unit']}")
    if "recover_tail" in harness.details:
        t = harness.details["recover_tail"]
        print(f"{name:14s} recover_tail_ms is p{t['percentile']} of {t['samples']} samples")
    ids = [f["id"] + (f" [{f['defect']}]" if f["defect"] else " [unexpected]") for f in harness.failures]
    print(f"{name:14s} failing items ({len(ids)} of {harness.attempted}): " + ", ".join(ids))
    print(json.dumps(result))


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; a table of every metric per workload."""
    rc = 0
    summary = {}
    for name in spec_workloads(spec):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            print(f"{name}: exited {done.returncode}")
            rc = 1
            continue
        summary[name] = json.loads(lines[-1])
        rc = rc or (0 if summary[name]["correct"] else 1)
    print(json.dumps(summary))
    return rc


def spec_workloads(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def smoke(args, spec: dict) -> int:
    """d = 16 end-to-end check: every workload, both modes, every metric present."""
    rc = 0
    for trace in (0, 1):
        args.trace, args.seconds, args.smoke = trace, 1, True
        print(f"-- smoke, trace {trace}")
        if run_all(args, spec) != 0:
            rc = 1
    print("smoke: " + ("ok" if rc == 0 else "FAILED"))
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="d = 16 inputs; without --workload, check the harness")
    args = parser.parse_args(argv)
    if not (SRC / "stftpr" / "__init__.py").is_file():
        print(f"error: no stftpr sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    for var in BLAS_VARS:  # one process, no extra threads
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(SRC)]
    signal.signal(signal.SIGALRM, _alarm)
    if args.workload is None:
        return smoke(args, spec) if args.smoke else run_all(args, spec)
    if args.workload not in spec_workloads(spec):
        parser.error(f"unknown workload {args.workload!r}; choose from {spec_workloads(spec)}")
    harness = Harness(args.workload, args.seed, args.seconds, args.smoke)
    import stftpr

    if Path(stftpr.__file__).resolve().parent != (SRC / "stftpr").resolve():
        print(f"error: imported stftpr from {stftpr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    values = harness.run(bool(args.trace))
    emit(args.workload, args.seed, bool(args.trace), spec, values, harness)
    return 0


if __name__ == "__main__":
    sys.exit(main())
