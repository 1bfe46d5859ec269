"""In-memory span recorder for the traced benchmark run.

The recorder wraps stftpr's public functions at every module binding, so a
call made through ``from .spectral import stft`` inside ``stftpr.recovery`` is
traced as well as one made through ``stftpr.spectral.stft``.  Nothing in
``src/`` changes: spans are opened by the wrappers installed here.

Spans are recorded only beneath a root span (one per item, plus one for
set-up), so inputs the benchmark generates between items are never traced.
They stay in memory until the run ends and are written out then.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    item: str
    d: int  # dimension of the first argument, 0 when it has none


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.lstsq_callers: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, item: str, d: int) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, item, d))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, item: str, name: str = "item"):
        if self._stack:
            raise RuntimeError(f"root span {item!r} opened inside span {self.spans[self._stack[-1]].name!r}")
        idx = self._open(name, item, 0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            d = getattr(args[0], "d", 0) if args else 0
            idx = tracer._open(name, tracer.spans[tracer._stack[0]].item, d if isinstance(d, int) else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _count_callers(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._stack:
                frame = sys._getframe(1)
                tracer.lstsq_callers[f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation --------------------------------------------------------

    def install(self, span_names: list[str], package: str = "stftpr") -> None:
        """Wrap ``package.<name>`` for each span name, at every binding in the package.

        A name the package no longer defines is skipped, so the harness keeps
        running against versions that moved or removed a function.
        """
        wrappers = {}
        for name in span_names:
            mod_name, attr = f"{package}.{name}".rsplit(".", 1)
            fn = getattr(importlib.import_module(mod_name), attr, None)
            if callable(fn):
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        linalg = importlib.import_module("numpy.linalg")
        self._patch(linalg, "lstsq", self._count_callers(linalg.lstsq))

    def _patch(self, mod, attr: str, replacement) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]

    def check(self) -> None:
        """Raise unless spans nest and each root equals the self times beneath it."""
        selfs = self.self_times()
        root_of: list[int] = []
        totals: dict[int, float] = {}
        for i, s in enumerate(self.spans):
            r = i if s.parent is None else root_of[s.parent]
            root_of.append(r)
            totals[r] = totals.get(r, 0.0) + selfs[i]
            if s.parent is not None:
                p = self.spans[s.parent]
                if s.start < p.start or s.end > p.end:
                    raise RuntimeError(f"span {s.name} of {s.item} escapes its parent {p.name}")
            if selfs[i] < -1e-9:
                raise RuntimeError(f"span {s.name} of {s.item} has negative self time {selfs[i]}")
        for r, total in totals.items():
            dur = self.spans[r].end - self.spans[r].start
            if abs(total - dur) > 1e-9 + 1e-9 * dur:
                raise RuntimeError(f"root {self.spans[r].item}: self times sum to {total}, span lasts {dur}")

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as out:
            for s, st in zip(self.spans, selfs):
                rec = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                       "item": s.item, "self_s": st, "d": s.d}
                out.write(json.dumps(rec) + "\n")
