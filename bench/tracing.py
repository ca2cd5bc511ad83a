"""Spans recorded around spotvol's public layer functions, from outside.

The tracer replaces each target function with a wrapper wherever a
loaded spotvol module binds it (the defining module, the package
namespace and every ``from ... import`` alias), so calls made through
module attributes, as the pipeline makes them, are caught.  Spans nest
through a thread-local parent stack; a span opened on a worker thread
with an empty stack takes the innermost open span of the thread that
opened the root as its parent, so years analysed on executor threads
stay attached to the analyze_trend call waiting for them.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter


def _year_of(result):
    if isinstance(result, dict):
        return result.get("year")
    return getattr(result, "year", None)


def _ingest_counts(args, kwargs, result) -> dict:
    if hasattr(result, "manifest"):
        m = result.manifest
        return {
            "cells_imputed": m["n_imputed"],
            "dst_filled": m["n_dst_spring_filled"],
            "fall_collapsed": m["n_dst_fall_collapsed"],
        }
    return {"rows": len(result)}


def _permutation_counts(args, kwargs, result) -> dict:
    return {"permutations": result.n_permutations}


def _written_counts(args, kwargs, result) -> dict:
    return {"files": 1, "bytes": os.path.getsize(args[0])}


# (defining module, function, layer, counter).  The layer of a span is the
# module whose work it times; load_year_report lives in pipeline but is the
# read side of the report format.
TARGETS = [
    ("spotvol.ingest", "parse_price_csv", "ingest", _ingest_counts),
    ("spotvol.ingest", "calendarize", "ingest", _ingest_counts),
    ("spotvol.lowrank", "decompose", "lowrank", None),
    ("spotvol.lowrank", "truncate", "lowrank", None),
    ("spotvol.lowrank", "residual_series", "lowrank", None),
    ("spotvol.lowrank", "spectrum_report", "lowrank", None),
    ("spotvol.residual_stats", "analyze_residuals", "residual_stats", None),
    ("spotvol.seasonality", "angular_momentum", "seasonality", None),
    ("spotvol.seasonality", "permutation_test", "seasonality", _permutation_counts),
    ("spotvol.reports", "write_json", "reports", _written_counts),
    ("spotvol.reports", "write_spectrum_csv", "reports", _written_counts),
    ("spotvol.reports", "write_profiles_csv", "reports", _written_counts),
    ("spotvol.reports", "write_amplitudes_csv", "reports", _written_counts),
    ("spotvol.reports", "write_probplot_csv", "reports", _written_counts),
    ("spotvol.reports", "write_histogram_csv", "reports", _written_counts),
    ("spotvol.reports", "write_trend_csv", "reports", _written_counts),
    ("spotvol.pipeline", "load_year_report", "reports", None),
    ("spotvol.trend", "fit_trend", "trend", None),
    ("spotvol.trend", "tail_trend", "trend", None),
    ("spotvol.pipeline", "analyze_year", "pipeline", None),
    ("spotvol.pipeline", "analyze_trend", "pipeline", None),
    ("spotvol.pipeline", "assemble_report", "pipeline", None),
]


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    year: int | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, layer: str):
        stack = self._stack()
        # the root thread is blocked in the call that fans out to the
        # workers, so its innermost span is the worker span's cause
        parent = stack[-1] if stack else (self._root_stack or [None])[-1]
        with self._lock:
            sp = Span(len(self.spans), name, layer, parent.id if parent else None,
                      threading.get_ident())
            self.spans.append(sp)
        if parent is None:
            self._root_stack = stack
        stack.append(sp)
        sp.start = perf_counter()
        try:
            yield sp
        finally:
            sp.end = perf_counter()
            stack.pop()

    def _wrap(self, func, name: str, layer: str, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = func(*args, **kwargs)
                sp.year = _year_of(result)
                if counter is not None:
                    sp.counts = counter(args, kwargs, result)
                return result

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spotvol" or n.startswith("spotvol."))]
        for module_name, attr, layer, counter in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, attr, layer, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                kids.setdefault(sp.parent, []).append(sp)
        return kids

    def subtree(self, root: Span) -> list[Span]:
        kids = self.children()
        out, todo = [], [root]
        while todo:
            sp = todo.pop()
            out.append(sp)
            todo.extend(kids.get(sp.id, []))
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, each year inherited from the nearest ancestor."""
        by_id = {sp.id: sp for sp in self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                year, up = sp.year, sp
                while year is None and up.parent is not None:
                    up = by_id[up.parent]
                    year = up.year
                fh.write(json.dumps({
                    "id": sp.id, "name": sp.name, "layer": sp.layer, "parent": sp.parent,
                    "thread": sp.thread, "start": sp.start, "end": sp.end,
                    "year": year, "counts": sp.counts,
                }) + "\n")


def self_times(spans: list[Span], kids: dict[int, list[Span]]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover.

    Children running in parallel on executor threads overlap, so the
    covered part is the union of their intervals.
    """
    out = {}
    for sp in spans:
        covered, edge = 0.0, sp.start
        for lo, hi in sorted((max(c.start, sp.start), min(c.end, sp.end)) for c in kids.get(sp.id, [])):
            lo = max(lo, edge)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[sp.id] = sp.duration - covered
    return out
