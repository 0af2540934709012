"""In-memory spans recorded by the benchmark around calls into each layer.

A span is ``{id, run, name, parent, start, end}`` plus optional attributes.
The benchmark opens spans around the public calls it makes (compile,
``condition().potential()``, the first gradients, ``fit``, ``summary``) and
wraps the potential's public methods during a traced fit.  Spans the
program itself already emits through ``repro.obs`` (``frontend.parse``,
``enum.analyze``, ``tape.trace``, ``tape.lower``) are imported under the
benchmark span that was open when they ended, so one tree covers both.

A layer's self time is its span's duration minus the part its children
cover; the root span's self time is the residual no layer accounts for.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

#: program spans read from ``repro.obs``; none of them can enclose a
#: benchmark span, so importing them never double-counts time.
PROGRAM_SPANS = ("frontend.parse", "enum.analyze", "tape.trace", "tape.lower")


class Tracer:
    """Spans of one benchmark run, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.run: Optional[str] = None
        self._stack: List[int] = []
        self._telemetry = None
        self._telemetry_t0 = 0.0
        self._imported = 0

    def follow(self, telemetry) -> None:
        """Import program spans from ``telemetry`` (a fresh ``repro.obs``
        session created just before this call, so its clock origin is now)."""
        self._telemetry = telemetry
        self._telemetry_t0 = time.perf_counter()
        self._imported = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {"id": len(self.spans), "run": self.run, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._import_program_spans(record["id"])

    def wrap(self, name: str, fn: Callable,
             rows: Optional[Callable[..., int]] = None) -> Callable:
        """``fn`` with a span around every call (``rows`` sizes the call)."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                if rows is not None:
                    record["rows"] = rows(*args, **kwargs)
                return fn(*args, **kwargs)
        return traced

    def _import_program_spans(self, parent: int) -> None:
        if self._telemetry is None:
            return
        records = self._telemetry.log.records
        if len(records) == self._imported:
            return
        new = records[self._imported:]
        self._imported = len(records)
        mapped: Dict[int, int] = {}
        # Program spans are appended when they exit, so children precede
        # their parents; resolve parents after assigning every id.
        kept = [r for r in new if r.get("type") == "span"
                and r["name"] in PROGRAM_SPANS]
        for record in kept:
            mapped[record["id"]] = len(self.spans)
            start = self._telemetry_t0 + record["t"]
            self.spans.append({"id": len(self.spans), "run": self.run,
                               "name": record["name"], "parent": None,
                               "start": start,
                               "end": start + record["duration_seconds"],
                               "program": True,
                               "attrs": record.get("attrs", {})})
        for record in kept:
            span = self.spans[mapped[record["id"]]]
            span["parent"] = mapped.get(record.get("parent"), parent)

    # ------------------------------------------------------------------
    def of_run(self, run: str) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["run"] == run]

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Self time per span id: duration minus the children's durations."""
    out = {s["id"]: duration(s) for s in spans}
    for span in spans:
        if span["parent"] in out:
            out[span["parent"]] -= duration(span)
    return out


def self_time_by_name(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    names = {s["id"]: s["name"] for s in spans}
    totals: Dict[str, float] = {}
    for span_id, value in self_times(spans).items():
        totals[names[span_id]] = totals.get(names[span_id], 0.0) + value
    return totals


#: candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of ``samples``; the tail is the highest percentile
    with at least ten samples beyond it (``tail_pct`` says which)."""
    n = len(samples)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "count": 0}
    ordered = sorted(samples)
    tail_pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10),
                    50.0)
    return {"p50": _percentile(ordered, 50.0),
            "tail": _percentile(ordered, tail_pct),
            "tail_pct": tail_pct, "count": n}


def _percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
