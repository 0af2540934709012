"""Unified telemetry for the Stan-to-generative-PPL pipeline.

Zero-dependency observability spanning every layer of the runtime:

* **tracing spans** (:meth:`Telemetry.span`) — nested timed regions
  through frontend parse/codegen, the compile cache, tape compilation,
  enumeration analysis and the samplers, exported as JSONL via
  :class:`TraceLog`;
* a **metrics registry** (:class:`MetricsRegistry`) — evaluation counts,
  tape timers, batched-eval utilization, and one info label per validated
  fast path (its current tier, e.g. ``enum.strategy``);
* a **per-iteration sampler stream** — one record per chain transition
  (tree depth, leapfrog count, energy, step size, accept prob,
  divergence flag);
* a **divergence flight recorder** (:class:`FlightRecorder`) —
  unconstrained position, energy change and trajectory endpoints of each
  divergent transition, surfaced via ``posterior.divergence_report()``.

Everything is off by default; enable with
``compile_model(source, obs=True)`` or an explicit :class:`ObsConfig`.
Instrumentation is non-perturbing: instrumented fits produce
bitwise-identical draws to uninstrumented ones.
"""

from repro.obs.config import ObsConfig, obs_config
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import NULL_SPAN, NullSpan, Span, TraceLog
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    as_telemetry,
    report,
)

__all__ = [
    "ObsConfig",
    "obs_config",
    "MetricsRegistry",
    "FlightRecorder",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "TraceLog",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "as_telemetry",
    "report",
]
