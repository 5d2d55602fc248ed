"""``repro.telemetry`` — the unified observability layer.

One subsystem owns every measurement the simulator produces:

* **Spans** (:class:`Telemetry`, :class:`Span`, :class:`TraceContext`) —
  begin/end intervals and instant events on named tracks, stamped with
  sim-time, threaded across layers by trace contexts.
* **Metrics** (:class:`MetricsRegistry`, :class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) — labelled instruments with near-zero disabled cost.
* **Sim-clock instruments** (:class:`TimeWeightedGauge`,
  :class:`CounterSet`) and **recorders** (:class:`LatencyRecorder`) —
  the pre-existing primitives, now homed here.
* **Exporters** (:func:`write_chrome_trace`, :func:`write_jsonl`,
  :func:`write_csv`) — Chrome/Perfetto trace JSON plus flat rows, all
  byte-deterministic under a fixed simulation seed.

Typical use::

    from repro.simcore import Simulator
    from repro.telemetry import Telemetry, write_chrome_trace

    tel = Telemetry()
    sim = Simulator()
    tel.attach(sim, process="tf-prisma")
    ...  # build + run; every layer reports through sim.telemetry
    write_chrome_trace(tel, "trace.json")

These names live only here: the old homes (``repro.simcore.tracing``,
the recorder names in ``repro.metrics``) are gone, and
``MetricsSnapshot`` is re-exported by :mod:`repro.core` without a shim.
"""

from .export import (
    chrome_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_csv,
    write_jsonl,
    write_metrics_json,
)
from .hub import Telemetry
from .instruments import CounterSet, GaugeSample, TimeWeightedGauge
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorders import LatencyRecorder, LatencySummary
from .snapshot import MetricsSnapshot
from .spans import PHASE_DURATION, PHASE_INSTANT, CounterSample, Span, TraceContext

__all__ = [
    # hub + span model
    "Telemetry",
    "Span",
    "TraceContext",
    "CounterSample",
    "PHASE_DURATION",
    "PHASE_INSTANT",
    # metrics registry
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    # sim-clock instruments
    "TimeWeightedGauge",
    "GaugeSample",
    "CounterSet",
    # recorders
    "LatencyRecorder",
    "LatencySummary",
    "MetricsSnapshot",
    # exporters
    "chrome_trace_events",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
    "write_metrics_json",
]
