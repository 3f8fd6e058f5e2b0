"""Unified observability: spans, metrics, timelines, Perfetto export.

One subsystem measures both halves of the system:

* **compiler side** — every pre-compiler phase (lex, parse, dependency
  analysis, self-dependence detection, partitioning, combining, codegen)
  runs inside a timed :class:`Span` recorded on the active
  :class:`Profiler`, with phase-specific counters (loops scanned, syncs
  before/after combining, halo widths) on a :class:`MetricsRegistry`;
* **runtime side** — :class:`repro.runtime.trace.Trace` events carry
  begin/end timestamps, and :class:`Timeline` rolls them up into per-rank
  compute / blocked-wait / halo / collective breakdowns with per-frame
  comm-compute ratios, load-imbalance factors, and the critical-path
  rank (:class:`RunRollup` — the same object the cluster simulator
  produces, so observed and simulated breakdowns compare directly);
* **export** — :func:`chrome_trace` merges any set of span tracks into
  Chrome-trace/Perfetto JSON (``acfd profile`` and ``--trace-out``);
* **live side** — :class:`Telemetry` bundles a lock-light per-rank
  heartbeat :class:`HealthBoard` with a crash-surviving
  :class:`FlightRecorder` ring (shared memory under the process
  executor), rendered by ``acfd top`` / ``acfd run --live`` and
  correlated into ``postmortem_<sha>.json`` documents by
  :func:`build_postmortem` when a world dies.
"""

from repro.obs.export import (
    build_export,
    chrome_trace,
    runtime_spans,
    write_chrome_trace,
)
from repro.obs.flight import FlightRecorder
from repro.obs.health import (
    HealthBoard,
    HealthSample,
    RankTelemetry,
    Telemetry,
    health_alerts,
    render_health_table,
    serve_metrics,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import (
    Profiler,
    Span,
    activate,
    counter,
    current,
    histogram,
    span,
)
from repro.obs.postmortem import (
    build_postmortem,
    load_postmortem,
    render_postmortem,
    write_postmortem,
)
from repro.obs.timeline import (
    RankBreakdown,
    RunRollup,
    Timeline,
    observe_trace_histograms,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Profiler", "Span", "activate", "counter", "current", "histogram",
    "span",
    "RankBreakdown", "RunRollup", "Timeline", "observe_trace_histograms",
    "build_export", "chrome_trace", "runtime_spans", "write_chrome_trace",
    "FlightRecorder",
    "HealthBoard", "HealthSample", "RankTelemetry", "Telemetry",
    "health_alerts", "render_health_table", "serve_metrics",
    "build_postmortem", "load_postmortem", "render_postmortem",
    "write_postmortem",
]
