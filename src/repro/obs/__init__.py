"""Observability: metrics, tracing, and structured logs for the serving stack.

Dependency-free instrumentation shared by every layer of the reproduction:

* :mod:`repro.obs.metrics` -- a thread-safe :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket log-scale latency histograms, with a
  JSON-able snapshot format, fleet-wide snapshot merging and Prometheus
  text rendering.  A provider's snapshot is its one observation surface:
  every operator read-out (``repro serve``'s lines, ``repro stats``,
  ``repro cluster status``) is formatted from it.
* :mod:`repro.obs.trace` -- 16-byte trace ids propagated end-to-end in the
  protocol-v3 envelope, an ambient current-trace context, spans recorded
  at every serving layer, a bounded :class:`TraceBuffer` of completed
  traces and a threshold-based :class:`SlowQueryLog`.
* :mod:`repro.obs.logging` -- one-line structured JSON log records for
  long-running processes (``repro serve``).
"""

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    histogram_summaries,
    merge_snapshots,
    render_prometheus,
    snapshot_scalars,
)
from repro.obs.trace import (
    AMBIENT_TRACE,
    TRACE_ID_SIZE,
    SlowQueryLog,
    Span,
    Trace,
    TraceBuffer,
    new_trace_id,
    span,
)
from repro.obs.logging import log_json

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "histogram_summaries",
    "merge_snapshots",
    "render_prometheus",
    "snapshot_scalars",
    "AMBIENT_TRACE",
    "TRACE_ID_SIZE",
    "SlowQueryLog",
    "Span",
    "Trace",
    "TraceBuffer",
    "new_trace_id",
    "span",
    "log_json",
]
