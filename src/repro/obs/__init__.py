"""Observability: metrics, tracing, and structured logs for the serving stack.

Dependency-free instrumentation shared by every layer of the reproduction:

* :mod:`repro.obs.metrics` -- a thread-safe :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket log-scale latency histograms, with a
  JSON-able snapshot format, fleet-wide snapshot merging and Prometheus
  text rendering.  The legacy stat surfaces (``TcpServerStats``,
  ``ClusterStats``, index stats) are facades over one of these registries,
  so every pre-existing counter survives under its old name.
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
)
from repro.obs.trace import (
    TRACE_ID_SIZE,
    SlowQueryLog,
    Span,
    Trace,
    TraceBuffer,
    current_trace,
    current_trace_id,
    new_trace_id,
    span,
    use_trace,
)
from repro.obs.logging import log_json

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "histogram_summaries",
    "merge_snapshots",
    "render_prometheus",
    "TRACE_ID_SIZE",
    "SlowQueryLog",
    "Span",
    "Trace",
    "TraceBuffer",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "span",
    "use_trace",
    "log_json",
]
