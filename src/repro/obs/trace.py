"""End-to-end tracing: trace ids, spans, an ambient current trace.

A **trace id** is 16 random bytes minted once per session operation
(:func:`new_trace_id`).  The id rides the protocol-v3 envelope to every
provider the operation touches (see
:func:`repro.outsourcing.protocol.attach_trace`), so each process can
record **spans** -- named, annotated time intervals -- against the same id
without any of them holding a reference to the others.

Within one process the current trace is **ambient**
(:data:`AMBIENT_TRACE`): a session operation's root span binds it for the
operation, and every layer below -- proxies, router, provider -- files its
spans there (:func:`span`, or the provider's one span per request) without
threading a trace object through its arguments.  The ambient store is a
:class:`contextvars.ContextVar`, so concurrent threads never see each
other's traces.  Every request runs on the thread that sent it or, on a
provider, on the thread that read it: no layer hands a request to another
thread.

Completed traces land in a bounded :class:`TraceBuffer` (merged by id, so
the several envelopes of one operation build one trace) and, above a
configurable threshold, in a :class:`SlowQueryLog`.  Both are exposed over
the ``trace`` control operation and the ``repro trace`` CLI.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import OrderedDict, deque

#: Size of a trace id in bytes (fixed: the v3 envelope appends exactly this
#: many trailing bytes, which is what makes the O(1) attach possible).
TRACE_ID_SIZE = 16


def new_trace_id() -> bytes:
    """Mint a fresh 16-byte trace id."""
    return os.urandom(TRACE_ID_SIZE)


class Span:
    """One named, annotated time interval of a trace.

    A span is its own context manager: entering stamps the start, leaving
    sets the duration and files the span on the trace it is bound to.
    Bound to no trace it records nothing.
    """

    __slots__ = ("name", "start_s", "duration_s", "annotations", "_trace", "_started")

    def __init__(self, name: str, start_s: float = 0.0, duration_s: float = 0.0,
                 annotations: dict | None = None, trace: "Trace | None" = None) -> None:
        self.name = name
        #: Wall-clock start (``time.time()``), for cross-process alignment.
        self.start_s = start_s
        #: Monotonic duration (``time.monotonic()`` delta), immune to clock steps.
        self.duration_s = duration_s
        self.annotations = {} if annotations is None else annotations
        self._trace = trace

    def __repr__(self) -> str:
        return f"Span({self.as_dict()})"

    def __enter__(self) -> "Span":
        self.start_s = time.time()
        self._started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        self.duration_s = time.monotonic() - self._started
        trace = self._trace
        if trace is not None:
            self._trace = None  # filed once, and no span <-> trace cycle
            trace.add_span(self)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "annotations": dict(self.annotations),
        }


class Trace:
    """All spans recorded under one trace id.

    Every span is filed through :meth:`add_span`, one ``list.append``,
    atomic under the interpreter lock, so any thread may file spans on a
    trace and none takes a lock.  The trace's extent is computed when it is
    read.
    """

    __slots__ = ("trace_id", "_spans")

    def __init__(self, trace_id: bytes) -> None:
        if len(trace_id) != TRACE_ID_SIZE:
            raise ValueError(f"trace ids are {TRACE_ID_SIZE} bytes, got {len(trace_id)}")
        self.trace_id = trace_id
        self._spans: list[Span] = []

    @property
    def spans(self) -> list[Span]:
        return self._spans.copy()

    def add_span(self, span: Span) -> None:
        """File one finished span on this trace."""
        self._spans.append(span)

    def record(self, name: str, start_s: float, duration_s: float, **annotations) -> Span:
        """Append an already-timed span (e.g. from a shard outcome)."""
        span = Span(name, start_s, max(duration_s, 0.0), annotations)
        self.add_span(span)
        return span

    def span(self, name: str, **annotations) -> Span:
        """A span that records itself here around a ``with`` block."""
        return Span(name, 0.0, 0.0, annotations, self)

    def duration_s(self) -> float:
        """Wall-clock extent of the trace (latest span end - earliest start)."""
        spans = self._spans.copy()
        start = min((s.start_s for s in spans), default=0.0)
        end = max((s.start_s + s.duration_s for s in spans), default=start)
        return max(end - start, 0.0)

    def as_dict(self) -> dict:
        spans = sorted(self.spans, key=lambda s: s.start_s)
        return {
            "trace_id": self.trace_id.hex(),
            "duration_s": self.duration_s(),
            "spans": [s.as_dict() for s in spans],
        }


# --------------------------------------------------------------------------- #
# Ambient current trace
# --------------------------------------------------------------------------- #

#: The trace of the operation in progress (``AMBIENT_TRACE.get()``), or None
#: when untraced.  A session operation's root span binds it.
AMBIENT_TRACE: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_current_trace", default=None
)


def span(name: str, **annotations) -> Span:
    """A span on the ambient trace (no-op when untraced).

    Always a :class:`Span`, so call sites can set annotations without None
    checks; the span is simply discarded when no trace is bound.
    """
    return Span(name, 0.0, 0.0, annotations, AMBIENT_TRACE.get())


# --------------------------------------------------------------------------- #
# Completed-trace retention
# --------------------------------------------------------------------------- #

class TraceBuffer:
    """A bounded, id-keyed buffer of completed traces.

    Recording a trace whose id is already buffered merges its spans into
    the existing entry: the several envelopes of one session operation
    (e.g. an indexed insert's delta + tuple) assemble into one trace.
    """

    def __init__(self, max_traces: int = 256) -> None:
        if max_traces < 1:
            raise ValueError("the trace buffer holds at least one trace")
        self._max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: OrderedDict[bytes, Trace] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def record(self, trace: Trace) -> None:
        """Retain (or merge) one completed trace, evicting the oldest."""
        with self._lock:
            existing = self._traces.get(trace.trace_id)
            if existing is None:  # the common case: one insert, one eviction
                self._traces[trace.trace_id] = trace
                if len(self._traces) > self._max_traces:
                    self._traces.popitem(last=False)
                return
            if existing is not trace:
                for entry in trace.spans:
                    existing.add_span(entry)
            self._traces.move_to_end(trace.trace_id)

    def get(self, trace_id: bytes) -> dict | None:
        """The buffered trace with this id as a JSON-able dict, or None."""
        with self._lock:
            trace = self._traces.get(trace_id)
        return trace.as_dict() if trace is not None else None

    def recent(self, limit: int = 10) -> list[dict]:
        """The ``limit`` most recently completed traces, newest first."""
        with self._lock:
            traces = list(self._traces.values())
        return [t.as_dict() for t in _newest(traces, limit)]


class SlowQueryLog:
    """A bounded log of traces slower than a threshold."""

    def __init__(self, threshold_s: float = 1.0, max_entries: int = 128) -> None:
        self.threshold_s = threshold_s
        self._lock = threading.Lock()
        self._entries: deque[dict] = deque(maxlen=max_entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def observe(self, trace: Trace) -> bool:
        """Log the trace if it exceeds the threshold; True when logged."""
        duration = trace.duration_s()
        if duration < self.threshold_s:
            return False
        spans = sorted(trace.spans, key=lambda s: s.start_s)
        with self._lock:
            self._entries.append(
                {
                    "trace_id": trace.trace_id.hex(),
                    "duration_s": duration,
                    "recorded_at": time.time(),
                    "spans": [s.name for s in spans],
                }
            )
        return True

    def entries(self, limit: int = 20) -> list[dict]:
        """The ``limit`` newest slow-query records, newest first."""
        with self._lock:
            entries = list(self._entries)
        return _newest(entries, limit)


def _newest(items: list, limit: int) -> list:
    """The last ``limit`` of ``items``, newest first; a negative limit is refused."""
    if limit < 0:
        raise ValueError(f"limit must be a count (>= 0), got {limit}")
    return list(reversed(items[-limit:])) if limit else []
