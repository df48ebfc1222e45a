"""End-to-end tracing: trace ids, spans, an ambient current trace.

A **trace id** is 16 random bytes minted once per session operation
(:func:`new_trace_id`).  The id rides the protocol-v3 envelope to every
provider the operation touches (see
:func:`repro.outsourcing.protocol.attach_trace`), so each process can
record **spans** -- named, annotated time intervals -- against the same id
without any of them holding a reference to the others.

Within one process the current trace is **ambient**: the session facade
sets it around each operation (:func:`use_trace`), and every instrumented
layer below -- proxies, router, dispatcher, access methods -- records spans
with :func:`span` without threading a trace object through its arguments.
The ambient store is a :class:`contextvars.ContextVar`, so concurrent
asyncio tasks and threads never see each other's traces; code that hops
threads (the scatter executor, the dispatch pool) captures the trace at
submission and re-binds it in the worker.

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
#: many trailing bytes, which is what makes the O(1) attach/peek possible).
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

    def __init__(
        self,
        name: str,
        start_s: float = 0.0,
        duration_s: float = 0.0,
        annotations: dict | None = None,
        trace: "Trace | None" = None,
    ) -> None:
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
    """All spans recorded under one trace id (thread-safe)."""

    def __init__(self, trace_id: bytes) -> None:
        if len(trace_id) != TRACE_ID_SIZE:
            raise ValueError(
                f"trace ids are {TRACE_ID_SIZE} bytes, got {len(trace_id)}"
            )
        self.trace_id = trace_id
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        # Wall-clock extent, kept as spans arrive so duration_s() is O(1).
        self._start_s = float("inf")
        self._end_s = 0.0

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def add_span(self, span: Span) -> None:
        start = span.start_s
        end = start + span.duration_s
        with self._lock:
            self._spans.append(span)
            if start < self._start_s:
                self._start_s = start
            if end > self._end_s:
                self._end_s = end

    def record(
        self, name: str, start_s: float, duration_s: float, **annotations
    ) -> Span:
        """Append an already-timed span (e.g. from a shard outcome)."""
        span = Span(name, start_s, max(duration_s, 0.0), annotations)
        self.add_span(span)
        return span

    def span(self, name: str, **annotations) -> Span:
        """A span that records itself here around a ``with`` block."""
        return Span(name, 0.0, 0.0, annotations, self)

    def duration_s(self) -> float:
        """Wall-clock extent of the trace (latest span end - earliest start)."""
        with self._lock:
            if not self._spans:
                return 0.0
            return max(self._end_s - self._start_s, 0.0)

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

_current_trace: contextvars.ContextVar[Trace | None] = contextvars.ContextVar(
    "repro_obs_current_trace", default=None
)


def current_trace() -> Trace | None:
    """The trace of the operation in progress, or None when untraced."""
    return _current_trace.get()


def current_trace_id() -> bytes | None:
    """The ambient trace's id, or None when untraced."""
    trace = _current_trace.get()
    return trace.trace_id if trace is not None else None


class use_trace:
    """Bind ``trace`` as the ambient trace for the ``with`` block.

    Passing None is allowed and a no-op bind, so thread-hop call sites can
    unconditionally re-bind whatever they captured.
    """

    __slots__ = ("_trace", "_token")

    def __init__(self, trace: Trace | None) -> None:
        self._trace = trace

    def __enter__(self) -> Trace | None:
        self._token = _current_trace.set(self._trace)
        return self._trace

    def __exit__(self, exc_type, exc, traceback) -> None:
        _current_trace.reset(self._token)


def span(name: str, **annotations) -> Span:
    """A span on the ambient trace (no-op when untraced).

    Always a :class:`Span`, so call sites can set annotations without None
    checks; the span is simply discarded when no trace is bound.
    """
    return Span(name, 0.0, 0.0, annotations, _current_trace.get())


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
