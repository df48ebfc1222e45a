"""Server-side observation log.

The paper's threat model is an honest-but-curious (or later adversarial)
service provider: Eve executes the protocol faithfully but records everything
she sees.  :class:`ServerAuditLog` is that record -- each stored relation,
each encrypted query and each result size.  The security experiments read the
log to build the adversary's view, and the examples print it to show exactly
how little (or how much) an outsourced deployment reveals.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from enum import Enum


class AuditEventKind(Enum):
    """Types of events the service provider observes."""

    TUPLES_INSERTED = "tuples-inserted"
    QUERY_EXECUTED = "query-executed"
    TUPLES_DELETED = "tuples-deleted"
    BATCH_EXECUTED = "batch-executed"
    RELATION_DROPPED = "relation-dropped"
    TUPLE_IDS_LISTED = "tuple-ids-listed"
    INDEX_STORED = "index-stored"
    POSTINGS_APPLIED = "index-delta-applied"
    INDEX_LOOKUP_SERVED = "index-lookup-served"
    __hash__ = object.__hash__  # as MessageKind's


class AuditEvent:
    """One observation made by the service provider.

    A slotted record: the provider files one per request, so it costs an
    attribute store per field and nothing else (``detail`` is kept as given).
    """

    __slots__ = ("kind", "relation_name", "detail", "timestamp")

    def __init__(
        self,
        kind: AuditEventKind,
        relation_name: str,
        detail: dict | None = None,
        timestamp: float | None = None,
    ) -> None:
        self.kind = kind
        self.relation_name = relation_name
        self.detail = {} if detail is None else detail
        self.timestamp = time.time() if timestamp is None else timestamp

    def _fields(self) -> tuple:
        return (self.kind, self.relation_name, self.detail, self.timestamp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AuditEvent):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"AuditEvent(kind={self.kind!r}, relation_name={self.relation_name!r}, "
            f"detail={self.detail!r}, timestamp={self.timestamp!r})"
        )


class ServerAuditLog:
    """Append-only log of everything the untrusted server observes.

    By default the log grows without bound (the security experiments want
    the complete adversarial view).  Long-running providers -- ``repro
    serve`` in particular -- pass ``max_events`` to cap it as a ring buffer:
    the newest ``max_events`` observations are retained, older ones are
    discarded, and :attr:`dropped_events` counts what fell off.  Per-kind
    counts of the retained window are kept as events come and go, so
    :meth:`summary` never walks the log.
    """

    def __init__(self, max_events: int | None = None) -> None:
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be a positive integer (or None)")
        self._max_events = max_events
        self._events: deque[AuditEvent] = deque(maxlen=max_events)
        self._dropped = 0
        self._counts = dict.fromkeys(AuditEventKind, 0)
        # A provider records from several relations' requests at once.
        self._lock = threading.Lock()

    @property
    def max_events(self) -> int | None:
        """The ring-buffer capacity, or ``None`` for an unbounded log."""
        return self._max_events

    @property
    def dropped_events(self) -> int:
        """Events discarded because the ring buffer was full."""
        return self._dropped

    @property
    def events(self) -> tuple[AuditEvent, ...]:
        """All retained events, oldest first."""
        with self._lock:
            return tuple(self._events)

    def record(self, kind: AuditEventKind, relation_name: str, **detail) -> AuditEvent:
        """Append an event (evicting the oldest when the buffer is capped)."""
        event = AuditEvent(kind, relation_name, detail)
        events, counts = self._events, self._counts
        with self._lock:
            if len(events) == self._max_events:
                counts[events[0].kind] -= 1
                self._dropped += 1
            events.append(event)
            counts[kind] = counts.get(kind, 0) + 1
        return event

    def events_of_kind(self, kind: AuditEventKind) -> list[AuditEvent]:
        """All events of one kind."""
        return [e for e in self.events if e.kind is kind]

    def query_result_sizes(self, relation_name: str | None = None) -> list[int]:
        """Result sizes of all executed queries (what result-size attacks consume)."""
        sizes = []
        for event in self.events_of_kind(AuditEventKind.QUERY_EXECUTED):
            if relation_name is not None and event.relation_name != relation_name:
                continue
            sizes.append(event.detail.get("result_size", 0))
        return sizes

    def summary(self) -> dict[str, int]:
        """Event counts per kind (of the retained window), O(kinds)."""
        with self._lock:
            return {kind.value: self._counts[kind] for kind in AuditEventKind}

    def __len__(self) -> int:
        return len(self._events)
