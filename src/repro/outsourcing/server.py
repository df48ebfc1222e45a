"""The untrusted database service provider (Eve).

The server stores encrypted relations behind a pluggable
:class:`~repro.outsourcing.storage.StorageBackend`, answers encrypted queries
by running the keyless :class:`~repro.core.dph.ServerEvaluator` the client
registered for each relation, and records everything it sees in a
:class:`~repro.outsourcing.audit.ServerAuditLog`.  It never holds key
material; the only plaintext it learns is what the ciphertexts and the query
results structurally reveal -- which is precisely what the paper's security
analysis is about.

:meth:`OutsourcedDatabaseServer.handle_message` is the provider's one entry
point: it speaks the byte-level protocol of :mod:`repro.outsourcing.protocol`,
so a transport can shuttle opaque frames between client and provider, and
every operation a session performs -- data, index and DDL, evaluator
deployment included -- arrives as an envelope.  The typed methods
(:meth:`~OutsourcedDatabaseServer.register_evaluator`,
:meth:`~OutsourcedDatabaseServer.insert_tuples`, ...) are the steps
``_dispatch`` calls for those envelopes; test doubles override them to
inject faults.  A step's answer is a value (a count, a result, ids, names)
that ``handle_message`` frames as :data:`~repro.outsourcing.protocol.ANSWERS`
and ``ANSWER_CODECS`` say, so no branch names an answer kind or codec.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro import native
from repro.core.dph import (
    DphError,
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
    ServerEvaluator,
    TupleFilter,
    evaluate_conjunction,
)
from repro.obs import MetricsRegistry, span as obs_span
from repro.outsourcing import protocol
from repro.outsourcing.audit import AuditEventKind, ServerAuditLog
from repro.outsourcing.evaluators import build_evaluator
from repro.outsourcing.protocol import MessageKind, MessageV2, ProtocolError
from repro.outsourcing.storage import (
    InMemoryStorageBackend,
    StorageBackend,
    StorageError,
)


#: The ``relation`` metric label of every name the provider does not know.
UNKNOWN_RELATION = "(unknown)"

#: The request kinds whose envelope carries no body.
_BODYLESS = frozenset({
    MessageKind.LIST_TUPLE_IDS,
    MessageKind.FETCH_RELATION,
    MessageKind.TUPLE_COUNT,
    MessageKind.DROP_RELATION,
    MessageKind.RELATION_NAMES,
})

#: Writes whose cost is the request's on a ``bounded_by_request`` store.
_BOUNDED_WRITES = (MessageKind.INSERT_TUPLES, MessageKind.DELETE_TUPLES)


class ServerError(Exception):
    """The server refused or failed to process a request."""


class OutsourcedDatabaseServer:
    """The untrusted service provider, generic over its storage backend."""

    def __init__(
        self,
        audit_log: ServerAuditLog | None = None,
        storage: StorageBackend | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        # Imported here, not at module top: repro.index.wire speaks this
        # package's protocol, so a top-level import would be circular.
        from repro.index.access import IndexAccess, ScanAccess

        self._storage = storage if storage is not None else InMemoryStorageBackend()
        self._evaluators: dict[str, ServerEvaluator] = {}
        self._audit = audit_log if audit_log is not None else ServerAuditLog()
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._scan_access = ScanAccess(self.execute_query)
        self._index_access = IndexAccess(self._storage, metrics=self._metrics)
        #: Lookup strategies in preference order; first that can serve wins.
        self._access_methods = (self._index_access, self._scan_access)
        self._scan_fallback_counter = self._metrics.counter(
            "index_scan_fallbacks_total"
        )

    @property
    def index_access(self):
        """The provider's index-serving strategy (stats, installed indexes)."""
        return self._index_access

    @property
    def metrics(self) -> MetricsRegistry:
        """This provider's metrics registry (shared with its TCP front-end)."""
        return self._metrics

    def metric_relation(self, name: str) -> str:
        """The ``relation`` metric label for ``name``.

        Its own name for a relation this provider stores or holds an
        evaluator for; every other name a frame carries shares one fixed
        label, so a peer cannot choose the registry's cardinality.
        """
        if name in self._evaluators or name in self._storage:
            return name
        return UNKNOWN_RELATION

    def metrics_snapshot(self) -> dict:
        """A registry snapshot with the audit-log gauges refreshed.

        The audit log is a ring buffer mutated on every operation; rather
        than double-count through parallel instruments, its totals are
        copied into gauges at snapshot time.  ``match_kernel{impl=...}`` is
        1 for the SWP check this process runs (:mod:`repro.native`).
        """
        self._metrics.gauge("audit_events_dropped").set(self._audit.dropped_events)
        for kind, count in self._audit.summary().items():
            self._metrics.gauge("audit_events", kind=kind).set(count)
        impl = "python" if native.kernel is None else "native"
        self._metrics.gauge("match_kernel", impl=impl).set(1)
        return self._metrics.snapshot()

    @property
    def audit_log(self) -> ServerAuditLog:
        """Everything the provider has observed so far."""
        return self._audit

    @property
    def storage(self) -> StorageBackend:
        """The backend holding the ciphertext relations."""
        return self._storage

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of the stored relations."""
        return self._storage.names()

    # ------------------------------------------------------------------ #
    # The steps of _dispatch
    # ------------------------------------------------------------------ #

    def register_evaluator(self, name: str, evaluator: ServerEvaluator) -> None:
        """Deploy the keyless evaluation procedure for a relation."""
        if not name:
            raise ServerError("relation name must be non-empty")
        self._evaluators[name] = evaluator

    def store_relation(
        self,
        name: str,
        encrypted_relation: EncryptedRelation,
        evaluator: ServerEvaluator,
    ) -> None:
        """Store (or replace) an encrypted relation and its query evaluator."""
        self.register_evaluator(name, evaluator)
        self._storage.save(name, encrypted_relation)
        # A full restore invalidates any index built for the old contents;
        # the client ships a fresh INDEX_PUT right after when indexing is on.
        self._index_access.note_store(name)
        self._audit.record(
            AuditEventKind.RELATION_STORED,
            name,
            tuple_count=len(encrypted_relation),
            size_in_bytes=encrypted_relation.size_in_bytes(),
            scheme=evaluator.scheme_name,
        )

    def insert_tuples(self, name: str, encrypted_tuples: Sequence[EncryptedTuple], delta) -> int:
        """Append tuple ciphertexts to a stored relation, their postings
        (``delta``, an :class:`~repro.index.wire.IndexDelta`) first: a failure
        in between leaves stale postings whose ids fetch nothing (a harmless
        superset), the other order an indexed lookup missing a tuple."""
        if name not in self._storage:
            raise ServerError(f"no relation named {name!r} is stored")
        if delta:
            self._apply_postings(name, delta)
        try:
            self._storage.append(name, encrypted_tuples)
        except StorageError as exc:
            raise ServerError(str(exc)) from exc
        for encrypted_tuple in encrypted_tuples:
            self._audit.record(
                AuditEventKind.TUPLE_INSERTED,
                name,
                size_in_bytes=encrypted_tuple.size_in_bytes(),
            )
        return len(encrypted_tuples)

    def delete_tuples(self, name: str, tuple_ids: Sequence[bytes], delta) -> tuple[bytes, ...]:
        """Remove the named tuple ciphertexts, then tombstone ``delta``'s
        postings; returns the ids that went.

        Unknown ids are ignored (a racing request may have deleted them), so
        the id set is exact under replayed or stale batches.
        """
        try:
            deleted_ids, copies = self._storage.remove(name, tuple_ids)
        except StorageError as exc:
            raise ServerError(str(exc)) from exc
        self._audit.record(
            AuditEventKind.TUPLES_DELETED,
            name,
            requested=len(tuple_ids),  # what Eve saw on the wire, duplicates included
            deleted=copies,
        )
        if delta:
            self._apply_postings(name, delta)
        return deleted_ids

    def execute_query(self, name: str, encrypted_query: EncryptedQuery) -> EvaluationResult:
        """Run the encrypted query against a stored relation."""
        stored = self._load(name)
        (filters,) = self._compile(name, (encrypted_query,))
        return self._scan(name, stored, encrypted_query, filters)

    def execute_batch(
        self, name: str, encrypted_queries: Sequence[EncryptedQuery]
    ) -> list[EvaluationResult]:
        """Run several encrypted queries against one relation in one request.

        Eve observes each query exactly as in the sequential case (one
        ``QUERY_EXECUTED`` audit event per query); the batch saves only the
        per-message envelope and relation lookups.  Every query is compiled
        before the first scan, so a foreign scheme or a malformed trapdoor
        anywhere in the batch rejects all of it, with nothing run or logged.
        """
        stored = self._load(name)
        compiled = self._compile(name, encrypted_queries)
        results = [
            self._scan(name, stored, encrypted_query, filters)
            for encrypted_query, filters in zip(encrypted_queries, compiled)
        ]
        self._audit.record(
            AuditEventKind.BATCH_EXECUTED, name, query_count=len(results)
        )
        return results

    def drop_relation(self, name: str) -> None:
        """Forget a relation and its evaluator."""
        stored = self._load(name)  # raise ServerError when absent
        self._storage.delete(name)
        self._evaluators.pop(name, None)
        self._index_access.note_drop(name)
        self._audit.record(
            AuditEventKind.RELATION_DROPPED, name, tuple_count=len(stored)
        )

    def stored_relation(self, name: str) -> EncryptedRelation:
        """The provider's copy of a relation (what a leak would expose)."""
        return self._load(name)

    def tuple_count(self, name: str) -> int:
        """Number of stored tuple ciphertexts (cheap metadata read)."""
        try:
            return self._storage.tuple_count(name)
        except StorageError as exc:
            raise ServerError(str(exc)) from exc

    def list_tuple_ids(self, name: str) -> tuple[bytes, ...]:
        """The public random ids of a relation's stored tuples, in order.

        The ids are metadata every transport already reveals (they address
        deletes on the wire), so listing them leaks nothing new; what it
        buys is an ``O(ids)`` answer for coordinators that need distinct-id
        counts without shipping whole ciphertext relations.
        """
        stored = self._load(name)
        ids = tuple(t.tuple_id for t in stored.encrypted_tuples)
        self._audit.record(
            AuditEventKind.TUPLE_IDS_LISTED, name, id_count=len(ids)
        )
        return ids

    # ------------------------------------------------------------------ #
    # Encrypted inverted index (repro.index)
    # ------------------------------------------------------------------ #

    def put_index(self, name: str, snapshot) -> int:
        """Install a client-built index snapshot for a stored relation."""
        self._load(name)  # raise ServerError when the relation is absent
        self._index_access.put(name, snapshot)
        self._audit.record(
            AuditEventKind.INDEX_STORED,
            name,
            labels=len(snapshot.entries),
            posting_slots=snapshot.posting_slots(),
            bucket_capacity=snapshot.bucket_capacity,
        )
        return len(snapshot.entries)

    def _apply_postings(self, name: str, delta) -> None:
        """Apply a write's posting delta; a provider without the index (soft
        state: its next lookup scans) drops it."""
        applied = self._index_access.apply_delta(name, delta)
        self._audit.record(
            AuditEventKind.POSTINGS_APPLIED,
            name,
            additions=len(delta.additions),
            removals=len(delta.removals),
            applied=applied,
        )

    def index_lookup(self, name: str, request) -> EvaluationResult:
        """Answer an exact select through the best available access method."""
        if name not in self._storage:  # never a load: it is O(n) after a write
            raise ServerError(f"no relation named {name!r} is stored")
        for method in self._access_methods:
            if not method.can_serve(name, request):
                continue
            fallback_taken = method is self._scan_access
            if fallback_taken:
                self._scan_fallback_counter.inc()
            started = time.monotonic()
            with obs_span(
                f"access.{method.name}",
                relation=name,
                fallback_taken=fallback_taken,
            ) as access_span:
                result = method.search(name, request)
                access_span.annotations["examined"] = result.examined
                access_span.annotations["result_size"] = len(result.matching)
            self._metrics.histogram(
                "index_lookup_seconds", access_method=method.name, relation=name
            ).observe(time.monotonic() - started)
            self._audit.record(
                AuditEventKind.INDEX_LOOKUP_SERVED,
                name,
                access=method.name,
                labels=len(request.labels),
                result_size=len(result.matching),
                examined=result.examined,
            )
            return result
        raise ServerError(
            f"no access method can serve the lookup on relation {name!r} "
            "(no index installed and no fallback query supplied)"
        )

    def bounded_work(self, kind: MessageKind, name: str) -> bool:
        """Whether serving ``kind`` on ``name`` is bounded by the request and its reply.

        :mod:`repro.net.server` answers such a request on its event loop, so
        this is never true for work that grows with the stored relation.
        On a store whose writes and fetches cost what the request carries
        (``bounded_by_request``: the in-memory one), ``INSERT_TUPLES``
        (O(tuples + postings)), ``DELETE_TUPLES`` (O(ids + postings)) and
        an ``INDEX_LOOKUP`` the index serves (O(postings of the request's
        labels + reply)) are; a lookup that would scan is not.  A
        file-backed store rewrites or re-reads the relation, so all of
        these stay unbounded there.  The answer holds only while no other
        request for ``name`` is running.
        """
        if not self._storage.bounded_by_request:
            return False
        if kind is MessageKind.INDEX_LOOKUP:
            return self._index_access.index_for(name) is not None
        return kind in _BOUNDED_WRITES

    def index_stats(self) -> dict:
        """Index-serving statistics for operators (``repro serve`` stats)."""
        stats = dict(self._index_access.stats())
        stats["scan_fallbacks"] = self._scan_fallback_counter.value
        return stats

    def storage_in_bytes(self, name: str | None = None) -> int:
        """Total ciphertext bytes stored (for one relation or overall)."""
        if name is not None:
            return self._load(name).size_in_bytes()
        return sum(
            self._storage.size_in_bytes(stored) for stored in self._storage.names()
        )

    # ------------------------------------------------------------------ #
    # Wire-level API
    # ------------------------------------------------------------------ #

    def handle_message(self, raw: bytes) -> bytes:
        """Process one protocol frame and return the serialized response.

        The step's answer goes back as the kind
        :data:`~repro.outsourcing.protocol.ANSWERS` names for the request,
        encoded by that kind's codec.  Failures inside a well-framed
        request -- an unknown request kind included -- come back as
        ``ERROR`` messages rather than exceptions, mirroring what a remote
        provider would do; a frame that does not parse raises
        :class:`ProtocolError`.
        """
        request = protocol.parse_message(raw)
        kind = request.kind
        started = time.monotonic()
        outcome = "ok"
        with obs_span(f"provider.{kind.value}", relation=request.relation_name) as op_span:
            try:
                answer_kind = protocol.ANSWERS.get(kind)
                if answer_kind is None:
                    raise ServerError(f"cannot serve message kind {kind.value!r}")
                if kind in _BODYLESS and request.body:
                    raise ProtocolError(f"a {kind.value} request carries no body")
                body = protocol.ANSWER_CODECS[answer_kind][1](self._dispatch(request))
            # Malformed trapdoors are a DphError, raised when the evaluator
            # compiles the query; ValueError covers other scheme bytes
            # rejected deep inside an evaluator.
            except (
                ServerError, StorageError, ProtocolError, DphError, ValueError
            ) as exc:
                outcome = "error"
                op_span.annotations["error"] = str(exc)
                answer_kind, body = MessageKind.ERROR, str(exc).encode("utf-8")
        self._metrics.histogram(
            "provider_op_seconds",
            op_kind=kind.value,
            relation=self.metric_relation(request.relation_name),
            outcome=outcome,
        ).observe(time.monotonic() - started)
        return MessageV2(answer_kind, request.relation_name, body).to_bytes()

    def _dispatch(self, request: MessageV2):
        """Run the step ``request`` asks for; its answer, still to be encoded."""
        name = request.relation_name
        kind = request.kind
        body = request.body
        if kind is MessageKind.STORE_RELATION:
            encrypted_relation = protocol.decode_encrypted_relation(body)
            self.store_relation(name, encrypted_relation, self._evaluator(name))
            return len(encrypted_relation)
        if kind is MessageKind.INSERT_TUPLES:
            from repro.index.wire import decode_index_delta

            postings, tuples = protocol.decode_insert_tuples(body)
            return self.insert_tuples(name, tuples, decode_index_delta(postings))
        if kind is MessageKind.QUERY:
            return self.execute_query(name, protocol.decode_encrypted_query(body))
        if kind is MessageKind.DELETE_TUPLES:
            from repro.index.wire import decode_index_delta

            tuple_ids, postings = protocol.decode_delete_tuples(body)
            return self.delete_tuples(name, tuple_ids, decode_index_delta(postings))
        if kind is MessageKind.BATCH_QUERY:
            return self.execute_batch(name, protocol.decode_query_batch(body))
        if kind is MessageKind.LIST_TUPLE_IDS:
            return self.list_tuple_ids(name)
        if kind is MessageKind.INDEX_PUT:
            from repro.index.wire import decode_index_snapshot

            return self.put_index(name, decode_index_snapshot(body))
        if kind is MessageKind.INDEX_LOOKUP:
            from repro.index.wire import decode_index_lookup

            return self.index_lookup(name, decode_index_lookup(body))
        if kind is MessageKind.REGISTER_EVALUATOR:
            description = protocol.decode_evaluator_description(body)
            self.register_evaluator(name, build_evaluator(description))
            return 1
        if kind is MessageKind.FETCH_RELATION:
            return EvaluationResult(matching=self.stored_relation(name))
        if kind is MessageKind.TUPLE_COUNT:
            return self.tuple_count(name)
        if kind is MessageKind.DROP_RELATION:
            self.drop_relation(name)
            return 1
        if kind is MessageKind.RELATION_NAMES:
            return self.relation_names
        raise ServerError(f"no step serves message kind {kind.value!r}")

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _load(self, name: str) -> EncryptedRelation:
        try:
            return self._storage.load(name)
        except StorageError as exc:
            raise ServerError(str(exc)) from exc

    def _evaluator(self, name: str) -> ServerEvaluator:
        try:
            return self._evaluators[name]
        except KeyError as exc:
            raise ServerError(
                f"no evaluator is registered for relation {name!r}"
            ) from exc

    def _compile(
        self, name: str, encrypted_queries: Sequence[EncryptedQuery]
    ) -> list[list[TupleFilter]]:
        """Each query's filters under ``name``'s evaluator; any bad query raises first."""
        evaluator = self._evaluator(name)
        for encrypted_query in encrypted_queries:
            if encrypted_query.scheme_name != evaluator.scheme_name:
                raise ServerError(
                    f"query scheme {encrypted_query.scheme_name!r} does not match the "
                    f"relation's scheme {evaluator.scheme_name!r}"
                )
        return [evaluator.compile(q) for q in encrypted_queries]

    def _scan(
        self,
        name: str,
        stored: EncryptedRelation,
        encrypted_query: EncryptedQuery,
        filters: Sequence[TupleFilter],
    ) -> EvaluationResult:
        result = evaluate_conjunction(stored, filters)
        self._audit.record(
            AuditEventKind.QUERY_EXECUTED,
            name,
            result_size=len(result.matching),
            examined=result.examined,
            token_evaluations=result.token_evaluations,
            token_count=len(encrypted_query.tokens),
        )
        return result
