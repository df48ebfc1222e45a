"""The :class:`EncryptedDatabase` session facade.

One object wraps the whole outsourcing stack of the paper: a master secret
(``K``), a registered scheme (``E``, ``Eq``, ``D``), an untrusted provider
and the envelope wire protocol between them.  Each table gets its own
scheme instance keyed with a sub-key derived from the master secret, so one
session can hold many relations while the user manages a single key.

Every operation -- reads and writes, and the DDL and metadata of
:meth:`EncryptedDatabase.create_table` / :meth:`~EncryptedDatabase.attach_table`
/ :meth:`~EncryptedDatabase.drop_table` / :meth:`~EncryptedDatabase.count` /
:meth:`~EncryptedDatabase.retrieve_all`, evaluator deployment included --
travels as protocol envelopes through the provider's ``handle_message``
(the same bytes a remote transport carries), sent with the one
:func:`~repro.outsourcing.client.request` helper, which checks and decodes
each answer as :data:`~repro.outsourcing.protocol.ANSWERS` declares it, so
a call names only its request kind.  The provider is the
in-process :class:`~repro.outsourcing.server.OutsourcedDatabaseServer`, a
:class:`~repro.net.client.RemoteServerProxy` carrying the envelopes over
:mod:`repro.net`, or a sharded fleet behind a
:class:`~repro.cluster.router.ShardRouter` (see
:meth:`EncryptedDatabase.connect` and the ``shards=`` form of
:meth:`EncryptedDatabase.open`); only how the bytes travel differs.

Reads accept query AST nodes or SQL strings; SQL is routed to the right
table via the relation name in its ``FROM`` clause.  Each write is one
envelope, an indexed session's posting delta included: an insert of any
number of rows is one ``INSERT_TUPLES``; deletes and updates resolve the
*true* matches client-side (decrypt, filter false positives) and then
address tuples by their public random ids in one ``DELETE_TUPLES``, which
answers the ids that really went -- so the provider never learns which
plaintext predicate drove the mutation.  A write is never resent on a
fresh connection once it may have been delivered
(:data:`~repro.outsourcing.protocol.REPLAY_UNSAFE`): a lost answer is a
:class:`DatabaseError`, not a second copy or a count of 0 for rows that
were removed.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from repro.cache import CacheError, ResultCache, coerce_cache_config
from repro.core.dph import (
    DatabasePrivacyHomomorphism,
    DecryptionReport,
    EvaluationResult,
    filter_tuples,
)
from repro.crypto.keys import SecretKey
from repro.crypto.rng import RandomSource
from repro.index.client import TableIndexer
from repro.index.wire import (
    IndexDelta,
    IndexLookupRequest,
    encode_index_delta,
    encode_index_lookup,
    encode_index_snapshot,
)
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Span,
    Trace,
    TraceBuffer,
    current_trace,
    merge_snapshots,
    new_trace_id,
    use_trace,
)
from repro.outsourcing import protocol
from repro.outsourcing.client import SelectOutcome, request
from repro.outsourcing.evaluators import describe_evaluator
from repro.outsourcing.protocol import MessageKind, ProtocolError
from repro.outsourcing.server import OutsourcedDatabaseServer, ServerError
from repro.outsourcing.storage import StorageBackend
from repro.relational.errors import QueryError
from repro.relational.query import Projection, Query, selection_predicates
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.sql import parse_sql
from repro.relational.tuples import RelationTuple
from repro.schemes import registry


class DatabaseError(Exception):
    """An :class:`EncryptedDatabase` operation failed."""


@dataclass(frozen=True)
class TableHandle:
    """One outsourced relation inside a session: its schema and scheme instance.

    ``indexer`` is present on indexed sessions only: the client-side half
    of the table's encrypted inverted index (see :mod:`repro.index`).
    """

    name: str
    schema: RelationSchema
    scheme: DatabasePrivacyHomomorphism
    indexer: TableIndexer | None = None


#: Distinct ``(SQL text, table argument)`` pairs whose parse a session keeps
#: (about 0.6 KB each; cf. ``protocol.SCHEMA_MEMO_SIZE``).  A full memo
#: starts over, which costs the hot statements one parse each.
STATEMENT_MEMO_SIZE = 2048


def _cache_key(parsed: Query) -> tuple | None:
    """Where the cached answer to ``parsed`` lives: its ``(attribute, value)`` conjuncts.

    The conjuncts name the answer -- the encrypted query is a function of
    them, and two queries may even share one (two salaries of one bucket)
    while an index lookup tells them apart -- so a hit needs no ``Eq`` at
    all.  The first pair is the entry's eviction tag (see
    :meth:`EncryptedDatabase._invalidate_cache`).  ``None`` -- a value that
    cannot be hashed -- means the read bypasses the cache.
    """
    key = tuple((p.attribute, p.value) for p in selection_predicates(parsed))
    try:
        hash(key)
    except TypeError:
        return None
    return key


class _Answer:
    """One query's answer as the session holds (and caches) it.

    ``body`` is the provider's ``QUERY_RESULT`` body (``None`` from a
    batch); a select opens it where it lies.  ``evaluation``, the ciphertext
    reply ``update`` and ``delete`` take tuple ids from, is decoded on first
    read.  ``decrypted`` is what the first ``select`` made of it -- ``(rows,
    returned, false_positives, kept)``, the rows an immutable tuple of
    immutable tuples -- snapshotted before any caller sees the relation, so
    every later hit hands out a fresh :class:`Relation` over rows nobody can
    change.  The late writes depend on the answer's bytes alone, so racing
    fills agree.
    """

    __slots__ = ("body", "_evaluation", "decrypted")

    def __init__(self, body: bytes | None, evaluation: EvaluationResult | None = None) -> None:
        self.body = body
        self._evaluation = evaluation
        self.decrypted: tuple | None = None

    @property
    def evaluation(self) -> EvaluationResult:
        evaluation = self._evaluation
        if evaluation is None:
            try:
                evaluation = protocol.decode_query_result(self.body)
            except ProtocolError as exc:
                raise DatabaseError(str(exc)) from exc
            self._evaluation = evaluation
        return evaluation


class _TracedOperation:
    """The ``with`` scope of one session operation; yields its root span.

    Mints a fresh trace id, binds it as the ambient trace (every layer
    below -- proxies, router, provider -- records spans against it and the
    id rides the v3 envelope to remote providers), and on the way out files
    the trace, feeds the slow-query log, and observes the per-op-kind
    latency histogram.  Nested operations (an update's inner insert) join
    the caller's trace as plain spans instead of minting their own.
    """

    __slots__ = ("_session", "_op_kind", "_trace", "_binding", "_span")

    def __init__(self, session: "EncryptedDatabase", op_kind: str) -> None:
        self._session = session
        self._op_kind = op_kind

    def __enter__(self) -> Span:
        trace = current_trace()
        self._trace = None
        if trace is None:
            self._trace = trace = Trace(new_trace_id())
            self._binding = use_trace(trace)
            self._binding.__enter__()
        self._span = trace.span(f"session.{self._op_kind}")
        return self._span.__enter__()

    def __exit__(self, exc_type, exc, traceback) -> None:
        self._span.__exit__(exc_type, exc, traceback)
        trace = self._trace
        if trace is None:
            return
        self._binding.__exit__(exc_type, exc, traceback)
        session = self._session
        session._last_trace_id = trace.trace_id
        session._trace_buffer.record(trace)
        session._slow_queries.observe(trace)
        session._metrics.histogram(
            "session_op_seconds", op_kind=self._op_kind
        ).observe(self._span.duration_s)


class EncryptedDatabase:
    """A keyed, multi-relation session against an untrusted provider."""

    def __init__(
        self,
        key: SecretKey,
        server: OutsourcedDatabaseServer,
        scheme: str,
        rng: RandomSource | None = None,
        scheme_options: dict | None = None,
        index: bool = False,
        cache=None,
    ) -> None:
        self._key = key
        self._server = server
        self._scheme_name = registry.resolve_name(scheme)
        self._rng = rng
        self._scheme_options = dict(scheme_options or {})
        self._tables: dict[str, TableHandle] = {}
        self._index_enabled = bool(index)
        # The client-side observability plane: per-op latency histograms,
        # completed traces, and the slow-query log of this session.
        self._metrics = MetricsRegistry()
        self._trace_buffer = TraceBuffer()
        self._slow_queries = SlowQueryLog()
        self._last_trace_id: bytes | None = None
        # (SQL text, table argument) -> (relation name, Query).  Literals are
        # typed by the schema, so every DDL swaps in a fresh dict; a parse
        # in flight then fills the dict it started from, which nobody reads.
        self._statements: dict[tuple, tuple[str, Query]] = {}
        # The hot-key result cache (see repro.cache and _cache_key): a write
        # of this session evicts what its rows can satisfy.
        try:
            cache_config = coerce_cache_config(cache)
        except CacheError as exc:
            raise DatabaseError(str(exc)) from exc
        self._cache = (
            ResultCache(cache_config, metrics=self._metrics)
            if cache_config is not None
            else None
        )

    @classmethod
    def open(
        cls,
        key: SecretKey | bytes | None = None,
        server: OutsourcedDatabaseServer | None = None,
        scheme: str = "swp",
        *,
        storage: StorageBackend | None = None,
        shards: list | None = None,
        replicas: int = 1,
        rng: RandomSource | None = None,
        scheme_options: dict | None = None,
        index: bool = False,
        cache=None,
    ) -> "EncryptedDatabase":
        """Open a session.

        Parameters
        ----------
        key:
            The master secret; generated freshly when omitted.
        server:
            The provider to talk to -- any object with a
            ``handle_message(bytes) -> bytes``; an in-process one is
            created when omitted (optionally over ``storage``).
        scheme:
            Name (or alias) of a registered scheme; see
            :func:`repro.schemes.registry.available_schemes`.
        storage:
            Storage backend for an auto-created server.  Rejected when an
            explicit ``server`` is passed (configure that server directly).
        shards:
            Shard a logical database across several backends: a list of
            server objects and/or ``tcp://`` URLs wrapped in a
            :class:`~repro.cluster.router.ShardRouter`.  Mutually exclusive
            with ``server`` and ``storage``; build the router yourself for
            non-default cluster options (timeouts, shard ids).
        replicas:
            Replication factor of a sharded session: every tuple is stored
            on this many shards, so reads stay complete with up to
            ``replicas - 1`` shards down.  Only valid together with
            ``shards``; defaults to 1 (no replication).
        rng:
            Randomness source handed to each table's scheme instance
            (seedable for reproducible experiments).
        scheme_options:
            Extra keyword options forwarded to the scheme factory.
        index:
            Maintain an encrypted inverted index per table (see
            :mod:`repro.index`): the session ships each table's postings
            and posting deltas through every DDL/DML operation and serves
            exact selects via ``INDEX_LOOKUP`` in O(result) provider
            work, falling back to the linear scan whenever the provider
            cannot serve it.
        cache:
            Keep a result cache of this session's reads (see
            :mod:`repro.cache`): repeated hot queries are answered from
            memory without a provider round trip.  A write of this
            session evicts the entries its rows can satisfy (and a TTL
            bounds writers this session cannot see).  ``True`` enables
            the defaults; an int sets the entry budget; a
            :class:`~repro.cache.CacheConfig` (or dict of its fields)
            sets everything.  Off by default.  A read that raises caches
            nothing, so a shard outage never leaves a partial answer behind.
        """
        if key is None:
            key = SecretKey.generate(rng=rng)
        elif isinstance(key, (bytes, bytearray)):
            key = SecretKey(bytes(key))
        if shards is not None:
            if server is not None or storage is not None:
                raise DatabaseError(
                    "pass shards on their own, not together with a server "
                    "or storage backend"
                )
            from repro.cluster.router import ShardRouter

            try:
                server = ShardRouter(shards, replicas=replicas)
            except ServerError as exc:
                raise DatabaseError(str(exc)) from exc
        elif replicas != 1:
            raise DatabaseError(
                "replicas applies to sharded sessions only "
                "(pass shards=[...] or connect to a cluster:// URL)"
            )
        elif server is None:
            server = OutsourcedDatabaseServer(storage=storage)
        elif storage is not None:
            raise DatabaseError("pass either a server or a storage backend, not both")
        return cls(
            key,
            server,
            scheme,
            rng=rng,
            scheme_options=scheme_options,
            index=index,
            cache=cache,
        )

    @classmethod
    def connect(
        cls,
        provider,
        key: SecretKey | bytes | None = None,
        scheme: str = "swp",
        *,
        rng: RandomSource | None = None,
        scheme_options: dict | None = None,
        pool_size: int = 4,
        timeout: float | None = 30.0,
        shard_timeout: float | None = None,
        replicas: int | None = None,
        index: bool | None = None,
        cache=None,
    ) -> "EncryptedDatabase":
        """Open a session against a provider given by URL (or server object).

        A ``"tcp://host:port"`` URL transparently targets a remote provider
        (one started with ``repro serve``, see :mod:`repro.net`): the session
        speaks the same protocol frames as an in-process one, only carried
        over a socket by a pooled :class:`~repro.net.client.RemoteServerProxy`.
        ``pool_size`` and ``timeout`` configure that pool and are rejected
        for non-URL providers (configure the server object directly):
        concurrent callers each borrow their own connection, and
        ``timeout`` bounds each whole round trip.  An ``async=1`` option is
        accepted and has no effect; every ``tcp://`` URL opens the same
        pooled proxy.

        A ``"cluster://host:port,host:port,..."`` URL targets a *sharded*
        deployment (see :mod:`repro.cluster`): one
        :class:`~repro.cluster.router.ShardRouter` spreads the session's
        tuples across every listed provider and scatter-gathers its queries.
        ``shard_timeout`` bounds each shard's answer and applies to cluster
        URLs only.  A ``?replicas=R`` URL query (or the ``replicas``
        keyword; they must agree when both are given) stores every tuple on
        R shards, so reads stay complete -- failing over to surviving
        replicas -- with up to R-1 providers down:
        ``connect("cluster://h1:p1,h2:p2,h3:p3?replicas=2")``.  A read that
        loses more shards than that raises :class:`DatabaseError`; it never
        answers with part of the rows.  Every fleet scatters in the
        caller's thread: every ``tcp://`` shard's envelope is sent, then
        the answers are read in turn, so a gather waits at most the shard
        count times ``shard_timeout``, and a shard that misses it has its
        connection closed.  In-process shards are called inline, and
        ``shard_timeout`` does not bound them.  An ``&async=1`` option is
        accepted and has no effect here either.

        A ``"cluster+file://fleet.json"`` URL restores a sharded session
        from a fleet manifest (``repro cluster spawn --manifest``): shard
        addresses, stable ring ids and replication factor all come from
        the file, so a coordinator restart needs no re-supplied
        topology.

        An ``index=1`` URL option (``tcp://...?index=1``,
        ``cluster://...?index=1``) -- or the ``index`` keyword; they must
        agree when both are given -- makes the session maintain encrypted
        inverted indexes and answer exact selects via ``INDEX_LOOKUP``
        (see :mod:`repro.index`), scan-falling-back wherever unsupported.

        A ``cache=1`` URL option (``tcp://...?cache=1``,
        ``cluster://...?cache=1``) -- or the ``cache`` keyword; they must
        agree when both are given -- keeps this session's result cache
        (see :mod:`repro.cache`): a hot query is answered from memory, a
        write of this session evicts exactly what its rows can change,
        and another session's writes show up within the cache's TTL.

        Anything that is not a URL string is treated as a server object and
        handed to :meth:`open` unchanged, so call sites can take "where is
        the provider" as a single configuration value.
        """
        owns_proxy = isinstance(provider, str)
        is_manifest = owns_proxy and provider.startswith("cluster+file://")
        is_cluster = is_manifest or (owns_proxy and provider.startswith("cluster://"))
        url_index: bool | None = None
        url_cache: bool | None = None
        if not is_cluster and (shard_timeout, replicas) != (None, None):
            raise DatabaseError(
                "shard_timeout/replicas apply to cluster:// URLs only; "
                "configure the ShardRouter directly"
            )
        if owns_proxy:
            from repro.cluster.router import ShardRouter
            from repro.net.client import RemoteServerProxy, parse_tcp_options

            try:
                if is_manifest:
                    from repro.cluster.manifest import (
                        ClusterManifest,
                        parse_cluster_file_url,
                    )

                    manifest = ClusterManifest.load(parse_cluster_file_url(provider))
                    if replicas is not None and replicas != manifest.replicas:
                        raise DatabaseError(
                            f"conflicting replication factors: the manifest says "
                            f"{manifest.replicas}, the caller says {replicas}"
                        )
                    provider = ShardRouter.from_manifest(
                        manifest,
                        pool_size=pool_size,
                        timeout=timeout,
                        shard_timeout=shard_timeout,
                    )
                elif is_cluster:
                    from repro.cluster.router import parse_cluster_options

                    options = parse_cluster_options(provider)[1]
                    url_index, url_cache = options.get("index"), options.get("cache")
                    provider = ShardRouter.connect(
                        provider,
                        pool_size=pool_size,
                        timeout=timeout,
                        shard_timeout=shard_timeout,
                        replicas=replicas,
                    )
                else:
                    host, port, options = parse_tcp_options(provider)
                    url_index, url_cache = options.get("index"), options.get("cache")
                    provider = RemoteServerProxy(
                        host, port, pool_size=pool_size, timeout=timeout
                    )
            except ServerError as exc:
                raise DatabaseError(str(exc)) from exc
        elif (pool_size, timeout) != (4, 30.0):
            raise DatabaseError(
                "pool_size/timeout apply to tcp:// and cluster:// URLs only; "
                "configure the server object directly"
            )
        try:
            if index is None:
                index = bool(url_index) if url_index is not None else False
            elif url_index is not None and bool(url_index) != bool(index):
                raise DatabaseError(
                    f"conflicting index settings: the URL says index={url_index}, "
                    f"the caller says index={index}"
                )
            if cache is None:
                cache = bool(url_cache) if url_cache is not None else None
            elif url_cache is not None and bool(url_cache) != bool(cache):
                raise DatabaseError(
                    f"conflicting cache settings: the URL says cache={url_cache}, "
                    f"the caller says cache={cache}"
                )
            return cls.open(
                key,
                server=provider,
                scheme=scheme,
                rng=rng,
                scheme_options=scheme_options,
                index=index,
                cache=cache,
            )
        except BaseException:
            if owns_proxy:
                provider.close()  # don't leak the handshaken connection pool
            raise

    # ------------------------------------------------------------------ #
    # Session properties
    # ------------------------------------------------------------------ #

    @property
    def scheme_name(self) -> str:
        """Canonical name of the scheme this session instantiates per table."""
        return self._scheme_name

    @property
    def index_enabled(self) -> bool:
        """True when this session maintains encrypted inverted indexes."""
        return self._index_enabled

    @property
    def cache(self) -> ResultCache | None:
        """The session's result cache, or None when disabled."""
        return self._cache

    @property
    def server(self) -> OutsourcedDatabaseServer:
        """The provider this session talks to."""
        return self._server

    @property
    def tables(self) -> tuple[str, ...]:
        """Names of the tables created in this session."""
        return tuple(self._tables)

    @property
    def metrics(self) -> MetricsRegistry:
        """The session's own metrics registry (per-op latency histograms)."""
        return self._metrics

    @property
    def trace_buffer(self) -> TraceBuffer:
        """Completed traces of this session's operations."""
        return self._trace_buffer

    @property
    def slow_queries(self) -> SlowQueryLog:
        """Operations slower than the slow-query threshold."""
        return self._slow_queries

    @property
    def last_trace_id(self) -> str | None:
        """Hex trace id of the most recent traced operation, or None."""
        return self._last_trace_id.hex() if self._last_trace_id is not None else None

    def metrics_snapshot(self) -> dict:
        """One merged snapshot: this session's registry plus the provider's.

        Every provider shape -- in-process server, router, remote proxy --
        contributes its ``metrics_snapshot``; a bare ``handle_message``
        object adds nothing.  Never raises: metrics are diagnostics, not
        serving.
        """
        snapshots = [self._metrics.snapshot()]
        provider = getattr(self._server, "metrics_snapshot", None)
        if provider is not None:
            with contextlib.suppress(Exception):
                snapshots.append(provider())
        return merge_snapshots(*snapshots)

    def fetch_trace(self, trace_id: str | bytes | None = None) -> dict | None:
        """Assemble one end-to-end trace from the session and the fleet.

        ``trace_id`` may be the hex string :attr:`last_trace_id` reports, the
        raw 16 bytes, or None for the most recent traced operation.  The
        session's own spans are merged with whatever every reachable
        provider recorded under the same id (via their ``trace`` control
        operation), sorted by wall-clock start.  Returns None for an
        unknown id.
        """
        tid = bytes.fromhex(trace_id) if isinstance(trace_id, str) else trace_id
        if tid is None:
            tid = self._last_trace_id
        if tid is None:
            return None
        local = self._trace_buffer.get(tid)
        spans: list[dict] = list(local["spans"]) if local is not None else []
        collector = getattr(self._server, "collect_trace", None)
        if collector is not None:
            with contextlib.suppress(Exception):
                spans.extend(collector(tid))
        if local is None and not spans:
            return None
        spans.sort(key=lambda entry: entry.get("start_s", 0.0))
        start = min((s.get("start_s", 0.0) for s in spans), default=0.0)
        end = max(
            (s.get("start_s", 0.0) + s.get("duration_s", 0.0) for s in spans),
            default=start,
        )
        return {
            "trace_id": tid.hex(),
            "duration_s": max(end - start, 0.0),
            "spans": spans,
        }

    def _traced(self, op_kind: str) -> "_TracedOperation":
        """Trace one session operation end to end (see :class:`_TracedOperation`)."""
        return _TracedOperation(self, op_kind)

    def close(self) -> None:
        """Release the session's transport resources (a no-op in-process).

        Remote sessions close their connection pool; the provider keeps the
        stored relations, so a later session can :meth:`attach_table` them.
        """
        closer = getattr(self._server, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "EncryptedDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def table(self, name: str) -> TableHandle:
        """The handle of one table."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise DatabaseError(f"no table named {name!r} in this session") from exc

    def schema(self, name: str) -> RelationSchema:
        """The schema of one table."""
        return self.table(name).schema

    # ------------------------------------------------------------------ #
    # DDL
    # ------------------------------------------------------------------ #

    def create_table(
        self, schema: RelationSchema | str, rows: list | None = None
    ) -> TableHandle:
        """Create an outsourced table from a schema (or declaration string).

        The table is named after the schema; an optional initial ``rows``
        list is encrypted and shipped with the creating ``STORE_RELATION``
        message.
        """
        if isinstance(schema, str):
            schema = RelationSchema.parse(schema)
        name = schema.name
        if name in self._tables:
            raise DatabaseError(f"table {name!r} already exists in this session")
        if name in self._relation_names():
            raise DatabaseError(
                f"the provider already stores a relation named {name!r}; "
                "attach_table to reuse it or drop_table to replace it"
            )
        handle = self._bind_table(schema)
        relation = Relation(schema, [])
        if rows:
            relation = Relation.from_rows(schema, rows)
        encrypted = handle.scheme.encrypt_relation(relation)
        try:
            body = protocol.encode_encrypted_relation(encrypted)
            self._request(MessageKind.STORE_RELATION, name, body)
        except DatabaseError:
            self._unbind_table(name)
            raise
        finally:
            self._invalidate_cache(name)
        if handle.indexer is not None:
            postings = handle.indexer.snapshot(relation, encrypted)
            self._request(MessageKind.INDEX_PUT, name, encode_index_snapshot(postings))
        return handle

    def attach_table(self, schema: RelationSchema | str) -> TableHandle:
        """Re-attach a table the provider already stores (e.g. file-backed).

        Rebuilds the table's scheme instance from this session's master key
        and re-deploys the evaluator, without shipping a ``STORE_RELATION``
        message -- the provider's copy is left untouched.  The session key
        must be the one the table was created under, or decryption will fail.
        """
        if isinstance(schema, str):
            schema = RelationSchema.parse(schema)
        name = schema.name
        if name in self._tables:
            raise DatabaseError(f"table {name!r} already exists in this session")
        if name not in self._relation_names():
            raise DatabaseError(f"the provider stores no relation named {name!r}")
        stored = self._stored(name)
        if stored.schema != schema:
            raise DatabaseError(
                f"schema mismatch for table {name!r}: the provider stores "
                f"{stored.schema!r}"
            )
        handle = self._bind_table(schema)
        if handle.indexer is not None:
            # The provider's index is soft state the previous session may
            # have taken with it; rebuild it from the stored ciphertexts
            # (decrypting client-side, as always) and re-ship it.
            rows = handle.scheme.decrypt_tuples(stored.encrypted_tuples)
            postings = handle.indexer.snapshot(Relation(schema, rows), stored)
            self._request(MessageKind.INDEX_PUT, name, encode_index_snapshot(postings))
        return handle

    def _bind_table(self, schema: RelationSchema) -> TableHandle:
        """Derive the table key, build the scheme, deploy the evaluator."""
        name = schema.name
        table_key = SecretKey(self._key.subkey(f"table/{name}"))
        scheme = registry.create(
            self._scheme_name,
            schema,
            table_key,
            rng=self._rng,
            **self._scheme_options,
        )
        indexer = None
        if self._index_enabled:
            # The index PRF key is its own derivation branch: compromising
            # it reveals keyword labels, never the payload key material.
            indexer = TableIndexer(schema, self._key.subkey(f"index/{name}"))
        handle = TableHandle(name=name, schema=schema, scheme=scheme, indexer=indexer)
        description = describe_evaluator(scheme.server_evaluator())
        body = protocol.encode_evaluator_description(description)
        self._request(MessageKind.REGISTER_EVALUATOR, name, body)
        self._tables[name] = handle
        self._statements = {}
        return handle

    def _unbind_table(self, name: str) -> None:
        del self._tables[name]
        self._statements = {}

    def drop_table(self, name: str) -> None:
        """Drop a table from the session and the provider.

        The session entry is removed even when the provider no longer holds
        the relation (e.g. another session dropped it first), so a drop
        cannot wedge the table in this session.
        """
        self.table(name)
        try:
            self._request(MessageKind.DROP_RELATION, name)
        finally:
            self._invalidate_cache(name)
            self._unbind_table(name)

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def insert(self, table: str, row: RelationTuple | dict | tuple) -> None:
        """Encrypt and append one row (a dict, tuple, or :class:`RelationTuple`)."""
        self.insert_many(table, [row])

    def insert_many(self, table: str, rows) -> int:
        """Encrypt and append several rows in one ``INSERT_TUPLES``; returns how many.

        Every row is checked and encrypted first, so a bad row raises what
        inserting it alone raises and nothing is sent.  Like
        ``create_table(rows=)``, a batch past the frame ceiling fails whole.
        """
        with self._traced("insert") as op_span:
            op_span.annotations["table"] = table
            handle = self.table(table)
            relation_tuples = [self._as_tuple(handle, row) for row in rows]
            if not relation_tuples:
                return 0
            encrypted = handle.scheme.encrypt_tuples(relation_tuples)
            postings = b""
            if handle.indexer is not None:
                delta_of = handle.indexer.insert_delta
                additions = tuple(
                    posting
                    for row, encrypted_tuple in zip(relation_tuples, encrypted)
                    for posting in delta_of(row, encrypted_tuple.tuple_id).additions
                )
                postings = encode_index_delta(IndexDelta(additions=additions))
            body = protocol.encode_insert_tuples(postings, encrypted)
            try:
                self._request(MessageKind.INSERT_TUPLES, table, body)
            finally:
                # Even a failed insert may have reached the provider, so the
                # eviction is unconditional: one extra miss beats one stale hit.
                self._invalidate_cache(table, relation_tuples)
            return len(relation_tuples)

    def delete(self, query: Query | str, table: str | None = None) -> int:
        """Delete the tuples matching an exact-select query; returns the count.

        Matching happens client-side on decrypted results (so the scheme's
        false positives are never deleted); the provider only sees the
        public tuple ids (and, indexed, their posting removals) in the
        ``DELETE_TUPLES`` message, and the count is the ids it reports gone.
        """
        with self._traced("delete") as op_span:
            name, parsed = self._resolve(query, table)
            op_span.annotations["table"] = name
            matches = self._true_matches(name, parsed)
            if not matches:
                return 0
            return self._delete_matches(name, matches)

    def update(self, query: Query | str, changes: dict, table: str | None = None) -> int:
        """Re-encrypt the matching tuples with ``changes`` applied.

        Implemented as insert-then-delete: fresh ciphertexts (new random
        ids, new nonces) are appended first, and only once that insert has
        fully succeeded are the old ids removed, so the provider cannot link
        a tuple's pre- and post-update versions and a mid-operation failure
        degrades to transient duplicates rather than data loss.  Returns the
        number of re-encrypted replacements shipped (which can exceed the
        provider's acknowledged deletions if a concurrent session removed a
        matched tuple first).
        """
        with self._traced("update") as op_span:
            name, parsed = self._resolve(query, table)
            op_span.annotations["table"] = name
            handle = self.table(name)
            unknown = set(changes) - set(handle.schema.attribute_names)
            if unknown:
                raise DatabaseError(
                    f"unknown attribute(s) in update: {sorted(unknown)}"
                )
            matches = self._true_matches(name, parsed)
            if not matches:
                return 0
            replacements = []
            for _, plaintext in matches:
                values = plaintext.as_dict()
                values.update(changes)
                replacements.append(self._make_tuple(handle.schema, values))
            self.insert_many(name, replacements)
            self._delete_matches(name, matches)
            return len(replacements)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def select(self, query: Query | str, table: str | None = None) -> SelectOutcome:
        """Run one exact select and return the decrypted, filtered result."""
        with self._traced("select") as op_span:
            name, parsed = self._resolve(query, table)
            op_span.annotations["table"] = name
            handle = self.table(name)
            return self._outcome(handle, self._run_query(handle, parsed), parsed)

    def select_many(
        self, queries, table: str | None = None
    ) -> list[SelectOutcome]:
        """Run several exact selects in one ``BATCH_QUERY`` round trip.

        All queries must address the same table (named explicitly or via the
        SQL ``FROM`` clauses).
        """
        with self._traced("select_many") as op_span:
            resolved = [self._resolve(query, table) for query in queries]
            if not resolved:
                return []
            names = {name for name, _ in resolved}
            if len(names) != 1:
                raise DatabaseError(
                    f"a batch addresses exactly one table, got {sorted(names)}"
                )
            name = resolved[0][0]
            op_span.annotations["table"] = name
            op_span.annotations["batch_size"] = len(resolved)
            handle = self.table(name)
            answers: list[_Answer | None] = [None] * len(resolved)
            keys: list[tuple | None] = [None] * len(resolved)
            if self._cache is not None:
                # Serve what we can from the cache; only the misses are
                # encrypted and shipped (an all-hit batch does neither).
                keys = [_cache_key(parsed) for _, parsed in resolved]
                for position, key in enumerate(keys):
                    if key is not None:
                        answers[position] = self._cache.lookup(name, key)
                generation = self._cache.generation(name)
            missing = [i for i, answer in enumerate(answers) if answer is None]
            op_span.annotations["batch_misses"] = len(missing)
            if missing:
                encrypted = [
                    handle.scheme.encrypt_query(resolved[i][1]) for i in missing
                ]
                body = protocol.encode_query_batch(encrypted)
                fetched = self._request(MessageKind.BATCH_QUERY, name, body)
                if len(fetched) != len(missing):
                    raise DatabaseError(
                        f"provider answered {len(fetched)} results "
                        f"for {len(missing)} queries"
                    )
                for position, result in zip(missing, fetched):
                    answers[position] = _Answer(None, result)
                    key = keys[position]
                    if key is not None:
                        self._cache.put(
                            name, key, answers[position], generation, key[:1]
                        )
            return [
                self._outcome(handle, answer, parsed)
                for answer, (_, parsed) in zip(answers, resolved)
            ]

    def retrieve_all(self, table: str) -> Relation:
        """Fetch the provider's full copy of a table and decrypt it."""
        handle = self.table(table)
        return handle.scheme.decrypt_relation(self._stored(table))

    def count(self, table: str) -> int:
        """Number of tuples the provider currently stores."""
        self.table(table)
        return self._request(MessageKind.TUPLE_COUNT, table)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _invalidate_cache(self, relation: str, rows=None) -> None:
        """Write path: evict the cached answers the write may have changed.

        ``rows`` are the plaintext tuples the write adds or removes.  A
        fill is filed under the first ``(attribute, value)`` conjunct of
        its query and a row that satisfies the whole conjunction satisfies
        that conjunct, so passing every pair of every row evicts a
        superset of the answers the write can change -- under the same
        ``==`` the result filter applies.  ``None`` (DDL: the extent is the
        relation) evicts all of it.
        """
        if self._cache is None:
            return
        tags = None
        if rows is not None:
            # Schema-validated values (str / int), so always hashable.
            tags = {pair for row in rows for pair in row.items()}
        self._cache.invalidate(relation, tags)

    def _stored(self, table: str):
        """The provider's ciphertext copy of a relation."""
        return self._request(MessageKind.FETCH_RELATION, table).matching

    def _relation_names(self) -> tuple[str, ...]:
        return self._request(MessageKind.RELATION_NAMES, "")

    def _request(self, kind: MessageKind, relation_name: str, body: bytes = b"", decode=True):
        """One envelope to the provider; its decoded answer (or its body).

        Any failure is a :class:`DatabaseError`: a refusal, a transport
        failure, and a reply or reply body that does not parse (the
        :class:`~repro.outsourcing.protocol.ProtocolError` is its
        ``__cause__``).
        """
        return request(self._server, kind, relation_name, body, error=DatabaseError, decode=decode)

    def _resolve(self, query: Query | str, table: str | None) -> tuple[str, Query]:
        """Route a query (AST node or SQL text) to a table of this session."""
        if isinstance(query, str):
            memo = self._statements
            resolved = memo.get((query, table))
            if resolved is not None:
                return resolved

            def schema_of(relation_name: str) -> RelationSchema:
                if table is not None and table != relation_name:
                    raise DatabaseError(
                        f"SQL addresses table {relation_name!r}, caller said {table!r}"
                    )
                return self.table(relation_name).schema

            # One parse: the lookup routes by the FROM clause and hands back
            # the schema that types the bare literals.  A parse that raises
            # never gets here, so it is never memoised.
            parsed = parse_sql(query, schema_of)
            if len(memo) >= STATEMENT_MEMO_SIZE:
                memo.clear()
            memo[(query, table)] = resolved = (parsed.relation_name, parsed.query)
            return resolved
        if table is None:
            if len(self._tables) != 1:
                raise DatabaseError(
                    "a table name is required when the session holds "
                    f"{len(self._tables)} tables"
                )
            table = next(iter(self._tables))
        parsed = query
        validate = getattr(parsed, "validate", None)
        if validate is not None:
            validate(self.table(table).schema)
        return table, parsed

    def _run_query(self, handle: TableHandle, parsed: Query, select: bool = True) -> _Answer:
        """One encrypted read for an already-resolved query, cache included.

        On cache-enabled sessions the query's conjuncts are the cache key
        (see :func:`_cache_key`), so a hot query costs no ``Eq``, no round
        trip and -- once a select has decrypted the entry -- no ``D``.  The
        fill is generation-checked (see :class:`~repro.cache.ResultCache`):
        a write landing while the read was in flight drops the fill
        instead of caching a stale answer.  A fresh answer is decrypted
        (``select``) or decoded before it is cached: bad bytes never are.
        """
        key = None if self._cache is None else _cache_key(parsed)
        if key is not None:
            cached = self._cache.lookup(handle.name, key)
            if cached is not None:
                return cached
            generation = self._cache.generation(handle.name)
        encrypted_query = handle.scheme.encrypt_query(parsed)
        answer = _Answer(self._fetch_query_result(handle, parsed, encrypted_query))
        if select:
            self._decrypted(handle, answer, parsed)
        else:
            answer.evaluation  # decoded now, so bad bytes raise before the put
        if key is not None:
            self._cache.put(handle.name, key, answer, generation, key[:1])
        return answer

    def _fetch_query_result(self, handle: TableHandle, parsed: Query, encrypted_query) -> bytes:
        """The provider round trip behind :meth:`_run_query`; the answer's body.

        Indexed sessions prefer ``INDEX_LOOKUP``: trapdoor labels plus the
        ordinary encrypted query as the embedded scan fallback, so any
        provider answers -- O(result) when it holds the index, O(data)
        otherwise -- and the result set is the same either way (the client
        filter below discards index false candidates exactly as it
        discards scheme false positives).
        """
        if handle.indexer is not None:
            try:
                labels = handle.indexer.query_labels(parsed)
            except QueryError:
                labels = None  # a query shape the index cannot serve
            if labels is not None:
                request = IndexLookupRequest(
                    labels=labels, fallback_query=encrypted_query
                )
                body = encode_index_lookup(request)
                return self._request(MessageKind.INDEX_LOOKUP, handle.name, body, decode=False)
        body = protocol.encode_encrypted_query(encrypted_query)
        return self._request(MessageKind.QUERY, handle.name, body, decode=False)

    def _delete_matches(self, name: str, matches: list[tuple]) -> int:
        """Remove already-resolved matches in one ``DELETE_TUPLES``; returns
        how many of their ids the provider reports gone (exact under races)."""
        handle = self.table(name)
        postings = b""
        if handle.indexer is not None:
            delta = handle.indexer.remove_delta(
                (plaintext, t.tuple_id) for t, plaintext in matches
            )
            postings = encode_index_delta(delta)
        body = protocol.encode_delete_tuples([t.tuple_id for t, _ in matches], postings)
        try:
            return len(self._request(MessageKind.DELETE_TUPLES, name, body))
        finally:
            self._invalidate_cache(name, [plaintext for _, plaintext in matches])

    def _true_matches(
        self, name: str, parsed: Query
    ) -> list[tuple]:
        """Decrypted true matches of a query: ``(encrypted_tuple, plaintext)`` pairs."""
        handle = self.table(name)
        answer = self._run_query(handle, parsed, select=False)
        returned = answer.evaluation.matching.encrypted_tuples
        plaintexts = handle.scheme.decrypt_tuples(returned)
        kept = set(map(id, filter_tuples(handle.schema, plaintexts, parsed).relation))
        return [
            (encrypted_tuple, plaintext)
            for encrypted_tuple, plaintext in zip(returned, plaintexts)
            if id(plaintext) in kept
        ]

    def _decrypted(self, handle: TableHandle, answer: _Answer, parsed: Query) -> tuple:
        """An answer's ``decrypted`` snapshot, made on first use."""
        if answer.decrypted is None:
            try:
                report = handle.scheme.decrypt_result(answer.body or answer.evaluation, parsed)
            except ProtocolError as exc:
                raise DatabaseError(str(exc)) from exc
            answer.decrypted = (
                report.relation.tuples, report.returned, report.false_positives, report.kept
            )
        return answer.decrypted

    def _outcome(
        self, handle: TableHandle, answer: _Answer, parsed: Query
    ) -> SelectOutcome:
        """The caller's own copy of an answer: decrypt once, copy row pointers after."""
        rows, returned, false_positives, kept = self._decrypted(handle, answer, parsed)
        report = DecryptionReport(
            Relation._of_checked(handle.schema, rows), returned, false_positives, kept
        )
        projected = None
        if isinstance(parsed, Projection) and parsed.attributes:
            projected = report.relation.project(list(parsed.attributes))
        return SelectOutcome(report=report, projected_rows=projected, answer=answer)

    def _as_tuple(self, handle: TableHandle, row) -> RelationTuple:
        if isinstance(row, RelationTuple):
            return row
        if isinstance(row, dict):
            return self._make_tuple(handle.schema, row)
        values = dict(zip(handle.schema.attribute_names, row))
        if len(values) != len(handle.schema.attribute_names) or len(row) != len(values):
            raise DatabaseError(
                f"row has {len(row)} values, schema {handle.schema.name!r} "
                f"has {len(handle.schema.attribute_names)} attributes"
            )
        return self._make_tuple(handle.schema, values)

    @staticmethod
    def _make_tuple(schema: RelationSchema, values: dict) -> RelationTuple:
        """Build a validated tuple, translating schema violations to the API error."""
        try:
            return RelationTuple(schema, values)
        except Exception as exc:
            raise DatabaseError(str(exc)) from exc
