"""The shard router: one logical provider over a fleet of shards.

:class:`ShardRouter` answers :meth:`~ShardRouter.handle_message` exactly as
one provider would -- and every data and DDL operation is an envelope -- so
:class:`~repro.api.EncryptedDatabase` drives N providers exactly as it
drives one.  Each backend is either an in-process
:class:`~repro.outsourcing.server.OutsourcedDatabaseServer` (or anything with
its ``handle_message``) or a ``tcp://host:port`` URL (opened as an owned
:class:`~repro.net.client.RemoteServerProxy`), mixed freely.

Routing is per *encrypted tuple*: the consistent-hash ring of
:mod:`repro.cluster.ring` keys on the public random tuple id, so placement
is a function of values every provider sees anyway.  With a replication
factor R (``replicas=R``) every tuple lives on its R ring successors --
R distinct shards.  Operation shapes:

===================  ====================================================
``INSERT_TUPLES``    one re-framed envelope per shard: the tuples it is an R
                     ring successor of, plus every posting (the whole index
                     lives on every shard); a shard with neither gets nothing
``DELETE_TUPLES``    the ids and postings to every shard (providers
                     ignore unknown ids, so this stays correct while
                     tuples are mid-migration or a rebalance is deferred);
                     the answer is the union of the ids that went
``STORE_RELATION``   partitioned across all shards, each tuple stored on
                     its R successors (every shard stores the relation,
                     possibly empty, so queries can fan out)
``QUERY``            scatter to all shards, merge the evaluation results
                     (deduplicated by public tuple id)
``BATCH_QUERY``      scatter the whole batch, merge element-wise
``FETCH_RELATION``   scatter, merge the stored copies (one per tuple id)
``TUPLE_COUNT``      ``LIST_TUPLE_IDS`` to every shard, count distinct ids
``INDEX_PUT``        the postings to every shard (fail-fast)
``INDEX_LOOKUP``     scatter, merge as ``QUERY``
DDL                  ``REGISTER_EVALUATOR`` / ``DROP_RELATION`` to every
                     shard (fail-fast); ``RELATION_NAMES`` unions the lists
===================  ====================================================

Each kind is answered, and each shard's answer checked, as
:data:`~repro.outsourcing.protocol.ANSWERS` declares it for one provider.

Writes always run fail-fast (a partially applied write is corruption).
Scatter reads first try to *fail over*: when some shards fail but every
ring segment still has a live replica (:meth:`ConsistentHashRing.covers`),
the surviving answers are provably complete after deduplication and the
read succeeds as if nothing happened.  Any other shard failure -- more
failures than the replicas can absorb, or any failure of a write -- raises
:class:`~repro.cluster.executor.ShardFailedError`: an answer is either the
complete one or an error, never a partial one.

Merged reads deduplicate by the public tuple id: replication makes
multiple physical copies of one ciphertext the *normal* case, and the
insert-first rebalancer can leave transient duplicates after a crash, so
every read path collapses copies before answering (a tuple id is a random
nonce chosen at encryption time; two ciphertexts sharing it are the same
stored tuple, not a collision).

The coordinator (this class) runs client-side and is trusted; the providers
individually observe strictly less than the single-provider deployment --
each sees only its ``1/N`` of the ciphertexts and every query's fan-out,
which is the same access pattern the paper already concedes.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from repro.core.dph import (
    DphError,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
)
from repro.cluster.executor import (
    ClusterError,
    ShardFailedError,
    ShardRequest,
    scatter,
)
from repro.cluster.ring import ConsistentHashRing, DEFAULT_VIRTUAL_NODES
from repro.obs import MetricsRegistry, current_trace, merge_snapshots
from repro.outsourcing import protocol
from repro.outsourcing.client import checked_answer, request as envelope_request
from repro.outsourcing.protocol import MessageKind, MessageV2, ProtocolError
from repro.outsourcing.server import ServerError
from repro.outsourcing.storage import StorageError

#: URL scheme of a sharded deployment: ``cluster://host:port,host:port,...``
CLUSTER_URL_PREFIX = "cluster://"


def parse_cluster_options(url: str) -> tuple[tuple[str, ...], dict]:
    """Split ``cluster://h1:p1,...?replicas=R&index=1`` into URLs and options.

    Returns the per-shard ``tcp://`` URLs plus the parsed query options:
    ``replicas`` (the replication factor of the deployment) and the
    options every provider URL takes (see
    :func:`~repro.net.client.parse_url_query`): ``async`` (accepted and
    without effect: every fleet scatters one way, in the caller's thread),
    ``index`` (the session maintains
    encrypted inverted indexes and serves exact selects through
    ``INDEX_LOOKUP``) and ``cache`` (the session keeps its result cache,
    exactly as on a ``tcp://`` URL).  An unknown or repeated option is
    rejected rather than ignored.
    """
    from repro.net.client import RemoteError, parse_tcp_url, parse_url_query

    if not url.startswith(CLUSTER_URL_PREFIX):
        raise ClusterError(
            f"unsupported cluster URL {url!r} (want {CLUSTER_URL_PREFIX}host:port,...)"
        )
    rest, _, query = url[len(CLUSTER_URL_PREFIX):].partition("?")
    try:
        options = parse_url_query(query, "cluster", integers=("replicas",))
    except RemoteError as exc:
        raise ClusterError(str(exc)) from exc
    parts = [part.strip() for part in rest.split(",")]
    parts = [part for part in parts if part]
    if not parts:
        raise ClusterError(f"cluster URL {url!r} names no shards")
    urls = []
    for part in parts:
        tcp_url = part if part.startswith("tcp://") else f"tcp://{part}"
        try:
            parse_tcp_url(tcp_url)
        except RemoteError as exc:
            raise ClusterError(str(exc)) from exc
        if tcp_url in urls:
            raise ClusterError(f"cluster URL {url!r} lists shard {part!r} twice")
        urls.append(tcp_url)
    return tuple(urls), options


def parse_cluster_url(url: str) -> tuple[str, ...]:
    """Split ``cluster://h1:p1,h2:p2,...`` into per-shard ``tcp://`` URLs."""
    return parse_cluster_options(url)[0]


def merge_evaluation_results(
    results: Sequence[EvaluationResult],
) -> EvaluationResult:
    """Merge per-shard matches, one copy per public tuple id.

    Replication stores each ciphertext on R shards, and the insert-first
    rebalancer can leave a transient extra copy after a crash, so the same
    tuple id may arrive from several shards; answering it once is what
    keeps query multiplicities exact.  The server-side work counters
    (``examined``/``token_evaluations``) stay summed -- they measure work
    the fleet really performed, duplicates included.
    """
    if not results:
        raise ClusterError("cannot merge zero evaluation results")
    return EvaluationResult(
        matching=_one_copy_per_id([result.matching for result in results]),
        examined=sum(result.examined for result in results),
        token_evaluations=sum(result.token_evaluations for result in results),
    )


def _one_copy_per_id(pieces: Sequence[EncryptedRelation]) -> EncryptedRelation:
    """The pieces as one relation: the first copy of each tuple id, in order."""
    first_copies: dict[bytes, EncryptedTuple] = {}
    for piece in pieces:
        for encrypted_tuple in piece.encrypted_tuples:
            first_copies.setdefault(encrypted_tuple.tuple_id, encrypted_tuple)
    return EncryptedRelation(
        schema=pieces[0].schema, encrypted_tuples=tuple(first_copies.values())
    )


#: The routing counters, each ``cluster_<name>_total`` in the router's
#: registry, in :attr:`ShardRouter.stats` order.
_COUNTERS = ("scatter_reads", "failover_reads", "routed_inserts", "index_lookups", "index_writes")


@dataclass
class _Shard:
    """One backend: its ``handle_message`` server plus ownership bookkeeping."""

    shard_id: str
    server: Any
    #: True when the router opened this backend itself (a tcp:// proxy) and
    #: is therefore responsible for closing it.
    owned: bool = False


@dataclass(frozen=True)
class _Plan:
    """How one envelope kind crosses the fleet: a row of ``ShardRouter._PLANS``."""

    #: ``(router, request, raw, payload) -> {shard id: envelope bytes}``:
    #: which shards are addressed, and with which bytes each.
    targets: Callable[..., dict[str, bytes]]
    #: ``(decoded per-shard answers, payload) -> the fleet's one answer``,
    #: which goes back as the kind ``protocol.ANSWERS`` names for the request.
    merge: Callable[[Sequence[Any], Any], Any]
    #: Decodes (and so validates) the request body into the ``payload`` that
    #: ``targets`` and ``merge`` see; None forwards it unread.
    decode: Callable[[bytes], Any] | None = None
    #: Reads may fail over to surviving replicas; everything else is a write.
    read: bool = False
    #: The ``_COUNTERS`` entry bumped once per routed request.
    record: str | None = None
    #: The kind the shards are asked instead of the request's own (same
    #: relation and body); None forwards the request's kind.
    sends: MessageKind | None = None
    #: ``(router, request) -> None``: the router's own bookkeeping once the
    #: fleet has answered (what ``add_shard`` must replay on a newcomer).
    settle: Callable[..., None] | None = None


def _first(values: Sequence[Any], _payload: Any) -> Any:
    return values[0]


def _count_of_relation(_values: Sequence[int], relation: EncryptedRelation) -> int:
    return len(relation)


def _count_of_tuples(_values: Sequence[int], payload: tuple) -> int:
    # An INSERT_TUPLES payload is ``(postings, tuples)``: the logical count.
    return len(payload[1])


def _union_of_ids(per_shard_ids: Sequence[Sequence[bytes]], _payload: Any) -> list[bytes]:
    # Every physical copy of a tuple reports the same public id, so the
    # union is the exact logical id set: replicas and crash duplicates
    # collapse for free.
    return sorted(set().union(*per_shard_ids))


def _distinct_ids(per_shard_ids: Sequence[Sequence[bytes]], _payload: Any) -> int:
    # The logical count: physical copies (R per tuple, crash duplicates)
    # count once, so it always matches what a query can return.
    return len(set().union(*per_shard_ids))


def _union_of_names(per_shard: Sequence[Sequence[str]], _payload: Any) -> tuple:
    # First-seen order, each name once.
    return tuple(dict.fromkeys(name for names in per_shard for name in names))


def _max_count(counts: Sequence[int], _payload: Any) -> int:
    return max(counts)


def _merge_results(results: Sequence[EvaluationResult], _payload: Any) -> EvaluationResult:
    return merge_evaluation_results(results)


def _merge_batches(
    per_shard: Sequence[Sequence[EvaluationResult]], _payload: Any
) -> list[EvaluationResult]:
    lengths = {len(results) for results in per_shard}
    if len(lengths) != 1:
        raise ClusterError(f"shards answered differing batch sizes: {sorted(lengths)}")
    return [
        merge_evaluation_results([results[i] for results in per_shard])
        for i in range(lengths.pop())
    ]


class ShardRouter:
    """One logical :class:`OutsourcedDatabaseServer` spread over many shards.

    Every operation is defined once, as an envelope: a row of
    :attr:`_PLANS` says which shards get which bytes and how their answers
    merge, :meth:`_fetch` runs plan -> scatter -> merge, and :meth:`_route`
    frames the response.  :meth:`handle_message` is that route with
    failures turned into ``ERROR`` envelopes.  The membership changes and
    the rebalancer drive single shards through the same rows
    (:meth:`each_shard`).
    """

    def __init__(
        self,
        shards: Sequence[Any],
        *,
        shard_ids: Sequence[str] | None = None,
        replicas: int = 1,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        shard_timeout: float | None = None,
        pool_size: int = 4,
        timeout: float | None = 30.0,
    ) -> None:
        """Build a router over backends (server objects and/or tcp:// URLs).

        Parameters
        ----------
        shards:
            The backends.  A string is treated as a ``tcp://host:port`` URL
            and opened as an owned proxy; anything else must answer
            ``handle_message`` as an
            :class:`~repro.outsourcing.server.OutsourcedDatabaseServer` does.
        shard_ids:
            Ring identifiers, one per backend.  Defaults to the URL for URL
            shards and ``shard-<index>`` for object shards.  Identifiers are
            the ring's key space: reuse the same ids (and order, for the
            positional defaults) across coordinator restarts, or tuples will
            appear misplaced until a rebalance.
        replicas:
            Replication factor R: every tuple is written to its R ring
            successor shards (fail-fast), so reads stay complete with up to
            R-1 shards down.  Needs at least R shards; 1 disables
            replication.
        virtual_nodes:
            Virtual nodes per shard on the ring.
        shard_timeout:
            Per-shard gather timeout in seconds (None waits forever): how
            long the gather waits for each ``tcp://`` shard's answer.  An
            in-process shard is called inline and is not bounded by it.
        pool_size / timeout:
            Connection-pool settings for URL shards.
        """
        if not shards:
            raise ClusterError("a cluster needs at least one shard")
        if replicas < 1:
            raise ClusterError("the replication factor must be at least 1")
        if replicas > len(shards):
            raise ClusterError(
                f"replication factor {replicas} needs at least {replicas} "
                f"shard(s), got {len(shards)}"
            )
        if shard_ids is not None and len(shard_ids) != len(shards):
            raise ClusterError(
                f"{len(shards)} shard(s) but {len(shard_ids)} shard id(s)"
            )
        self._replication = replicas
        self._shard_timeout = shard_timeout
        self._pool_size = pool_size
        self._timeout = timeout
        self._shards: dict[str, _Shard] = {}
        self._ring = ConsistentHashRing(virtual_nodes=virtual_nodes)
        #: ``REGISTER_EVALUATOR`` bodies and schemas by relation: what
        #: ``add_shard`` deploys on a newcomer before it joins.
        self._evaluators: dict[str, bytes] = {}
        self._schemas: dict[str, Any] = {}
        self._metrics = MetricsRegistry()
        self._counters = {
            name: self._metrics.counter(f"cluster_{name}_total") for name in _COUNTERS
        }
        #: The shards whose failure the last failover read absorbed.
        self.last_failover_shard_ids: tuple[str, ...] = ()
        self._closed = False
        # Everything above only validates and allocates; from here on
        # sockets exist, so any failure must tear them down again.
        try:
            for index, backend in enumerate(shards):
                explicit = shard_ids[index] if shard_ids is not None else None
                shard = self._open_backend(backend, explicit, index)
                self._shards[shard.shard_id] = shard
                self._ring.add_shard(shard.shard_id)
        except BaseException:
            self.close()
            raise

    @classmethod
    def connect(
        cls,
        url: str,
        *,
        replicas: int | None = None,
        virtual_nodes: int = DEFAULT_VIRTUAL_NODES,
        shard_timeout: float | None = None,
        pool_size: int = 4,
        timeout: float | None = 30.0,
    ) -> "ShardRouter":
        """Open a router from a ``cluster://h1:p1[?replicas=R]`` URL.

        The replication factor can come from the URL query or the keyword
        (they must agree when both are given) and defaults to 1.  The
        ``index`` and ``cache`` options configure the session, not the
        router (see :meth:`~repro.api.EncryptedDatabase.connect`), and
        ``async`` has no effect: the fleet is the one the URL without it
        opens.
        """
        urls, options = parse_cluster_options(url)
        url_replicas = options.get("replicas")
        if replicas is None:
            replicas = url_replicas if url_replicas is not None else 1
        elif url_replicas is not None and url_replicas != replicas:
            raise ClusterError(
                f"conflicting replication factors: the URL says "
                f"{url_replicas}, the caller says {replicas}"
            )
        return cls(
            urls,
            replicas=replicas,
            virtual_nodes=virtual_nodes,
            shard_timeout=shard_timeout,
            pool_size=pool_size,
            timeout=timeout,
        )

    @classmethod
    def from_manifest(
        cls,
        manifest,
        *,
        shard_timeout: float | None = None,
        pool_size: int = 4,
        timeout: float | None = 30.0,
    ) -> "ShardRouter":
        """Open a router from a :class:`~repro.cluster.manifest.ClusterManifest`.

        The manifest supplies the topology -- shard URLs *and their stable
        ring ids*, replication factor, virtual-node count -- so a
        coordinator restart reproduces the placement ring exactly (no
        tuples look misplaced just because the shard order changed hands).
        Runtime knobs (timeouts, pool size) stay caller-side.
        """
        return cls(
            manifest.shard_urls,
            shard_ids=manifest.shard_ids,
            replicas=manifest.replicas,
            virtual_nodes=manifest.virtual_nodes,
            shard_timeout=shard_timeout,
            pool_size=pool_size,
            timeout=timeout,
        )

    def _open_backend(
        self, backend: Any, shard_id: str | None, index: int
    ) -> _Shard:
        """The backend as a shard under a ring id no other shard holds."""
        is_url = isinstance(backend, str)
        if shard_id is None:
            shard_id = backend if is_url else self._free_shard_id(index)
        if shard_id in self._shards:
            raise ClusterError(f"duplicate shard id {shard_id!r}")
        if not is_url:
            return _Shard(shard_id=shard_id, server=backend)
        from repro.net.client import RemoteServerProxy

        proxy = RemoteServerProxy.connect(
            backend, pool_size=self._pool_size, timeout=self._timeout
        )
        return _Shard(shard_id=shard_id, server=proxy, owned=True)

    def _free_shard_id(self, index: int) -> str:
        """First unused positional id (an earlier remove may have freed one)."""
        while f"shard-{index}" in self._shards:
            index += 1
        return f"shard-{index}"

    # ------------------------------------------------------------------ #
    # Cluster introspection
    # ------------------------------------------------------------------ #

    @property
    def shard_ids(self) -> tuple[str, ...]:
        """Ring identifiers of the shards, in insertion order."""
        return tuple(self._shards)

    @property
    def ring(self) -> ConsistentHashRing:
        """The placement ring (shared, do not mutate directly)."""
        return self._ring

    @property
    def replication(self) -> int:
        """Replication factor R: physical copies stored per tuple."""
        return self._replication

    @property
    def stats(self) -> dict:
        """The routing counters, read from the registry, and the last
        failover read's failed shards."""
        counts = {name: counter.value for name, counter in self._counters.items()}
        counts["last_failover_shard_ids"] = list(self.last_failover_shard_ids)
        return counts

    def shard(self, shard_id: str) -> Any:
        """The backend registered under one ring identifier."""
        try:
            return self._shards[shard_id].server
        except KeyError as exc:
            raise ClusterError(f"no shard named {shard_id!r}") from exc

    def shard_for(self, tuple_id: bytes) -> str:
        """The primary shard of a tuple id (its first ring successor)."""
        return self._ring.assign(tuple_id)

    def replica_shards(self, tuple_id: bytes) -> tuple[str, ...]:
        """The R shards storing a tuple id, primary first."""
        return self._ring.successors(tuple_id, self._replication)

    def per_shard_tuple_counts(self, name: str) -> dict[str, int]:
        """Physical ciphertext count of one relation on every shard."""
        return self.each_shard(MessageKind.TUPLE_COUNT, name)

    def each_shard(
        self,
        kind: MessageKind,
        relation_name: str,
        body: bytes = b"",
        shard_ids: Sequence[str] | None = None,
    ) -> dict[str, Any]:
        """One envelope to each listed shard (default: the fleet), in turn.

        Each shard's answer is checked and decoded as ``protocol.ANSWERS``
        says one provider answers ``kind``, and the first refusal
        raises; returns the answers by shard id.  This is how the
        rebalancer and the membership changes address individual shards.
        """
        ids = self._shards if shard_ids is None else shard_ids
        return {
            shard_id: self._ask(self._shards[shard_id], kind, relation_name, body)
            for shard_id in ids
        }

    def cluster_status(self) -> dict[str, dict]:
        """Best-effort per-shard health/stats snapshot (never raises)."""
        status: dict[str, dict] = {}
        for shard in self._shards.values():
            try:
                names = self._ask(shard, MessageKind.RELATION_NAMES, "")
                entry: dict[str, Any] = {
                    "ok": True,
                    "relations": {
                        name: self._ask(shard, MessageKind.TUPLE_COUNT, name)
                        for name in names
                    },
                }
                remote_stats = getattr(shard.server, "server_stats", None)
                if remote_stats is not None:
                    entry["stats"] = remote_stats()
                else:
                    entry["audit"] = shard.server.audit_log.summary()
            except Exception as exc:  # noqa: BLE001 - a status probe never raises
                entry = {"ok": False, "error": str(exc)}
            status[shard.shard_id] = entry
        return status

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry holding the router's own counters and histograms."""
        return self._metrics

    def metrics_snapshot(self) -> dict:
        """One merged snapshot: the router's registry plus every shard's.

        Shards that cannot answer are skipped -- a metrics probe never
        raises.  Histograms merge exactly because every registry shares the
        fixed bucket bounds.
        """
        snapshots = [self._metrics.snapshot()]
        for shard in self._shards.values():
            with contextlib.suppress(Exception):
                snapshots.append(shard.server.metrics_snapshot())
        return merge_snapshots(*snapshots)

    def collect_trace(self, trace_id: bytes) -> list[dict]:
        """Every span the fleet recorded under ``trace_id``, shard-tagged.

        Fans the ``trace`` control operation out to shards that support it
        (a bare ``handle_message`` backend contributes nothing) and annotates
        each span with the shard it came from; per-shard failures are
        suppressed -- trace assembly is diagnostics, not serving.
        """
        spans: list[dict] = []
        for shard in self._shards.values():
            collector = getattr(shard.server, "collect_trace", None)
            if collector is None:
                continue
            try:
                shard_spans = collector(trace_id)
            except Exception:  # noqa: BLE001 - a trace probe never raises
                continue
            for entry in shard_spans:
                tagged = dict(entry)
                annotations = dict(tagged.get("annotations") or {})
                annotations.setdefault("shard_id", shard.shard_id)
                tagged["annotations"] = annotations
                spans.append(tagged)
        return spans

    def close(self) -> None:
        """Close owned backends.

        Idempotent: several sessions may share one router, and each closing
        session closes its server.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._shards.values():
            if shard.owned:
                shard.server.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # One provider's surface
    # ------------------------------------------------------------------ #

    def handle_message(self, raw: bytes) -> bytes:
        """Route one protocol envelope across the fleet.

        Mirrors the single-provider contract: failures inside a well-formed
        request come back as ``ERROR`` envelopes, not exceptions.
        """
        request = protocol.parse_message(raw)
        try:
            return self._route(request, raw)
        except (ServerError, StorageError, ProtocolError, DphError, ValueError) as exc:
            return self._frame(request, MessageKind.ERROR, str(exc).encode("utf-8"))

    def _route(self, request: MessageV2, raw: bytes) -> bytes:
        """Plan, fetch, frame the response; raises on failure."""
        plan = self._PLANS.get(request.kind)
        if plan is None:
            raise ClusterError(f"cannot route message kind {request.kind.value!r}")
        answer = self._fetch(plan, request, raw)
        if plan.settle is not None:
            plan.settle(self, request)
        kind = protocol.ANSWERS[request.kind]
        return self._frame(request, kind, protocol.ANSWER_CODECS[kind][1](answer))

    def _routed(self, kind: MessageKind, relation_name: str = "") -> Any:
        """The fleet's merged answer to one body-less read, decoded."""
        request = MessageV2(kind, relation_name)
        return self._fetch(self._PLANS[kind], request, request.to_bytes())

    def _ask(
        self, shard: _Shard, kind: MessageKind, relation_name: str, body: bytes = b""
    ) -> Any:
        """One envelope to one shard, member or not, outside any scatter."""
        return envelope_request(shard.server, kind, relation_name, body, error=ClusterError)

    def _fetch(self, plan: _Plan, request: MessageV2, raw: bytes) -> Any:
        """Plan -> scatter -> merge: the fleet's one answer."""
        payload = plan.decode(request.body) if plan.decode is not None else None
        kind = request.kind
        if plan.sends is not None:
            kind = plan.sends
            raw = self._frame(request, kind, request.body)
        envelopes = plan.targets(self, request, raw, payload)
        if plan.record is not None:
            self._counters[plan.record].inc()
        expect = protocol.ANSWERS[kind]
        step = partial(checked_answer, expect=expect, error=ClusterError)
        requests = [
            (shard_id, ShardRequest(envelope, step)) for shard_id, envelope in envelopes.items()
        ]
        responses: Sequence[MessageV2] = ()
        if requests:
            responses = self._gather(
                f"{request.kind.value}({request.relation_name!r})",
                requests,
                read=plan.read,
            )
        decode = protocol.ANSWER_CODECS[expect][0]
        values = [decode(response.body) for response in responses]
        return plan.merge(values, payload)

    # -- plan targets: which shards get which bytes ---------------------- #

    def _to_every_shard(self, request: MessageV2, raw: bytes, payload: Any):
        # A delete too: a deferred rebalance or a crash mid-migration can
        # leave a tuple off its ring owner, and providers ignore unknown ids.
        return dict.fromkeys(self._shards, raw)

    def _shares(self, tuples) -> dict[str, list[EncryptedTuple]]:
        """Each shard's share of ``tuples``: those it is an R ring successor of."""
        shares: dict[str, list[EncryptedTuple]] = {shard_id: [] for shard_id in self._shards}
        for encrypted_tuple in tuples:
            for shard_id in self.replica_shards(encrypted_tuple.tuple_id):
                shares[shard_id].append(encrypted_tuple)
        return shares

    def _to_holders(self, request: MessageV2, raw: bytes, payload: tuple):
        # Each shard's share of the tuples and every posting (the whole
        # index lives on every shard), fail-fast: surfacing a failure beats
        # silently under-replicating.
        postings, tuples = payload
        return {
            shard_id: self._frame(
                request, MessageKind.INSERT_TUPLES, protocol.encode_insert_tuples(postings, share)
            )
            for shard_id, share in self._shares(tuples).items()
            if share or postings
        }

    def _to_partitions(self, request: MessageV2, raw: bytes, relation: EncryptedRelation):
        # Every shard stores the relation -- possibly an empty slice -- so
        # queries can fan out; each tuple goes to each of its R successors.
        schema = relation.schema
        self._schemas[request.relation_name] = schema
        return {
            shard_id: self._frame(
                request,
                MessageKind.STORE_RELATION,
                protocol.encode_encrypted_relation(
                    EncryptedRelation(schema=schema, encrypted_tuples=tuple(share))
                ),
            )
            for shard_id, share in self._shares(relation).items()
        }

    # -- settle: the router's own bookkeeping ---------------------------- #

    def _remember_evaluator(self, request: MessageV2) -> None:
        self._evaluators[request.relation_name] = request.body

    def _forget_relation(self, request: MessageV2) -> None:
        self._evaluators.pop(request.relation_name, None)
        self._schemas.pop(request.relation_name, None)

    #: One row per routed kind: targets, merge, then the departures from a
    #: plain fail-fast write; the answer kinds are ``protocol.ANSWERS``'s.
    #: Reads scatter to the full fleet because failover's coverage maths
    #: (``ring.covers``) needs every shard's outcome.
    _PLANS = {
        MessageKind.INSERT_TUPLES: _Plan(
            _to_holders, _count_of_tuples,
            decode=protocol.decode_insert_tuples, record="routed_inserts",
        ),
        MessageKind.STORE_RELATION: _Plan(
            _to_partitions, _count_of_relation, decode=protocol.decode_encrypted_relation
        ),
        MessageKind.DELETE_TUPLES: _Plan(_to_every_shard, _union_of_ids),
        # An INDEX_PUT replicates fleet-wide, as the postings each write
        # carries do: every shard holds the whole index (it is compact soft
        # state), so lookups stay correct under any placement -- rebalances,
        # crash duplicates, replica reads.
        MessageKind.INDEX_PUT: _Plan(
            _to_every_shard, _max_count, record="index_writes"
        ),
        MessageKind.LIST_TUPLE_IDS: _Plan(_to_every_shard, _union_of_ids, read=True),
        MessageKind.QUERY: _Plan(_to_every_shard, _merge_results, read=True),
        MessageKind.BATCH_QUERY: _Plan(_to_every_shard, _merge_batches, read=True),
        MessageKind.INDEX_LOOKUP: _Plan(
            _to_every_shard, _merge_results, read=True,
            record="index_lookups",
        ),
        MessageKind.REGISTER_EVALUATOR: _Plan(
            _to_every_shard, _first, settle=_remember_evaluator
        ),
        MessageKind.DROP_RELATION: _Plan(
            _to_every_shard, _first, settle=_forget_relation
        ),
        MessageKind.FETCH_RELATION: _Plan(_to_every_shard, _merge_results, read=True),
        # A logical count is the distinct ids: each shard lists its own.
        MessageKind.TUPLE_COUNT: _Plan(
            _to_every_shard, _distinct_ids, read=True, sends=MessageKind.LIST_TUPLE_IDS
        ),
        MessageKind.RELATION_NAMES: _Plan(_to_every_shard, _union_of_names, read=True),
    }

    # ------------------------------------------------------------------ #
    # Elastic membership
    # ------------------------------------------------------------------ #

    def add_shard(
        self, backend: Any, shard_id: str | None = None, *, rebalance: bool = True
    ):
        """Grow the fleet by one shard and migrate its ring share onto it.

        The new shard is primed with every known relation (its evaluator and
        an empty partition, two envelopes) before it joins the ring, so
        scatter reads never observe a shard without the relation.  Requires
        every relation's evaluator to have been registered through this
        router.

        Returns the :class:`~repro.cluster.rebalance.RebalanceReport` (or
        None with ``rebalance=False``, leaving existing tuples in place
        until :meth:`rebalance` runs).
        """
        names = self._routed(MessageKind.RELATION_NAMES)
        missing = [name for name in names if name not in self._evaluators]
        if missing:
            raise ClusterError(
                f"cannot prime a new shard: no evaluator registered through this "
                f"router for relation(s) {missing} (deploy them through it first)"
            )
        shard = self._open_backend(backend, shard_id, len(self._shards))
        try:
            for name in names:
                empty = EncryptedRelation(self._any_schema(name), encrypted_tuples=())
                body = self._evaluators[name]
                self._ask(shard, MessageKind.REGISTER_EVALUATOR, name, body)
                body = protocol.encode_encrypted_relation(empty)
                self._ask(shard, MessageKind.STORE_RELATION, name, body)
        except BaseException:
            if shard.owned:
                shard.server.close()
            raise
        self._shards[shard.shard_id] = shard
        self._ring.add_shard(shard.shard_id)
        if not rebalance:
            return None
        return self.rebalance()

    def remove_shard(self, shard_id: str, *, drain: bool = True):
        """Shrink the fleet, draining the leaving shard's tuples first.

        With ``drain=True`` the leaving shard is taken off the ring and a
        replica-aware rebalance runs over the whole fleet (the leaving
        backend included as a copy source), so every tuple ends up on its R
        new ring successors -- the replication factor is restored, not just
        the leaving shard's data rehomed.  The relations are then dropped
        from the leaving shard before it is detached (and closed, when
        owned).  Returns the
        :class:`~repro.cluster.rebalance.RebalanceReport` of the drain.

        Removal below R shards is refused: the remaining fleet could not
        hold R distinct copies of anything.
        """
        from repro.cluster.rebalance import RebalanceReport

        if shard_id not in self._shards:
            raise ClusterError(f"no shard named {shard_id!r}")
        if len(self._shards) == 1:
            raise ClusterError("cannot remove the last shard")
        if len(self._shards) - 1 < self._replication:
            raise ClusterError(
                f"removing shard {shard_id!r} would leave "
                f"{len(self._shards) - 1} shard(s), fewer than the "
                f"replication factor {self._replication}"
            )
        leaving = self._shards[shard_id]
        self._ring.remove_shard(shard_id)
        report = RebalanceReport()
        try:
            if drain:
                # Still in ``_shards`` though off the ring: the leaving
                # backend serves as a copy source and ends up owning nothing.
                report = self.rebalance()
                for name in self._ask(leaving, MessageKind.RELATION_NAMES, ""):
                    self._ask(leaving, MessageKind.DROP_RELATION, name)
        except BaseException:
            # Put the shard back: its data was not (fully) drained.
            self._ring.add_shard(shard_id)
            raise
        del self._shards[shard_id]
        if leaving.owned:
            leaving.server.close()
        return report

    def rebalance(self):
        """Repair every tuple's placement to exactly its R ring successors."""
        from repro.cluster.rebalance import rebalance as run_rebalance

        return run_rebalance(
            self,
            self._ring,
            self._routed(MessageKind.RELATION_NAMES),
            replication=self._replication,
        )

    def _any_schema(self, name: str):
        """The (public) schema of a stored relation.

        Served from the cache populated at store time; falls back to
        fetching one shard's copy for relations stored before this router
        existed (e.g. an attach-style session over persisted shards).
        """
        cached = self._schemas.get(name)
        if cached is not None:
            return cached
        first = next(iter(self._shards.values()))
        schema = self._ask(first, MessageKind.FETCH_RELATION, name).matching.schema
        self._schemas[name] = schema
        return schema

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _gather(
        self,
        operation: str,
        calls: Sequence[tuple[str, ShardRequest]],
        *,
        read: bool = False,
    ) -> list[Any]:
        """Scatter ``calls``; the answer values, or raise on a lost shard.

        Each call pairs a shard id with the :class:`ShardRequest` to run
        against that shard's server, in the fleet's order;
        :func:`~repro.cluster.executor.scatter` sends every ``tcp://``
        leg, calls in-process shards inline, then reads the remote answers
        in the caller's thread.  Each remote leg gets the full per-shard
        timeout, so a gather waits at most ``len(calls) * timeout``, and a
        leg that times out closes its connection.

        A full-fleet *read* that loses shards first tries replica failover:
        when every ring segment still has a live successor
        (:meth:`ConsistentHashRing.covers`) the surviving answers are
        complete after deduplication, so the read succeeds and only the
        ``failover_reads`` counter records that anything happened.  Any
        other failure raises :class:`ShardFailedError`, naming the failed
        shards: a partial answer is never returned.
        """
        if read:
            self._counters["scatter_reads"].inc()
        trace = current_trace()
        bound = [(shard_id, self.shard(shard_id), work) for shard_id, work in calls]
        scatter_started_wall = time.time()
        scatter_started = time.monotonic()
        outcomes = scatter(bound, self._shard_timeout)
        scatter_elapsed = time.monotonic() - scatter_started
        self._record_outcomes(
            trace, operation, scatter_started_wall, scatter_elapsed, outcomes
        )
        values = [o.value for o in outcomes if o.ok]
        if len(values) == len(outcomes):
            return values
        failures = [o for o in outcomes if not o.ok]
        live = [o.shard_id for o in outcomes if o.ok]
        if (
            read
            and self._replication > 1
            and len(calls) == len(self._shards)  # coverage math needs the full fleet
            and self._ring.covers(live, self._replication)
        ):
            self._counters["failover_reads"].inc()
            self.last_failover_shard_ids = tuple(o.shard_id for o in failures)
            return values
        detail = "; ".join(f"{o.shard_id}: {o.error}" for o in failures[:3])
        raise ShardFailedError(
            f"{operation} failed on {len(failures)}/{len(outcomes)} shard(s): {detail}"
            + ("; ..." if len(failures) > 3 else ""),
            outcomes,
        )

    def _record_outcomes(
        self,
        trace,
        operation: str,
        started_wall: float,
        elapsed_s: float,
        outcomes,
    ) -> None:
        """Per-shard latency histograms plus, when traced, the scatter spans.

        Every outcome -- success, failure, timeout -- feeds its shard's
        ``cluster_shard_seconds`` histogram (the scatter timed all of
        them), so shard tail latency is visible without tracing; under a
        trace the router additionally records one ``router.scatter`` span
        and a ``shard.request`` child span per outcome.
        """
        for outcome in outcomes:
            self._metrics.histogram(
                "cluster_shard_seconds", shard_id=outcome.shard_id
            ).observe(outcome.elapsed_s)
        if trace is None:
            return
        failed = [o.shard_id for o in outcomes if not o.ok]
        trace.record(
            "router.scatter",
            started_wall,
            elapsed_s,
            operation=operation,
            transport="caller-thread",
            shards=len(outcomes),
            failed_shard_ids=failed,
        )
        for outcome in outcomes:
            annotations = {"shard_id": outcome.shard_id}
            if outcome.ok:
                annotations["outcome"] = "ok"
            else:
                annotations["outcome"] = "error"
                annotations["error"] = str(outcome.error)
            trace.record(
                "shard.request",
                outcome.started_s or started_wall,
                outcome.elapsed_s,
                **annotations,
            )

    @staticmethod
    def _frame(request: MessageV2, kind: MessageKind, body: bytes) -> bytes:
        """A fresh untraced envelope for the request's relation."""
        return MessageV2(kind, request.relation_name, body).to_bytes()
