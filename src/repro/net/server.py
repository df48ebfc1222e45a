"""Asyncio TCP front-end of the untrusted service provider.

:class:`DatabaseTcpServer` puts an
:class:`~repro.outsourcing.server.OutsourcedDatabaseServer` behind a
listening socket.  Each accepted connection is one :class:`asyncio.Protocol`
that speaks the framing of :mod:`repro.net.framing`:

* the connection opens with a mandatory **hello** control exchange,
  ``{"op": "hello"}`` (any other field is ignored), answered with the
  server's software name and frame-size limit.  There is no version to
  agree on: the provider reads both envelope layouts, untraced (version
  byte 2) and traced (3), whichever a frame carries;
* **envelope** frames are forwarded verbatim to
  :meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.handle_message`
  -- on the dispatch pool, or on the event loop itself when the request
  is bounded (below);
* **control** frames carry the operator read-outs only -- ``ping``,
  ``stats``, ``metrics`` and ``trace``.  Everything a session does, DDL and
  evaluator deployment included, is an envelope.

Dispatch is **parallel across relations, FIFO within one**: the
:class:`KeyedSerialDispatcher` runs requests on a bounded thread pool but
serializes all requests that touch the same relation in arrival order
(the storage backends are not thread-safe per relation, and reordering
same-relation mutations would corrupt causality), while requests for
*different* relations -- or different shards colocated in one process --
execute concurrently.  A slow scan of one relation therefore no longer
blocks every other relation behind it.

**Bounded requests skip the pool** -- one rule, derived per frame, no knob:

    bounded and relation idle and alone  =>  answered on the event loop
    otherwise                            =>  queued for a worker, as above

*Bounded* is the provider's word (``bounded_work(kind, relation)``): the
work is limited by the request and its reply, never by the stored relation.
Today that is, on the in-memory store (keyed by tuple id), the two writes
``INSERT_TUPLES`` (O(tuples + postings)) and ``DELETE_TUPLES`` (O(ids +
postings)) and an ``INDEX_LOOKUP`` the index serves; every shard request of a
cluster's insert, update and delete is one of these.  Stores, scans and
lookups that would scan, everything on a file-backed provider (a write
rewrites the file, a lookup re-reads it), and any object without the
predicate (a shard router) stay on workers.  A provider subclass opts in by
overriding it.  *Relation idle* keeps the FIFO -- and the store's single
writer: the loop is the only submitter, a relation's queue runs one job at
a time, and the loop finishes an inline answer before admitting the next
frame, so one thread at a time touches a relation.
*Alone* -- nothing in flight on the connection and the read delivered one
frame -- leaves a pipelining client its parallel path and keeps a burst from
monopolising the loop.  Both paths run the same ``_dispatch_envelope`` and
``_send``; only the thread differs, and a 0.1 ms index probe or a one-row
write does not repay two thread hand-offs.

A connection runs on **callbacks**, with no task per connection or per
request: ``data_received`` feeds the sans-IO
:class:`~repro.net.framing.FrameDecoder` and admits every decoded frame
synchronously, in arrival order.  An inline answer is written from that
same callback; a worker's answer comes back through its future's
done-callback and ``loop.call_soon_threadsafe``, and is written on the
loop.  Admission is an in-flight count: at ``max_in_flight`` the connection
stops reading (``pause_reading``) and frames already decoded wait their
turn, so a client pipelining harder than that sees TCP backpressure, not an
error; the transport's ``pause_writing`` stops reading and admitting the
same way while a slow reader lets answers pile up.

Connections are **pipelined**: a client may send many request frames
without waiting, each carrying a correlation id; the server answers them
as dispatch completes -- possibly out of order -- and every response frame
echoes the correlation id of the request it answers, which is how the
pipelined clients pair them up again.

Byte-level violations -- garbage that does not frame, oversized length
prefixes, envelope bytes that do not parse -- are answered with one control
error frame and a closed connection: a peer that cannot frame correctly
cannot be trusted with further state.  Failures *inside* a well-framed
request stay inside the protocol (``ERROR`` envelopes / ``ok: false``
control responses) and the connection lives on.

The server counts per-connection and aggregate traffic
(:class:`ConnectionStats` / :class:`TcpServerStats`, including the dispatch
parallelism actually achieved); ``repro serve`` prints the aggregate on
shutdown and the ``stats`` control operation exposes it to remote clients.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable

from repro.net import framing
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    TraceBuffer,
    render_prometheus,
    use_trace,
)
from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    FrameDecoder,
    FramingError,
)
from repro.outsourcing import protocol
from repro.outsourcing.client import request as envelope_request
from repro.outsourcing.protocol import MessageKind, ProtocolError
from repro.outsourcing.server import (
    UNKNOWN_RELATION,
    OutsourcedDatabaseServer,
    ServerError,
)
from repro.outsourcing.storage import StorageError

#: Identifier the server announces in its hello response.
SERVER_SOFTWARE = "repro-provider"

#: Default size of the dispatch thread pool (how many relations can be
#: served concurrently by one provider process).
DEFAULT_DISPATCH_WORKERS = 4

#: Default cap on concurrently in-flight requests per connection; a client
#: pipelining harder than this sees TCP backpressure, not an error.
DEFAULT_MAX_IN_FLIGHT = 128


class KeyedSerialDispatcher:
    """FIFO-per-key execution on one bounded thread pool.

    ``submit(key, func, *args)`` returns a :class:`concurrent.futures.Future`.
    Jobs sharing a key run strictly in submission order, one at a time; jobs
    with different keys run concurrently up to ``max_workers``.  This is the
    concurrency contract of the provider: the storage backends tolerate
    concurrent access to *different* relations (separate dict slots /
    files) but not to the same one, and same-relation mutations must apply
    in the order the client pipelined them.

    Implementation: a deque of pending jobs per key; the first job submitted
    for an idle key also claims a pool worker that drains the key's queue to
    exhaustion, so one key never occupies more than one worker.
    """

    def __init__(
        self, max_workers: int, thread_name_prefix: str = "repro-net-dispatch"
    ) -> None:
        if max_workers < 1:
            raise ValueError("the dispatcher needs at least one worker")
        self._max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=thread_name_prefix
        )
        self._lock = threading.Lock()
        self._queues: dict[Hashable, deque] = {}
        self._executing = 0
        self._peak_executing = 0
        self._total = 0

    @property
    def workers(self) -> int:
        """Size of the dispatch pool."""
        return self._max_workers

    @property
    def peak_concurrency(self) -> int:
        """Most jobs ever observed executing at the same instant."""
        with self._lock:
            return self._peak_executing

    @property
    def total_dispatched(self) -> int:
        """Jobs completed (or failed) so far."""
        with self._lock:
            return self._total

    def idle(self, key: Hashable) -> bool:
        """No job for ``key`` is queued or running (and, for the sole
        submitter, none will be until its own next :meth:`submit`)."""
        with self._lock:
            return not self._queues.get(key)

    def submit(
        self, key: Hashable, func: Callable, *args
    ) -> concurrent.futures.Future:
        """Queue one job under ``key``; FIFO per key, parallel across keys."""
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            queue = self._queues.get(key)
            if queue is None:
                queue = deque()
                self._queues[key] = queue
                queue.append((func, args, future))
                self._pool.submit(self._drain, key)
            else:
                queue.append((func, args, future))
        return future

    def _drain(self, key: Hashable) -> None:
        with self._lock:
            queue = self._queues[key]
        while True:
            with self._lock:
                if not queue:
                    del self._queues[key]
                    return
                func, args, future = queue[0]
            ran = future.set_running_or_notify_cancel()
            if ran:
                with self._lock:
                    self._executing += 1
                    self._peak_executing = max(self._peak_executing, self._executing)
                try:
                    value, failed = func(*args), False
                except BaseException as exc:  # noqa: BLE001 - delivered via the future
                    value, failed = exc, True
            # Retire the job before delivering its result: a caller it wakes
            # must find the stats counting it and the key idle, or its next
            # lone request would take a worker instead of the event loop.
            # The emptied queue stays registered until the result is out, so
            # a job submitted meanwhile runs -- and is answered -- after it.
            with self._lock:
                queue.popleft()
                if ran:
                    self._executing -= 1
                    self._total += 1
            if ran:
                if failed:
                    future.set_exception(value)
                else:
                    future.set_result(value)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool (queued jobs still drain when ``wait`` is True)."""
        self._pool.shutdown(wait=wait)


@dataclass
class ConnectionStats:
    """Traffic counters of one client connection."""

    peer: str = ""
    frames_received: int = 0
    frames_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    envelope_frames: int = 0
    control_frames: int = 0
    #: Set once the connection's hello is answered; nothing else is served
    #: before it.
    greeted: bool = False
    #: Requests admitted but not yet answered (shutdown only waits for
    #: connections with in-flight work).
    in_flight: int = 0
    #: Most requests this connection ever had in flight at once.
    peak_in_flight: int = 0

    @property
    def busy(self) -> bool:
        """True while at least one request is being served."""
        return self.in_flight > 0


class TcpServerStats:
    """Aggregate counters across the server's lifetime.

    Every counter is a locked :class:`~repro.obs.MetricsRegistry`
    instrument (``server_<name>``), bumped from the event loop and the
    dispatcher threads alike; :meth:`as_dict` is the read-out (what the
    ``stats`` control operation returns).
    """

    #: The fields, in ``as_dict`` order.
    _FIELDS = (
        "connections_total", "connections_active", "frames_received", "frames_sent",
        "bytes_received", "bytes_sent", "envelope_frames", "control_frames",
        "framing_errors", "dispatch_workers", "peak_concurrent_dispatch",
        "requests_dispatched",
    )
    #: Set/adjustable values: live connections, the dispatch pool's size and
    #: its peak/total numbers (refreshed from the dispatcher); the rest are
    #: monotonic counters.
    _GAUGES = frozenset(
        {"connections_active", "dispatch_workers", "peak_concurrent_dispatch",
         "requests_dispatched"}
    )

    def __init__(
        self, metrics: MetricsRegistry | None = None, dispatch_workers: int = 0
    ) -> None:
        self._metrics = registry = metrics if metrics is not None else MetricsRegistry()
        self._instruments = {
            name: (registry.gauge if name in self._GAUGES else registry.counter)(
                f"server_{name}"
            )
            for name in self._FIELDS
        }
        self._instruments["dispatch_workers"].set(dispatch_workers)

    @property
    def metrics(self) -> MetricsRegistry:
        """The backing registry."""
        return self._metrics

    def inc(self, name: str, amount: int = 1) -> None:
        """Thread-safe increment of one counter (or gauge) by name."""
        self._instruments[name].inc(amount)

    def dec(self, name: str, amount: int = 1) -> None:
        """Thread-safe decrement of one gauge by name."""
        self._instruments[name].dec(amount)

    def set(self, name: str, value: int) -> None:
        """Set one gauge by name."""
        self._instruments[name].set(value)

    def as_dict(self) -> dict:
        """JSON-able snapshot (what the ``stats`` control operation returns)."""
        return {name: self._instruments[name].value for name in self._FIELDS}

    def throughput_summary(self) -> str:
        """One-line human summary (printed by ``repro serve`` on shutdown)."""
        counts = self.as_dict()
        return (
            f"{counts['connections_total']} connection(s), "
            f"{counts['frames_received']} frame(s) in / {counts['frames_sent']} out, "
            f"{counts['bytes_received']} B in / {counts['bytes_sent']} B out, "
            f"{counts['framing_errors']} framing error(s), "
            f"dispatch {counts['dispatch_workers']} worker(s) / "
            f"peak {counts['peak_concurrent_dispatch']} concurrent"
        )


class DatabaseTcpServer:
    """One provider process serving many concurrent TCP clients."""

    def __init__(
        self,
        database_server: OutsourcedDatabaseServer | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
        dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        trace_buffer_size: int = 256,
        slow_query_threshold: float = 1.0,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self._database = (
            database_server if database_server is not None else OutsourcedDatabaseServer()
        )
        self._requested_host = host
        self._requested_port = port
        self._max_frame_size = max_frame_size
        self._max_in_flight = max_in_flight
        # Parallel across relations, FIFO within one: handle_message and the
        # storage backends are synchronous and per-relation not thread-safe,
        # so requests are serialized by the relation they touch while
        # different relations (or colocated shards) dispatch concurrently.
        self._dispatcher = KeyedSerialDispatcher(dispatch_workers)
        # An object that does not say what is bounded (a router, a test
        # double) gets the worker for everything.
        self._bounded_work = getattr(
            self._database, "bounded_work", lambda kind, relation_name: False
        )
        # Likewise one that does not say which relations it knows gets the
        # one fixed label: a peer's frames never mint metric labels.
        self._metric_relation = getattr(
            self._database, "metric_relation", lambda relation_name: UNKNOWN_RELATION
        )
        self._inline_answers = 0  # touched on the event loop only
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._connections: dict[_Connection, ConnectionStats] = {}
        # Share the wrapped provider's registry when it has one, so the
        # metrics control operation answers with one unified snapshot.
        database_metrics = getattr(self._database, "metrics", None)
        self._metrics = (
            database_metrics
            if isinstance(database_metrics, MetricsRegistry)
            else MetricsRegistry()
        )
        self._stats = TcpServerStats(
            metrics=self._metrics, dispatch_workers=dispatch_workers
        )
        self._traces = TraceBuffer(trace_buffer_size)
        self._slow_queries = SlowQueryLog(slow_query_threshold)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def database_server(self) -> OutsourcedDatabaseServer:
        """The wrapped provider (storage, evaluators, audit log)."""
        return self._database

    @property
    def stats(self) -> TcpServerStats:
        """Aggregate traffic counters (dispatch numbers refreshed live)."""
        self._stats.set("peak_concurrent_dispatch", self._dispatcher.peak_concurrency)
        dispatched = self._dispatcher.total_dispatched + self._inline_answers
        self._stats.set("requests_dispatched", dispatched)
        return self._stats

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry behind this server's (and its provider's) metrics."""
        return self._metrics

    @property
    def trace_buffer(self) -> TraceBuffer:
        """Completed server-side traces, keyed by trace id."""
        return self._traces

    @property
    def slow_queries(self) -> SlowQueryLog:
        """Requests slower than the configured threshold."""
        return self._slow_queries

    @property
    def dispatch_workers(self) -> int:
        """Size of the dispatch pool."""
        return self._dispatcher.workers

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; available once started."""
        if self._asyncio_server is None:
            raise RuntimeError("server is not started")
        sockname = self._asyncio_server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        return self.address[1]

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._asyncio_server is not None:
            raise RuntimeError("server is already started")
        loop = asyncio.get_running_loop()
        self._asyncio_server = await loop.create_server(
            lambda: _Connection(self, loop), self._requested_host, self._requested_port
        )

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, then cut stragglers.

        Idle connections (waiting for the peer's next frame) are closed
        immediately; only connections with in-flight requests get the grace
        period.
        """
        listener, self._asyncio_server = self._asyncio_server, None
        if listener is not None:
            listener.close()
        connections = tuple(self._connections)
        for connection in connections:
            connection.shut()
        if connections:
            _, pending = await asyncio.wait(
                [connection.closed for connection in connections], timeout=drain_timeout
            )
            if pending:
                for connection in connections:
                    connection.transport.abort()
                await asyncio.wait(pending)
        if listener is not None:
            await listener.wait_closed()
        self._dispatcher.shutdown(wait=True)

    async def serve_forever(self) -> None:
        """Start (when needed) and serve until cancelled."""
        if self._asyncio_server is None:
            await self.start()
        try:
            await self._asyncio_server.serve_forever()
        except asyncio.CancelledError:
            pass

    # ------------------------------------------------------------------ #
    # Dispatch (on the event loop or a worker)
    # ------------------------------------------------------------------ #

    def _dispatch_envelope(
        self,
        trace_id: bytes | None,
        relation_name: str,
        payload: bytes,
        submitted_mono: float,
        path: str,
    ) -> tuple[int, bytes]:
        """Run one envelope, with queue-wait accounting; ``(channel, answer)``.

        On a ``"worker"`` this runs after the FIFO queue, so ``now -
        submitted_mono`` is the time spent waiting behind same-relation
        work; ``"inline"`` is the event loop itself and waits for nothing.
        When the envelope carries a v3 trace id the whole dispatch executes
        under that trace, producing the server-side span and feeding the
        trace buffer and slow-query log.  An exception escaping the provider
        becomes the control-channel failure answer here, on either thread.
        """
        queue_wait = time.monotonic() - submitted_mono
        self._metrics.histogram(
            "server_dispatch_queue_seconds",
            relation=self._metric_relation(relation_name),
        ).observe(queue_wait)
        try:
            if trace_id is None:
                return CHANNEL_ENVELOPE, self._database.handle_message(payload)
            trace = Trace(trace_id)
            try:
                with use_trace(trace), trace.span(
                    "server.dispatch",
                    relation=relation_name,
                    queue_wait_s=round(queue_wait, 6),
                    path=path,
                ):
                    return CHANNEL_ENVELOPE, self._database.handle_message(payload)
            finally:
                self._traces.record(trace)
                self._slow_queries.observe(trace)
        except Exception as exc:  # noqa: BLE001 - a dispatch bug must not kill siblings
            failure = {"ok": False, "error": f"internal dispatch failure: {exc}"}
            return CHANNEL_CONTROL, json.dumps(failure).encode("utf-8")

    # ------------------------------------------------------------------ #
    # Operator read-outs: control operations (executed on the dispatch pool)
    # ------------------------------------------------------------------ #

    def _control_answer(self, request: dict) -> tuple[int, bytes]:
        """Run one control operation; ``(channel, answer)`` as for an envelope.

        A failure is an ``ok: false`` answer: the connection lives on.
        """
        op = request["op"]
        try:
            response = self._control_operation(request)
        except (ServerError, StorageError, ProtocolError) as exc:
            response = {"ok": False, "error": str(exc)}
        except (KeyError, TypeError, ValueError) as exc:
            response = {"ok": False, "error": f"malformed {op!r} request: {exc}"}
        except Exception as exc:  # noqa: BLE001 - a dispatch bug must not kill siblings
            response = {"ok": False, "error": f"internal dispatch failure: {exc}"}
        return CHANNEL_CONTROL, json.dumps(response).encode("utf-8")

    def _control_operation(self, request: dict) -> dict:
        op = request["op"]
        if op == "ping":
            return {"ok": True}
        if op == "stats":
            names = envelope_request(self._database, MessageKind.RELATION_NAMES, "")
            report = {
                "ok": True,
                "stats": self.stats.as_dict(),
                "audit": self._database.audit_log.summary(),
                "relations": list(names),
            }
            index_stats = getattr(self._database, "index_stats", None)
            if index_stats is not None:
                report["indexes"] = index_stats()
            return report
        if op == "metrics":
            snapshot_fn = getattr(self._database, "metrics_snapshot", None)
            snapshot = (
                snapshot_fn() if snapshot_fn is not None else self._metrics.snapshot()
            )
            if request.get("format") == "prometheus":
                return {"ok": True, "prometheus": render_prometheus(snapshot)}
            return {"ok": True, "metrics": snapshot}
        if op == "trace":
            trace_hex = request.get("trace_id")
            if trace_hex:
                return {"ok": True, "trace": self._traces.get(bytes.fromhex(str(trace_hex)))}
            limit = int(request.get("limit", 10))
            return {
                "ok": True,
                "traces": self._traces.recent(limit),
                "slow": self._slow_queries.entries(limit),
            }
        raise ServerError(f"unknown control operation {op!r}")


#: Wire bytes of a frame beyond its payload.
_FRAME_OVERHEAD = framing.LENGTH_PREFIX_SIZE + framing.FRAME_HEADER_SIZE


class _Connection(asyncio.Protocol):
    """One client connection, driven by its transport's callbacks.

    Everything here runs on the event loop -- frames are admitted from
    :meth:`data_received` and a worker's answer is handed back with
    ``call_soon_threadsafe`` -- so the per-connection state needs no lock.
    """

    def __init__(self, server: DatabaseTcpServer, loop: asyncio.AbstractEventLoop) -> None:
        self._server = server
        self._loop = loop
        self._decoder = FrameDecoder(server._max_frame_size)
        self.transport: asyncio.Transport | None = None
        self.stats = ConnectionStats()
        #: Resolved once the transport is gone (what ``stop`` waits for).
        self.closed: asyncio.Future = loop.create_future()
        #: Decoded frames waiting for an in-flight slot, in arrival order.
        self._backlog: deque[framing.Frame] = deque()
        self._reading = True
        self._write_paused = False
        #: Read no more; close once every admitted request is answered.
        self._closing = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.stats.peer = str(transport.get_extra_info("peername"))
        self._server._connections[self] = self.stats
        self._server._stats.inc("connections_total")
        self._server._stats.inc("connections_active")

    def connection_lost(self, exc: Exception | None) -> None:
        self._closing = True
        self._backlog.clear()
        self._server._stats.dec("connections_active")
        self._server._connections.pop(self, None)
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        try:
            self._backlog.extend(self._decoder.feed(data))
        except FramingError as exc:
            self._server._stats.inc("framing_errors")
            self._refuse(str(exc))
            return
        # One frame on a quiet connection: a client waiting for this
        # answer.  Anything else is a client pipelining.
        self._admit_backlog(len(self._backlog) == 1 and not self.stats.in_flight)

    def eof_received(self) -> bool:
        # Keep the socket for the answers still owed; _flow closes it after.
        self._closing = True
        return self.stats.busy

    def pause_writing(self) -> None:
        self._write_paused = True
        self._flow()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._admit_backlog()

    def shut(self) -> None:
        """Read no more; close now when idle, else once the last answer is out."""
        self._closing = True
        self.transport.pause_reading()
        self._flow()

    def _flow(self) -> None:
        """Read while there is room; a closing connection closes once idle."""
        if self._closing:
            if not self.stats.in_flight:
                self.transport.close()
            return
        reading = (
            not self._write_paused
            and not self._backlog
            and self.stats.in_flight < self._server._max_in_flight
        )
        if reading is not self._reading:
            self._reading = reading
            if reading:
                self.transport.resume_reading()
            else:
                self.transport.pause_reading()

    def _admit_backlog(self, alone: bool = False) -> None:
        """Admit waiting frames in arrival order, up to the in-flight cap.

        Nothing is admitted while the transport's write buffer is over its
        high-water mark, so a peer that does not read is owed at most
        ``max_in_flight`` answers beyond it.
        """
        backlog, stats = self._backlog, self.stats
        limit = self._server._max_in_flight
        received = envelopes = size = 0
        while backlog and not self._write_paused and stats.in_flight < limit:
            frame = backlog.popleft()
            received += 1
            envelopes += frame.channel == CHANNEL_ENVELOPE
            size += len(frame.payload)
            self._admit(frame, alone)
        if received:
            self._count(received, envelopes, size + received * _FRAME_OVERHEAD)
        self._flow()

    def _count(self, received: int, envelopes: int, size: int) -> None:
        """Bump the traffic counters once for a run of admitted frames."""
        controls = received - envelopes
        stats = self.stats
        stats.frames_received += received
        stats.bytes_received += size
        stats.envelope_frames += envelopes
        stats.control_frames += controls
        totals = self._server._stats
        totals.inc("frames_received", received)
        totals.inc("bytes_received", size)
        if envelopes:
            totals.inc("envelope_frames", envelopes)
        if controls:
            totals.inc("control_frames", controls)

    def _admit(self, frame: framing.Frame, alone: bool) -> None:
        """Answer or queue one frame; a refused frame closes the connection.

        Hello (and pre-hello violations) are answered here, and so is a
        bounded envelope that arrived ``alone`` for an idle relation (module
        docstring); everything else is queued on the keyed dispatcher *in
        arrival order* -- which is what makes same-relation FIFO hold -- and
        answered from its future's done-callback.
        """
        server, correlation, payload = self._server, frame.correlation, frame.payload
        if frame.channel == CHANNEL_CONTROL:
            try:
                request = json.loads(payload.decode("utf-8"))
                if not isinstance(request, dict) or "op" not in request:
                    raise ValueError("control messages are objects with an 'op' field")
            # UnicodeDecodeError is a ValueError; nesting past the parser's
            # recursion limit is refused like any other malformed frame.
            except (ValueError, RecursionError) as exc:
                self._refuse(f"malformed control frame: {exc}", correlation)
                return
            if request["op"] == "hello":
                self._hello(correlation)
            elif not self.stats.greeted:
                self._refuse("the first frame must be a hello", correlation)
            else:
                self._submit(("global",), correlation, server._control_answer, request)
            return
        if not self.stats.greeted:
            self._refuse("the first frame must be a hello", correlation)
            return
        try:
            # A structural peek -- O(header), the body is never copied here
            # -- learns the dispatch key; handle_message parses in full.
            # Garbage that does not even frame is a protocol violation, not
            # a servable error: answer and close.
            version, kind, relation_name = protocol.peek_envelope(payload)
        except ProtocolError as exc:
            self._refuse(str(exc), correlation)
            return
        key = ("rel", relation_name)
        trace_id = protocol.peek_trace_id(payload, version)
        # Idle before bounded: this loop is the only submitter, so once the
        # key is idle nothing can change what the provider answers.
        if (
            alone
            and server._dispatcher.idle(key)
            and server._bounded_work(kind, relation_name)
        ):
            server._inline_answers += 1
            server._metrics.counter(
                "server_inline_answers_total",
                relation=server._metric_relation(relation_name),
            ).inc()
            stats = self.stats
            stats.in_flight += 1  # shutdown waits for busy connections
            stats.peak_in_flight = max(stats.peak_in_flight, 1)
            try:
                channel, answer = server._dispatch_envelope(
                    trace_id, relation_name, payload, time.monotonic(), "inline"
                )
                self._send(answer, channel, correlation)
            finally:
                stats.in_flight -= 1
            return
        self._submit(
            key,
            correlation,
            server._dispatch_envelope,
            trace_id,
            relation_name,
            payload,
            time.monotonic(),
            "worker",
        )

    def _submit(self, key: Hashable, correlation: int, job: Callable, *args) -> None:
        """Queue ``job`` on a worker; its ``(channel, answer)`` is sent on the loop."""
        stats = self.stats
        stats.in_flight += 1
        stats.peak_in_flight = max(stats.peak_in_flight, stats.in_flight)
        call_soon, answer = self._loop.call_soon_threadsafe, self._answer
        self._server._dispatcher.submit(key, job, *args).add_done_callback(
            lambda future: call_soon(answer, correlation, future)
        )

    def _answer(self, correlation: int, future: concurrent.futures.Future) -> None:
        try:
            channel, answer = future.result()
            self._send(answer, channel, correlation)
        finally:
            self.stats.in_flight -= 1
            self._admit_backlog()

    def _hello(self, correlation: int) -> None:
        self.stats.greeted = True
        self._send_control(
            {
                "ok": True,
                "server": SERVER_SOFTWARE,
                "max_frame_size": self._server._max_frame_size,
            },
            correlation,
        )

    def _refuse(self, error: str, correlation: int = 0) -> None:
        """Answer a violation with one control error frame, then close."""
        self._send_control({"ok": False, "error": error}, correlation)
        self._backlog.clear()
        self.shut()

    def _send(self, payload: bytes, channel: int, correlation: int) -> None:
        transport = self.transport
        if transport.is_closing():
            return  # the peer is gone: the answer has nowhere to go
        frame = framing.encode_frame(
            payload,
            channel=channel,
            correlation=correlation,
            max_frame_size=self._server._max_frame_size,
        )
        size = len(frame)
        stats = self.stats
        stats.frames_sent += 1
        stats.bytes_sent += size
        totals = self._server._stats
        totals.inc("frames_sent")
        totals.inc("bytes_sent", size)
        # One write per frame: answers finishing in any order never
        # interleave partial frames.
        transport.write(frame)

    def _send_control(self, message: dict, correlation: int = 0) -> None:
        self._send(json.dumps(message).encode("utf-8"), CHANNEL_CONTROL, correlation)


class ThreadedTcpServer:
    """A :class:`DatabaseTcpServer` on a background thread's event loop.

    The blocking-world harness for tests, benchmarks and embedding: enter the
    context manager, connect to :attr:`port`, leave and the server shuts
    down gracefully.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.server = DatabaseTcpServer(*args, **kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        """The bound port."""
        return self.server.port

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        return self.server.address

    def start(self) -> "ThreadedTcpServer":
        """Start the loop thread and wait until the socket is bound."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise RuntimeError("TCP server failed to start") from self._startup_error
        return self

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop the server and join the loop thread."""
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.server.stop(drain_timeout), self._loop
        )
        try:
            future.result(timeout=drain_timeout + 5.0)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=5.0)
            self._loop = None
            self._thread = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind errors to the caller
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __enter__(self) -> "ThreadedTcpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
