"""Blocking TCP front-end of the untrusted service provider.

:class:`DatabaseTcpServer` puts an
:class:`~repro.outsourcing.server.OutsourcedDatabaseServer` behind a
listening socket.  One accept thread hands each connection to a thread of
its own, which serves it serially: ``recv``, feed the sans-IO
:class:`~repro.net.framing.FrameDecoder`, serve each decoded frame in
arrival order and ``sendall`` its answer.  A connection speaks the framing
of :mod:`repro.net.framing`:

* it opens with a mandatory **hello** control exchange,
  ``{"op": "hello"}`` (any other field is ignored), answered with the
  server's software name and frame-size limit.  There is no version to
  agree on: the provider reads both envelope layouts, untraced (version
  byte 2) and traced (3), whichever a frame carries;
* **envelope** frames are forwarded verbatim to
  :meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.handle_message`,
  which parses each once and runs it under its relation's lock (the
  provider's single-writer rule, the same on every transport);
* **control** frames carry the operator read-outs only -- ``ping``,
  ``metrics`` and ``trace``.  Everything a session does, DDL and evaluator
  deployment included, is an envelope.

Every response frame echoes the correlation id of the request it answers.
A peer may still send many frames without reading: it gets every answer,
in the order it sent the requests.

**Bounds against a hostile peer.**  At most :data:`MAX_CONNECTIONS`
connections are served at once; further peers wait in the listen backlog
until one closes.  Byte-level violations -- garbage that does not frame,
oversized length prefixes, envelope bytes that do not parse -- are answered
with one control error frame and a closed connection: a peer that cannot
frame correctly cannot be trusted with further state.  Failures *inside* a
well-framed request stay inside the protocol (``ERROR`` envelopes /
``ok: false`` control responses) and the connection lives on.

The server counts its aggregate traffic as ``server_<name>`` instruments
in the provider's registry, so the ``metrics`` control operation (and
in-process, the provider's ``metrics_snapshot()``) is the one read-out of
it; ``repro serve`` prints :func:`throughput_summary` of that snapshot on
shutdown.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import socket
import threading
import time

from repro.net import framing
from repro.obs import MetricsRegistry, render_prometheus, snapshot_scalars
from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    FrameDecoder,
    FramingError,
    OversizedFrameError,
)
from repro.outsourcing.protocol import ProtocolError
from repro.outsourcing.server import OutsourcedDatabaseServer, ServerError
from repro.outsourcing.storage import StorageError

#: Identifier the server announces in its hello response.
SERVER_SOFTWARE = "repro-provider"

#: Most connections served at once (one thread each); further peers wait in
#: the listen backlog until a served one closes.
MAX_CONNECTIONS = 256

#: Names of the threads that serve connections.
CONNECTION_THREAD_PREFIX = "repro-net-connection"

#: How long a refused peer's remaining bytes are read and dropped before the
#: close (closing on unread bytes would reset the connection, and a reset can
#: destroy the error frame on its way to the peer).
_LINGER_SECONDS = 1.0

#: Wire bytes of a frame beyond its payload.
_FRAME_OVERHEAD = framing.LENGTH_PREFIX_SIZE + framing.FRAME_HEADER_SIZE


#: The aggregate counters, ``server_<name>`` in the provider's registry: the
#: provider counts the envelopes it dispatched and its peak concurrency, the
#: front end the rest.
_COUNTERS = (
    "connections_total", "connections_active", "frames_received", "frames_sent",
    "bytes_received", "bytes_sent", "envelope_frames", "control_frames",
    "framing_errors", "peak_concurrent_dispatch", "requests_dispatched",
)
#: The live connections and the most requests ever served at once.
_GAUGES = frozenset({"connections_active", "peak_concurrent_dispatch"})


def throughput_summary(snapshot: dict) -> str:
    """One-line human summary of a provider's ``server_*`` counters, read
    from its metrics snapshot (printed by ``repro serve`` on shutdown)."""
    counts = dict.fromkeys(_COUNTERS, 0) | snapshot_scalars(snapshot, "server_")
    return (
        f"{counts['connections_total']} connection(s), "
        f"{counts['frames_received']} frame(s) in / {counts['frames_sent']} out, "
        f"{counts['bytes_received']} B in / {counts['bytes_sent']} B out, "
        f"{counts['framing_errors']} framing error(s), "
        f"{counts['requests_dispatched']} request(s) dispatched, "
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
    ) -> None:
        self._database = (
            database_server if database_server is not None else OutsourcedDatabaseServer()
        )
        self._requested_host = host
        self._requested_port = port
        self._max_frame_size = max_frame_size
        self._listener: socket.socket | None = None
        self._address: tuple[str, int] | None = None
        self._accept_thread: threading.Thread | None = None
        self._slots: threading.Semaphore | None = None
        # Registered and dropped by single set operations, whole under the
        # GIL; stop() iterates a tuple() of it.
        self._connections: set[_Connection] = set()
        # In the provider's registry, so the metrics control operation
        # answers with one unified snapshot.
        registry = self._database.metrics
        self._counters = {
            name: (registry.gauge if name in _GAUGES else registry.counter)(f"server_{name}")
            for name in _COUNTERS
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def database_server(self) -> OutsourcedDatabaseServer:
        """The wrapped provider (storage, evaluators, audit log)."""
        return self._database

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry behind this server's (and its provider's) metrics."""
        return self._database.metrics

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; available once started."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        return self.address[1]

    def start(self) -> None:
        """Bind and start accepting connections on a background thread."""
        if self._listener is not None:
            raise RuntimeError("server is already started")
        listener = socket.create_server((self._requested_host, self._requested_port), backlog=128)
        self._listener = listener
        self._address = listener.getsockname()[:2]
        self._slots = threading.Semaphore(MAX_CONNECTIONS)
        self._accept_thread = threading.Thread(
            target=self._accept, args=(listener, self._slots),
            name="repro-net-accept", daemon=True,
        )
        self._accept_thread.start()

    def stop(self, drain_timeout: float = 5.0) -> None:
        """Stop accepting, let busy connections finish, then cut stragglers.

        Idle connections (waiting for the peer's next frame) are closed
        immediately; only a connection serving a request gets the grace
        period, and it closes once that request is answered.
        """
        listener, self._listener = self._listener, None
        if listener is None:
            return
        # shutdown() wakes an accept() blocked in another thread; a wait for
        # a free slot is woken by the extra release.
        with contextlib.suppress(OSError):
            listener.shutdown(socket.SHUT_RDWR)
        listener.close()
        self._slots.release()
        self._accept_thread.join()
        connections = tuple(self._connections)
        for connection in connections:
            connection.shut()
        deadline = time.monotonic() + drain_timeout
        for connection in connections:
            connection.thread.join(max(0.0, deadline - time.monotonic()))
        stragglers = [c for c in connections if c.thread.is_alive()]
        for connection in stragglers:
            connection.abort()
        for connection in stragglers:
            connection.thread.join(5.0)

    def _accept(self, listener: socket.socket, slots: threading.Semaphore) -> None:
        """Hand each accepted connection to a thread of its own, within the cap."""
        for number in itertools.count(1):
            slots.acquire()
            if self._listener is not listener:
                return
            try:
                sock, peer = listener.accept()
            except OSError:
                slots.release()
                if self._listener is not listener:
                    return
                time.sleep(0.05)  # out of descriptors, say: let some close
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock, str(peer), slots)
            self._connections.add(connection)
            self._counters["connections_total"].inc()
            self._counters["connections_active"].inc()
            connection.thread = threading.Thread(
                target=connection.run,
                name=f"{CONNECTION_THREAD_PREFIX}-{number}",
                daemon=True,
            )
            connection.thread.start()

    def _closed(self, connection: "_Connection") -> None:
        self._connections.discard(connection)
        self._counters["connections_active"].dec()

    # ------------------------------------------------------------------ #
    # Operator read-outs: control operations
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
        self._counters["requests_dispatched"].inc()
        return CHANNEL_CONTROL, json.dumps(response).encode("utf-8")

    def _control_operation(self, request: dict) -> dict:
        op, database = request["op"], self._database
        if op == "ping":
            return {"ok": True}
        if op == "metrics":
            snapshot = database.metrics_snapshot()
            if request.get("format") == "prometheus":
                return {"ok": True, "prometheus": render_prometheus(snapshot)}
            return {"ok": True, "metrics": snapshot}
        if op == "trace":
            traces = database.trace_buffer
            trace_hex = request.get("trace_id")
            if trace_hex:
                return {"ok": True, "trace": traces.get(bytes.fromhex(str(trace_hex)))}
            limit = int(request.get("limit", 10))
            return {
                "ok": True,
                "traces": traces.recent(limit),
                "slow": database.slow_queries.entries(limit),
            }
        raise ServerError(f"unknown control operation {op!r}")


class _Connection:
    """One client connection, served serially by :meth:`run` on its own thread.

    ``stop()`` reaches in from another thread through :meth:`shut`; the
    connection's lock orders that against the thread starting to serve
    what it read, so an idle connection is cut and a busy one finishes its
    request first.
    """

    def __init__(
        self,
        server: DatabaseTcpServer,
        sock: socket.socket,
        peer: str = "",
        slots: threading.Semaphore | None = None,
    ) -> None:
        self._server = server
        self._sock = sock
        self._slots = slots
        self._decoder = FrameDecoder(server._max_frame_size)
        self.peer = peer
        #: Set once the connection's hello is answered; nothing else is
        #: served before it.
        self.greeted = False
        self.thread: threading.Thread | None = None
        self._lock = threading.Lock()
        #: Serve nothing more; set by shut().
        self._closing = False
        #: Serving what it read (shutdown only waits for busy connections).
        self._busy = False

    def run(self) -> None:
        """``recv``, serve every frame read, answer each; until the peer leaves."""
        try:
            while data := self._sock.recv(65536):
                with self._lock:
                    if self._closing:
                        return
                    self._busy = True
                try:
                    served = self._serve(data)
                finally:
                    with self._lock:
                        self._busy = False
                if not served or self._closing:
                    return
        except OSError:
            pass  # the peer is gone, or stop() cut the connection
        finally:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._server._closed(self)
            if self._slots is not None:
                self._slots.release()

    def shut(self) -> None:
        """Serve nothing more: close now when idle, else after the current request."""
        with self._lock:
            self._closing = True
            busy = self._busy
        if not busy:
            self.abort()

    def abort(self) -> None:
        """Cut the connection; its thread's blocking call returns."""
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)

    def _serve(self, data: bytes) -> bool:
        """Answer every frame ``data`` completes, in order; False once refused."""
        try:
            frames = self._decoder.feed(data)
        except FramingError as exc:
            self._server._counters["framing_errors"].inc()
            self._refuse(str(exc))
            return False
        if frames:
            self._count(frames)
        for frame in frames:
            if not self._answer(frame) or self._closing:
                return False
        return True

    def _count(self, frames: list[framing.Frame]) -> None:
        """Bump the traffic counters once for the frames one ``recv`` completed."""
        received = len(frames)
        envelopes = sum(frame.channel == CHANNEL_ENVELOPE for frame in frames)
        size = sum(len(frame.payload) for frame in frames) + received * _FRAME_OVERHEAD
        controls = received - envelopes
        totals = self._server._counters
        totals["frames_received"].inc(received)
        totals["bytes_received"].inc(size)
        if envelopes:
            totals["envelope_frames"].inc(envelopes)
        if controls:
            totals["control_frames"].inc(controls)

    def _answer(self, frame: framing.Frame) -> bool:
        """Serve one frame and send its answer; False if it was refused."""
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
                return False
            if request["op"] == "hello":
                self.greeted = True
                greeting = {
                    "ok": True,
                    "server": SERVER_SOFTWARE,
                    "max_frame_size": server._max_frame_size,
                }
                self._send(json.dumps(greeting).encode("utf-8"), CHANNEL_CONTROL, correlation)
                return True
            if not self.greeted:
                self._refuse("the first frame must be a hello", correlation)
                return False
            channel, answer = server._control_answer(request)
        elif not self.greeted:
            self._refuse("the first frame must be a hello", correlation)
            return False
        else:
            channel = CHANNEL_ENVELOPE
            try:
                answer = server._database.handle_message(payload)
            # Envelope bytes that do not parse are a protocol violation, not
            # a servable error: answer and close.
            except ProtocolError as exc:
                self._refuse(str(exc), correlation)
                return False
            except Exception as exc:  # noqa: BLE001 - a provider bug must not kill siblings
                failure = {"ok": False, "error": f"internal dispatch failure: {exc}"}
                channel, answer = CHANNEL_CONTROL, json.dumps(failure).encode("utf-8")
        try:
            self._send(answer, channel, correlation)
        except OversizedFrameError as exc:  # an answer past the frame limit is an error
            failure = json.dumps({"ok": False, "error": f"answer refused: {exc}"})
            self._send(failure.encode("utf-8"), CHANNEL_CONTROL, correlation)
        return True

    def _refuse(self, error: str, correlation: int = 0) -> None:
        """Answer a violation with one control error frame, then half-close
        and drop what the peer still sends, for at most a second."""
        refusal = json.dumps({"ok": False, "error": error}).encode("utf-8")
        sock = self._sock
        with contextlib.suppress(OSError):
            self._send(refusal, CHANNEL_CONTROL, correlation)
            sock.shutdown(socket.SHUT_WR)
            deadline = time.monotonic() + _LINGER_SECONDS
            while (remaining := deadline - time.monotonic()) > 0:
                sock.settimeout(remaining)
                if not sock.recv(65536):
                    break

    def _send(self, payload: bytes, channel: int, correlation: int) -> None:
        frame = framing.encode_frame(
            payload,
            channel=channel,
            correlation=correlation,
            max_frame_size=self._server._max_frame_size,
        )
        totals = self._server._counters
        totals["frames_sent"].inc()
        totals["bytes_sent"].inc(len(frame))
        self._sock.sendall(frame)


class ThreadedTcpServer:
    """A :class:`DatabaseTcpServer` (:attr:`server`) as a context manager.

    The harness for tests, benchmarks and embedding: enter, connect to
    :attr:`port`, leave and the server shuts down gracefully.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.server = DatabaseTcpServer(*args, **kwargs)

    port = property(lambda self: self.server.port, doc="The bound port.")
    address = property(lambda self: self.server.address, doc="The bound ``(host, port)``.")

    def start(self) -> "ThreadedTcpServer":
        self.server.start()
        return self

    def stop(self, drain_timeout: float = 5.0) -> None:
        self.server.stop(drain_timeout)

    def __enter__(self) -> "ThreadedTcpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
