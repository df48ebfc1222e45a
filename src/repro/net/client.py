"""Client side of the TCP transport: connections, pool, and the proxies.

:class:`RemoteServerProxy` is the piece that makes the network transparent:
its :meth:`~RemoteProxyBase.handle_message` ships an envelope and returns
the provider's answer, exactly as
:meth:`OutsourcedDatabaseServer.handle_message
<repro.outsourcing.server.OutsourcedDatabaseServer.handle_message>` does
in-process, and every data and DDL operation is an envelope -- so
:class:`~repro.api.EncryptedDatabase` drives a remote provider with the
code paths it already uses in-process.  Besides it, the
proxy carries only the operator read-outs of the JSON control channel
(``ping`` / ``stats`` / ``metrics`` / ``trace``).

That surface lives in :class:`RemoteProxyBase`, expressed in terms of two
transport primitives (ship an envelope, run a control operation), so the
blocking proxy here and the pipelined
:class:`~repro.net.aio.AsyncRemoteServerProxy` share every line of
protocol logic and differ only in how bytes move.

Connections are blocking sockets behind a bounded :class:`ConnectionPool`,
so several threads can issue queries concurrently, each on its own
connection.  Every new connection opens with the hello handshake, whose
answer is only checked for ``ok``: there is no version to agree on, since
every provider reads both envelope layouts and a proxy attaches the trace
id of the ambient trace to every envelope it ships.  A call that hits a
dead connection -- the provider restarted, an idle socket timed out -- is
retried once on a fresh connection before the error surfaces.

Errors raised here subclass
:class:`~repro.outsourcing.server.ServerError`, so the facade's existing
error translation applies unchanged to remote sessions.
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from urllib.parse import urlsplit

from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    Frame,
    FramingError,
)
from repro.net import wire
from repro.obs import current_trace
from repro.outsourcing import protocol
from repro.outsourcing.server import ServerError


class RemoteError(ServerError):
    """A remote provider operation failed (subclasses the in-process error)."""


class ConnectionLostError(RemoteError):
    """The transport died mid-call; callers may retry on a fresh socket.

    ``request_delivered`` distinguishes failures where the request frame had
    already been handed to the kernel (the provider *may* have processed it)
    from failures before any byte left -- the proxy only auto-retries
    non-idempotent operations in the latter case.
    """

    def __init__(self, message: str, request_delivered: bool = False) -> None:
        super().__init__(message)
        self.request_delivered = request_delivered


#: Truthy / falsy spellings accepted by boolean URL options.
_TRUE_OPTION_VALUES = frozenset({"1", "true", "yes", "on"})
_FALSE_OPTION_VALUES = frozenset({"0", "false", "no", "off"})


def parse_bool_option(key: str, value: str) -> bool:
    """Parse a boolean URL query value, strictly."""
    lowered = value.strip().lower()
    if lowered in _TRUE_OPTION_VALUES:
        return True
    if lowered in _FALSE_OPTION_VALUES:
        return False
    raise RemoteError(
        f"URL option {key} must be a boolean (0/1/true/false), got {value!r}"
    )


def parse_tcp_options(url: str) -> tuple[str, int, dict]:
    """Split ``tcp://host:port[?async=1&index=1]`` into its parts, strictly.

    Returns ``(host, port, options)``; the supported options are ``async``
    (picks the pipelined asyncio transport, see
    :class:`~repro.net.aio.AsyncRemoteServerProxy`), ``index`` (the
    session maintains encrypted inverted indexes and serves exact selects
    through ``INDEX_LOOKUP``) and ``cache`` (the session keeps a
    client-side result cache of its reads, see :mod:`repro.cache`).
    Unknown options are rejected, not ignored: a silently dropped typo
    like ``?asnyc=1`` would quietly run the session on the wrong
    transport.
    """
    parts = urlsplit(url)
    if parts.scheme != "tcp":
        raise RemoteError(f"unsupported provider URL scheme {parts.scheme!r} (want tcp://)")
    try:
        hostname, port = parts.hostname, parts.port
    except ValueError as exc:  # non-numeric or out-of-range port
        raise RemoteError(f"provider URL {url!r}: {exc}") from exc
    if not hostname or port is None:
        raise RemoteError(f"provider URL {url!r} needs both a host and a port")
    if parts.path or parts.fragment:
        raise RemoteError(f"provider URL {url!r} carries an unexpected path")
    options: dict = {}
    if parts.query:
        for item in parts.query.split("&"):
            if not item:
                continue
            key, _, value = item.partition("=")
            if key not in ("async", "index", "cache"):
                raise RemoteError(
                    f"unknown provider URL option {key!r} "
                    "(supported: async, index, cache)"
                )
            options[key] = parse_bool_option(key, value)
    return hostname, port, options


def parse_tcp_url(url: str) -> tuple[str, int]:
    """Split a bare ``tcp://host:port`` into its parts (no options allowed)."""
    hostname, port, options = parse_tcp_options(url)
    if options:
        raise RemoteError(f"provider URL {url!r} carries unexpected options")
    return hostname, port


class RemoteConnection:
    """One blocking framed connection, greeted with a hello at construction.

    The wire work -- correlation ids, response pairing, hello -- lives in
    the sans-IO :class:`~repro.net.wire.ClientChannel`; this class only
    moves bytes through a blocking socket, one request at a time
    (concurrency comes from the pool, pipelining from the asyncio
    frontend over the very same channel core).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
    ) -> None:
        self._channel = wire.ClientChannel(max_frame_size)
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ConnectionLostError(
                f"cannot connect to provider at {host}:{port}: {exc}"
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            self.call_control("hello")
        except RemoteError:
            self.close()
            raise

    def call_envelope(self, raw: bytes, trace_id: bytes | None = None) -> bytes:
        """One protocol round trip: envelope bytes out, envelope bytes back.

        A ``trace_id`` is attached to the envelope (rewriting it to the
        traced layout, an O(1) byte splice).
        """
        if trace_id is not None:
            raw = protocol.attach_trace(raw, trace_id)
        frame = self._round_trip(raw, CHANNEL_ENVELOPE)
        if frame.channel == CHANNEL_CONTROL:
            # The server only answers an envelope with a control frame to
            # report a fatal transport-level failure before closing.
            raise RemoteError(self._control_error(frame.payload))
        return frame.payload

    def call_control(self, op: str, **fields) -> dict:
        """One control round trip; returns the response object on ``ok``."""
        frame = self._round_trip(
            wire.encode_control_request(op, **fields), CHANNEL_CONTROL
        )
        if frame.channel != CHANNEL_CONTROL:
            raise RemoteError(f"provider answered control op {op!r} on the wrong channel")
        try:
            response = wire.decode_control_response(frame.payload)
        except wire.WireProtocolError as exc:
            raise RemoteError(str(exc)) from exc
        if not response.get("ok"):
            raise RemoteError(wire.control_error(response))
        return response

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        with contextlib.suppress(OSError):
            self._sock.close()

    def _round_trip(self, payload: bytes, channel: int) -> Frame:
        delivered = False
        correlation = None
        try:
            correlation, wire_bytes = self._channel.send(payload, channel)
            self._sock.sendall(wire_bytes)
            delivered = True
            while True:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionLostError(
                        self._connection_lost_message(), request_delivered=True
                    )
                matched = self._channel.receive(chunk)
                if matched:
                    # One request in flight at a time: the first (and only)
                    # matched response is ours.
                    return matched[0][1]
                if self._channel.fault is not None:
                    # The server broadcast why it is hanging up (e.g. our
                    # frame exceeded its size limit); surface that instead
                    # of the bare EOF that follows.
                    raise ConnectionLostError(
                        self._connection_lost_message(), request_delivered=True
                    )
        except (OSError, FramingError) as exc:
            if correlation is not None:
                self._channel.cancel(correlation)
            raise ConnectionLostError(
                f"provider connection failed: {exc}", request_delivered=delivered
            ) from exc

    def _connection_lost_message(self) -> str:
        if self._channel.fault is not None:
            return f"provider closed the connection: {self._channel.fault}"
        return "provider closed the connection"

    @staticmethod
    def _control_error(payload: bytes) -> str:
        try:
            return wire.control_error(wire.decode_control_response(payload))
        except wire.WireProtocolError:
            return "unreadable provider error"


class _Checkout:
    """One borrowed connection; broken ones are dropped on the way out.

    A :class:`RemoteError` that is not a :class:`ConnectionLostError` means
    a round trip *completed* and the provider answered ``ok: false`` -- the
    connection is healthy and goes back to the pool.  Anything else
    (transport failure, unexpected caller error) leaves the connection in
    an unknown state, so it is closed instead.
    """

    __slots__ = ("_pool", "_connection")

    def __init__(self, pool: "ConnectionPool") -> None:
        self._pool = pool

    def __enter__(self) -> "RemoteConnection":
        self._connection = self._pool._borrow()
        return self._connection

    def __exit__(self, exc_type, exc, traceback) -> None:
        reusable = exc_type is None or (
            issubclass(exc_type, RemoteError)
            and not issubclass(exc_type, ConnectionLostError)
        )
        self._pool._give_back(self._connection, reusable)


class ConnectionPool:
    """A bounded pool of :class:`RemoteConnection` for concurrent callers.

    ``max_size`` caps *concurrent* checkouts (a semaphore); idle connections
    are reused most-recently-returned first.  A connection that fails inside
    :meth:`checkout` is discarded, never returned to the pool.
    """

    def __init__(self, factory, max_size: int = 4) -> None:
        if max_size < 1:
            raise ValueError("a connection pool needs max_size >= 1")
        self._factory = factory
        self._slots = threading.Semaphore(max_size)
        self._lock = threading.Lock()
        self._idle: list[RemoteConnection] = []
        self._closed = False

    def checkout(self) -> "_Checkout":
        """Borrow a connection for a ``with`` block (see :class:`_Checkout`)."""
        return _Checkout(self)

    def _borrow(self) -> RemoteConnection:
        self._slots.acquire()
        try:
            with self._lock:
                if self._closed:
                    raise RemoteError("the connection pool is closed")
                connection = self._idle.pop() if self._idle else None
            return connection if connection is not None else self._factory()
        except BaseException:
            self._slots.release()
            raise

    def _give_back(self, connection: RemoteConnection, reusable: bool) -> None:
        try:
            with self._lock:
                keep = reusable and not self._closed
                if keep:
                    self._idle.append(connection)
            if not keep:
                connection.close()
        finally:
            self._slots.release()

    def discard_idle(self) -> None:
        """Drop every idle connection (e.g. after a provider restart)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def close(self) -> None:
        """Close the pool and every idle connection."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


class RemoteProxyBase:
    """A remote provider's ``handle_message`` over two primitives.

    Subclasses provide :meth:`_transport_envelope` (ship one protocol
    envelope, honoring the retry/idempotence contract) and
    :meth:`_control` (run one operator read-out); everything else is
    written once here and shared by the blocking and the pipelined asyncio
    proxies, so their sync surfaces cannot drift apart.
    """

    # ------------------------------------------------------------------ #
    # Transport primitives (implemented by the frontends)
    # ------------------------------------------------------------------ #

    def _transport_envelope(self, raw: bytes, idempotent: bool) -> bytes:
        raise NotImplementedError

    def _control(self, op: str, **fields) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def handle_message(self, raw: bytes) -> bytes:
        """Ship one protocol envelope and return the provider's response.

        A kind in :data:`~repro.outsourcing.protocol.REPLAY_UNSAFE` is never
        resent once it may have reached the provider.
        """
        _, kind, _ = protocol.peek_envelope(raw)  # O(header): no body copy
        return self._transport_envelope(
            raw, idempotent=kind not in protocol.REPLAY_UNSAFE
        )

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """One control round trip; True when the provider answers."""
        self._control("ping")
        return True

    def server_stats(self) -> dict:
        """The provider's aggregate transport stats and audit summary."""
        response = self._control("stats")
        return {key: value for key, value in response.items() if key != "ok"}

    def metrics(self, format: str | None = None) -> dict:
        """The provider's metrics snapshot (or its Prometheus rendering).

        With ``format="prometheus"`` the response carries a ``prometheus``
        text body instead of the structured ``metrics`` snapshot.
        """
        fields = {"format": format} if format is not None else {}
        response = self._control("metrics", **fields)
        return {key: value for key, value in response.items() if key != "ok"}

    def metrics_snapshot(self) -> dict:
        """The provider's structured metrics snapshot (``{}`` when empty)."""
        return self._control("metrics").get("metrics") or {}

    def collect_trace(self, trace_id: bytes) -> list[dict]:
        """The spans this provider recorded under ``trace_id`` (may be [])."""
        response = self._control("trace", trace_id=trace_id.hex())
        trace = response.get("trace")
        if not trace:
            return []
        return list(trace.get("spans", ()))

    def recent_traces(self, limit: int = 10) -> dict:
        """The provider's most recent traces and slow-query entries."""
        response = self._control("trace", limit=limit)
        return {key: value for key, value in response.items() if key != "ok"}


class RemoteServerProxy(RemoteProxyBase):
    """A remote provider behind a pool of blocking connections."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        pool_size: int = 4,
        timeout: float | None = 30.0,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_frame_size = max_frame_size
        self._pool = ConnectionPool(self._new_connection, max_size=pool_size)
        # Handshake eagerly: fail fast on a bad address.
        with self._pool.checkout():
            pass

    @classmethod
    def connect(cls, url: str, **kwargs) -> "RemoteServerProxy":
        """Open a proxy from a ``tcp://host:port`` URL."""
        host, port, options = parse_tcp_options(url)
        if options.get("async"):
            raise RemoteError(
                f"provider URL {url!r} requests the async transport; open it "
                "with AsyncRemoteServerProxy.connect (or through "
                "EncryptedDatabase.connect, which dispatches on the option)"
            )
        return cls(host, port, **kwargs)

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """The provider's ``(host, port)``."""
        return self._host, self._port

    def close(self) -> None:
        """Close the proxy's connection pool."""
        self._pool.close()

    def _new_connection(self) -> RemoteConnection:
        return RemoteConnection(
            self._host,
            self._port,
            timeout=self._timeout,
            max_frame_size=self._max_frame_size,
        )

    def _call(self, operation, idempotent: bool = True):
        """Run ``operation(connection)``, retrying once on a dead connection.

        Only transport-level failures (:class:`ConnectionLostError`) are
        retried, and a non-idempotent operation is only retried when the
        request never left this machine (``request_delivered`` is False) --
        otherwise a provider that processed the request before dying would
        see it applied twice.  Protocol-level errors are never retried.
        """
        try:
            with self._pool.checkout() as connection:
                return operation(connection)
        except ConnectionLostError as exc:
            if exc.request_delivered and not idempotent:
                raise
            self._pool.discard_idle()
            with self._pool.checkout() as connection:
                return operation(connection)

    # ------------------------------------------------------------------ #
    # Transport primitives
    # ------------------------------------------------------------------ #

    def _transport_envelope(self, raw: bytes, idempotent: bool) -> bytes:
        trace = current_trace()
        trace_id = trace.trace_id if trace is not None else None
        started = time.time()
        mono = time.monotonic()
        try:
            return self._call(
                lambda connection: connection.call_envelope(raw, trace_id=trace_id),
                idempotent=idempotent,
            )
        finally:
            if trace is not None:
                trace.record(
                    "proxy.request",
                    started,
                    time.monotonic() - mono,
                    transport="tcp",
                    host=self._host,
                    port=self._port,
                )

    def _control(self, op: str, **fields) -> dict:
        return self._call(lambda connection: connection.call_control(op, **fields))
