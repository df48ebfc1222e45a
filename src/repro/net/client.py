"""Client side of the TCP transport: connections, the pool, and the proxy.

:class:`RemoteServerProxy` is the piece that makes the network transparent:
its :meth:`~RemoteServerProxy.handle_message` ships an envelope and returns
the provider's answer, exactly as
:meth:`OutsourcedDatabaseServer.handle_message
<repro.outsourcing.server.OutsourcedDatabaseServer.handle_message>` does
in-process, and every data and DDL operation is an envelope -- so
:class:`~repro.api.EncryptedDatabase` drives a remote provider with the
code paths it already uses in-process.  Besides it, the
proxy carries only the operator read-outs of the JSON control channel
(``ping`` / ``metrics`` / ``trace``).

Connections are blocking sockets behind a bounded :class:`ConnectionPool`,
so several threads can issue queries concurrently, each on its own
connection; the wire work (correlation ids, response pairing, control
JSON) is the sans-IO :class:`~repro.net.wire.ClientChannel`.  Every new
connection opens with the hello handshake, whose answer is only checked
for ``ok``: there is no version to agree on, since every provider reads
both envelope layouts and a proxy attaches the trace id of the ambient
trace to every envelope it ships.

A round trip is two halves: :meth:`RemoteServerProxy.send_message` sends
on a borrowed connection and returns a :class:`PendingReply`, whose
:meth:`~PendingReply.receive` reads the answer -- so one thread can have a
request out to each of several providers before reading any answer (the
shard router's scatter), and ``handle_message`` is the two back to back.
``timeout`` bounds each whole round trip, not each ``recv``, so a provider
that trickles its answer cannot hold a caller past it.  A call that hits a
dead connection -- the provider restarted, an idle socket timed out, a
round trip ran out of time -- is resent once on a fresh connection before
the error surfaces, unless its kind is in
:data:`~repro.outsourcing.protocol.REPLAY_UNSAFE` and the request may have
reached the provider (at-most-once).

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
from repro.obs import AMBIENT_TRACE
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

#: The options every provider URL takes, all boolean: ``index`` (encrypted
#: inverted indexes, :mod:`repro.index`), ``cache`` (the session's result
#: cache, :mod:`repro.cache`) and ``async``, which has no effect: it named a
#: pipelined transport that is gone, and URLs written for it still load.
_URL_OPTIONS = ("async", "index", "cache")


def parse_url_query(query: str, scheme: str = "provider", integers=()) -> dict:
    """Parse the options of a provider URL's query string, strictly.

    ``async``, ``index`` and ``cache`` take a boolean; a key in
    ``integers`` (the ``cluster://`` scheme's ``replicas``) takes an
    integer.  An unknown key, a bad value or a key given twice raises
    :class:`RemoteError` naming the ``scheme``: a silently dropped typo
    like ``?asnyc=1`` would quietly run the session on the wrong
    transport, and a silently overridden ``replicas=2&replicas=1`` on an
    unreplicated fleet.
    """
    options: dict = {}
    for item in query.split("&"):
        if not item:
            continue
        key, _, value = item.partition("=")
        if key in options:
            raise RemoteError(f"{scheme} URL option {key!r} is given twice")
        if key in integers:
            try:
                options[key] = int(value)
            except ValueError:
                raise RemoteError(
                    f"{scheme} URL option {key} must be an integer, got {value!r}"
                ) from None
        elif key in _URL_OPTIONS:
            lowered = value.strip().lower()
            if lowered not in _TRUE_OPTION_VALUES | _FALSE_OPTION_VALUES:
                raise RemoteError(
                    f"URL option {key} must be a boolean (0/1/true/false), got {value!r}"
                )
            options[key] = lowered in _TRUE_OPTION_VALUES
        else:
            raise RemoteError(
                f"unknown {scheme} URL option {key!r} "
                f"(supported: {', '.join((*integers, *_URL_OPTIONS))})"
            )
    return options


def parse_tcp_options(url: str) -> tuple[str, int, dict]:
    """Split ``tcp://host:port[?async=1&index=1&cache=1]`` into its parts, strictly.

    Returns ``(host, port, options)``, the options read by
    :func:`parse_url_query`.
    """
    if any(ord(char) < 33 or ord(char) == 127 for char in url):
        # urlsplit would silently drop a tab or newline inside the address.
        raise RemoteError(f"provider URL {url!r} carries whitespace or control characters")
    try:
        parts = urlsplit(url)
        hostname, port = parts.hostname, parts.port
    except ValueError as exc:  # a bad port, bracket or NFKC-unsafe host
        raise RemoteError(f"provider URL {url!r}: {exc}") from exc
    if parts.scheme != "tcp":
        raise RemoteError(f"unsupported provider URL scheme {parts.scheme!r} (want tcp://)")
    if not hostname or not port:
        raise RemoteError(f"provider URL {url!r} needs both a host and a port (1-65535)")
    if parts.path or parts.fragment:
        raise RemoteError(f"provider URL {url!r} carries an unexpected path")
    return hostname, port, parse_url_query(parts.query)


def parse_tcp_url(url: str) -> tuple[str, int]:
    """Split a bare ``tcp://host:port`` into its parts (no options allowed)."""
    hostname, port, options = parse_tcp_options(url)
    if options:
        raise RemoteError(f"provider URL {url!r} carries unexpected options")
    return hostname, port


class ReplyOverdueError(RemoteError):
    """A caller's budget for one answer ran out; its connection was closed.

    Unlike a :class:`ConnectionLostError` this is never retried: the caller
    chose to stop waiting, and the closed connection means the late answer
    can never reach another request.
    """


class RemoteConnection:
    """One blocking framed connection, greeted with a hello at construction.

    The wire work -- correlation ids, response pairing, hello -- lives in
    the sans-IO :class:`~repro.net.wire.ClientChannel`; this class only
    moves bytes through a blocking socket, one request at a time
    (concurrency comes from the pool).  A round trip is two halves,
    :meth:`send` and :meth:`receive`, so a caller can have one request out
    on each of several connections before it reads any answer.
    ``timeout`` is a deadline for each whole round trip, started by
    :meth:`send`: the socket's timeout is set to what remains of it before
    every send and ``recv``.
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
        self._timeout = timeout
        self._deadline: float | None = None
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

    def call_control(self, op: str, **fields) -> dict:
        """One control round trip; returns the response object on ``ok``."""
        self.send(wire.encode_control_request(op, **fields), CHANNEL_CONTROL)
        return _control_answer(op, self.receive())

    def close(self) -> None:
        """Close the underlying socket (idempotent)."""
        with contextlib.suppress(OSError):
            self._sock.close()

    def send(self, payload: bytes, channel: int) -> None:
        """The send half: frame one request and hand it to the kernel.

        Starts the round trip's deadline.  Raises
        :class:`ConnectionLostError` with ``request_delivered=False``: no
        byte of a request whose send failed counts as delivered.
        """
        self._deadline = None if self._timeout is None else time.monotonic() + self._timeout
        try:
            _, wire_bytes = self._channel.send(payload, channel)
            self._arm(self._deadline)
            self._sock.sendall(wire_bytes)
        except socket.timeout as exc:
            raise ConnectionLostError(
                f"provider did not answer within {self._timeout}s"
            ) from exc
        except (OSError, FramingError) as exc:
            raise ConnectionLostError(f"provider connection failed: {exc}") from exc

    def receive(self, until: float | None = None) -> Frame:
        """The receive half: read until the answer to the request sent arrives.

        Waits at most until the round trip's deadline or ``until`` (a
        :func:`time.monotonic` instant, the caller's own budget), whichever
        comes first.  A missed round-trip deadline is a
        :class:`ConnectionLostError`; a missed ``until`` is a
        :class:`ReplyOverdueError`.  Either way the connection holds a late
        answer and must be closed.
        """
        deadline, overdue = self._deadline, False
        if until is not None and (deadline is None or until < deadline):
            deadline, overdue = until, True
        try:
            while True:
                self._arm(deadline)
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionLostError(
                        self._connection_lost_message(), request_delivered=True
                    )
                matched = self._channel.receive(chunk)
                if matched:
                    # One request in flight at a time: the first (and only)
                    # matched response is ours.
                    return matched[0]
                if self._channel.fault is not None:
                    # The server broadcast why it is hanging up (e.g. our
                    # frame exceeded its size limit); surface that instead
                    # of the bare EOF that follows.
                    raise ConnectionLostError(
                        self._connection_lost_message(), request_delivered=True
                    )
        except socket.timeout as exc:
            if overdue:
                raise ReplyOverdueError("no answer within the caller's budget") from exc
            raise ConnectionLostError(
                f"provider did not answer within {self._timeout}s",
                request_delivered=True,
            ) from exc
        except (OSError, FramingError) as exc:
            raise ConnectionLostError(
                f"provider connection failed: {exc}", request_delivered=True
            ) from exc

    def _arm(self, deadline: float | None) -> None:
        """Give the next socket call what remains of the round trip's time."""
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise socket.timeout("timed out")
        self._sock.settimeout(remaining)

    def _connection_lost_message(self) -> str:
        if self._channel.fault is not None:
            return f"provider closed the connection: {self._channel.fault}"
        return "provider closed the connection"


def _envelope_answer(frame: Frame) -> bytes:
    """The answer envelope an envelope request's frame carries."""
    if frame.channel == CHANNEL_CONTROL:
        # The server only answers an envelope with a control frame to
        # report a fatal transport-level failure before closing.
        try:
            message = wire.control_error(wire.decode_control_response(frame.payload))
        except wire.WireProtocolError:
            message = "unreadable provider error"
        raise RemoteError(message)
    return frame.payload


def _control_answer(op: str, frame: Frame) -> dict:
    """The response object a control request's frame carries, on ``ok``."""
    if frame.channel != CHANNEL_CONTROL:
        raise RemoteError(f"provider answered control op {op!r} on the wrong channel")
    try:
        response = wire.decode_control_response(frame.payload)
    except wire.WireProtocolError as exc:
        raise RemoteError(str(exc)) from exc
    if not response.get("ok"):
        raise RemoteError(wire.control_error(response))
    return response


class ConnectionPool:
    """A bounded pool of :class:`RemoteConnection` for concurrent callers.

    ``max_size`` caps *concurrent* borrowers (a semaphore).  A borrower takes
    a slot with :meth:`_acquire` -- and the most recently returned idle
    connection, or ``None``, when it builds one with the factory -- and
    ends with :meth:`_give_back`, which keeps the connection only when an
    answer came back on it (see :class:`PendingReply`).
    """

    def __init__(self, factory, max_size: int = 4) -> None:
        if max_size < 1:
            raise ValueError("a connection pool needs max_size >= 1")
        self._factory = factory
        self._slots = threading.Semaphore(max_size)
        self._lock = threading.Lock()
        self._idle: list[RemoteConnection] = []
        self._closed = False

    def _acquire(self) -> RemoteConnection | None:
        """Take a slot; the most recently returned idle connection, or None."""
        self._slots.acquire()
        with self._lock:
            if self._closed:
                self._slots.release()
                raise RemoteError("the connection pool is closed")
            return self._idle.pop() if self._idle else None

    def _give_back(self, connection: RemoteConnection | None, reusable: bool) -> None:
        """End a borrow: keep ``connection`` idle, or close it; free the slot."""
        try:
            with self._lock:
                keep = reusable and not self._closed
                if keep:
                    self._idle.append(connection)
            if not keep and connection is not None:
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


class PendingReply:
    """One request sent on a borrowed connection, its answer still owed.

    Construction is the send half of a round trip: it takes a pool slot
    (waiting while every slot is out) and an idle or fresh connection, and
    sends; :meth:`receive` is the receive half and gives the slot back,
    keeping the connection only when an answer came back on it.  A dead
    connection -- the provider restarted, an idle socket timed out, a
    round trip ran out of time, a send failed -- is replaced once, in the
    same slot, and the request resent, unless its kind is in
    :data:`~repro.outsourcing.protocol.REPLAY_UNSAFE` and it may have
    reached the provider (at-most-once).  Resending never waits for
    another slot, so callers that send on several pools in one fixed order
    cannot deadlock.
    """

    __slots__ = ("_proxy", "_connection", "_payload", "_channel", "_idempotent",
                 "_lost", "_trace", "_started", "_mono")

    def __init__(self, proxy, payload: bytes, channel: int, idempotent: bool, trace=None) -> None:
        self._proxy = proxy
        self._payload = payload
        self._channel = channel
        self._idempotent = idempotent
        self._trace = trace
        self._started = time.time()
        self._mono = time.monotonic()
        self._lost: ConnectionLostError | None = None
        pool = proxy._pool
        self._connection = pool._acquire()
        try:
            if self._connection is None:
                self._connection = pool._factory()
            self._connection.send(payload, channel)
        except ConnectionLostError as exc:
            self._lost = exc
        except BaseException:
            pool._give_back(self._connection, False)
            raise

    def receive(self, budget: float | None = None) -> bytes:
        """The receive half: the provider's answer envelope.

        ``budget`` bounds the wait from now, beside the connection's own
        round-trip deadline: when it runs out the connection is closed and
        :class:`ReplyOverdueError` raised.
        """
        try:
            return _envelope_answer(self.frame(budget))
        finally:
            if self._trace is not None:
                self._trace.record(
                    "proxy.request",
                    self._started,
                    time.monotonic() - self._mono,
                    transport="tcp",
                    host=self._proxy._host,
                    port=self._proxy._port,
                )

    def abandon(self) -> None:
        """Return the slot without reading the answer; the connection closes."""
        self._proxy._pool._give_back(self._connection, False)

    def frame(self, budget: float | None = None) -> Frame:
        """The answer frame, resent once on a fresh connection if allowed."""
        until = None if budget is None else time.monotonic() + budget
        pool = self._proxy._pool
        try:
            try:
                if self._lost is not None:
                    raise self._lost
                frame = self._connection.receive(until)
            except ConnectionLostError as exc:
                if exc.request_delivered and not self._idempotent:
                    raise
                pool.discard_idle()
                if self._connection is not None:
                    self._connection.close()
                    self._connection = None
                self._connection = pool._factory()
                self._connection.send(self._payload, self._channel)
                frame = self._connection.receive(until)
        except BaseException:
            pool._give_back(self._connection, False)
            raise
        pool._give_back(self._connection, True)
        return frame


class RemoteServerProxy:
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
        self._pool._acquire()
        connection = None
        try:
            connection = self._new_connection()
        finally:
            self._pool._give_back(connection, connection is not None)

    @classmethod
    def connect(cls, url: str, **kwargs) -> "RemoteServerProxy":
        """Open a proxy from a ``tcp://host:port[?async=1]`` URL.

        The URL's options are the session's (``index``, ``cache``) or have
        no effect (``async``).
        """
        host, port, _ = parse_tcp_options(url)
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

    def __enter__(self) -> "RemoteServerProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _new_connection(self) -> RemoteConnection:
        return RemoteConnection(
            self._host,
            self._port,
            timeout=self._timeout,
            max_frame_size=self._max_frame_size,
        )

    # ------------------------------------------------------------------ #
    # The provider's surface
    # ------------------------------------------------------------------ #

    def handle_message(self, raw: bytes) -> bytes:
        """Ship one protocol envelope and return the provider's response.

        A kind in :data:`~repro.outsourcing.protocol.REPLAY_UNSAFE` is never
        resent once it may have reached the provider.
        """
        return self.send_message(raw).receive()

    def send_message(self, raw: bytes) -> PendingReply:
        """The send half of :meth:`handle_message`: ship one envelope now.

        The envelope carries the ambient trace's id; the returned
        :class:`PendingReply` holds a pooled connection until its
        :meth:`~PendingReply.receive` reads the answer, and records the
        ``proxy.request`` span then.
        """
        _, kind, _ = protocol.peek_envelope(raw)  # O(header): no body copy
        trace = AMBIENT_TRACE.get()
        if trace is not None:
            raw = protocol.attach_trace(raw, trace.trace_id)
        return PendingReply(
            self, raw, CHANNEL_ENVELOPE, kind not in protocol.REPLAY_UNSAFE, trace
        )

    def _control(self, op: str, **fields) -> dict:
        payload = wire.encode_control_request(op, **fields)
        return _control_answer(op, PendingReply(self, payload, CHANNEL_CONTROL, True).frame())

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """One control round trip; True when the provider answers."""
        self._control("ping")
        return True

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
