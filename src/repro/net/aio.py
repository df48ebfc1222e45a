"""Pipelined asyncio client of the TCP transport.

The blocking :class:`~repro.net.client.RemoteServerProxy` admits one
request per pooled connection; at fleet scale that model burns a thread
and a full TCP round trip per in-flight request.  This module is the
other frontend over the same sans-IO core
(:class:`~repro.net.wire.ClientChannel`):
:class:`AsyncRemoteServerProxy` multiplexes *many* in-flight requests over
**one** connection -- each tagged with a correlation id, answered by the
provider in whatever order dispatch completes -- driven by a single event
loop instead of a thread per call.

The proxy serves two worlds at once:

* **Synchronous callers** get ``handle_message`` and the operator
  read-outs (inherited from :class:`~repro.net.client.RemoteProxyBase`, so
  the sync surface is byte-for-byte the blocking proxy's).  Each call posts
  a coroutine to the proxy's :class:`EventLoopThread` and blocks for its
  own result only -- N threads calling concurrently become N requests
  pipelined on one socket.
* **Coroutines on the proxy's loop** call the ``*_async`` surface directly
  and keep many round trips in flight from one thread.

Failure semantics mirror the blocking proxy exactly: a call that hits a
dead connection is retried once on a fresh one, but a kind in
:data:`~repro.outsourcing.protocol.REPLAY_UNSAFE` (insert, delete, drop)
is retried only when its request never reached the wire
(at-most-once).  When a multiplexed connection dies, every in-flight
request fails with ``request_delivered=True`` -- the provider may have
processed any of them -- and each caller applies that same rule
individually.  A request cancelled mid-flight (a timeout) orphans
its correlation id: the connection stays healthy and the provider's late
answer is counted and dropped, never delivered to the wrong caller.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
import time

from repro.net import wire
from repro.net.client import (
    ConnectionLostError,
    RemoteError,
    RemoteProxyBase,
    parse_tcp_options,
)
from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    Frame,
    FramingError,
)
from repro.obs import current_trace
from repro.outsourcing import protocol


class EventLoopThread:
    """A dedicated asyncio event loop on a daemon thread.

    Each async proxy opened from blocking code owns one and drives its
    connection from it.
    """

    def __init__(self) -> None:
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The running loop; only valid between :meth:`start` and :meth:`stop`."""
        if self._loop is None:
            raise RuntimeError("the event loop thread is not running")
        return self._loop

    def is_current(self) -> bool:
        """True when called from the loop thread itself."""
        return self._thread is not None and threading.current_thread() is self._thread

    def start(self) -> "EventLoopThread":
        """Start the loop thread (idempotent)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run, name="repro-aio", daemon=True)
        self._thread.start()
        self._started.wait()
        return self

    def run(self, coroutine, timeout: float | None = None):
        """Run a coroutine on the loop and block for its result.

        Must not be called from the loop thread itself (that would block
        the loop waiting on itself); use ``await`` there instead.
        """
        if self.is_current():
            raise RuntimeError(
                "EventLoopThread.run called from the loop thread; await the "
                "coroutine instead"
            )
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(timeout)

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        self._loop = None
        self._thread = None
        self._started.clear()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10.0)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __enter__(self) -> "EventLoopThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class AsyncRemoteConnection:
    """One pipelined framed connection, confined to its event loop.

    Any number of :meth:`request` coroutines may be in flight at once; a
    background reader task pairs incoming frames to their awaiting futures
    through the shared sans-IO :class:`~repro.net.wire.ClientChannel`.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        max_frame_size: int,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._channel = wire.ClientChannel(max_frame_size)
        self._failed: BaseException | None = None
        self._closed = False
        self._reader_task: asyncio.Task | None = None

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
    ) -> "AsyncRemoteConnection":
        """Connect, start the reader, and perform the hello handshake."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ConnectionLostError(
                f"cannot connect to provider at {host}:{port}: {exc}"
            ) from exc
        raw_socket = writer.get_extra_info("socket")
        if raw_socket is not None:
            with contextlib.suppress(OSError):
                raw_socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        connection = cls(reader, writer, max_frame_size)
        connection._reader_task = asyncio.ensure_future(connection._read_loop())
        try:
            frame = await asyncio.wait_for(
                connection.request(
                    wire.encode_control_request("hello"), CHANNEL_CONTROL
                ),
                timeout,
            )
            response = wire.decode_control_response(frame.payload)
            if not response.get("ok"):
                raise RemoteError(wire.control_error(response))
        except asyncio.TimeoutError as exc:
            await connection.close()
            raise ConnectionLostError(
                f"provider at {host}:{port} did not answer the hello"
            ) from exc
        except (wire.WireProtocolError, FramingError) as exc:
            await connection.close()
            raise RemoteError(str(exc)) from exc
        except BaseException:
            await connection.close()
            raise
        return connection

    @property
    def healthy(self) -> bool:
        """True while the connection can carry new requests."""
        return self._failed is None and not self._closed

    @property
    def in_flight(self) -> int:
        """Requests awaiting their response right now."""
        return self._channel.pending_count

    @property
    def orphan_frames(self) -> int:
        """Late responses to cancelled requests, counted and dropped."""
        return self._channel.orphan_frames

    async def request(self, payload: bytes, channel: int) -> Frame:
        """One correlated round trip; any number may be in flight at once."""
        if self._closed:
            raise ConnectionLostError("the connection is closed")
        if self._failed is not None:
            raise ConnectionLostError(
                f"the connection already failed: {self._failed}"
            )
        future = asyncio.get_running_loop().create_future()
        correlation, wire_bytes = self._channel.send(payload, channel, context=future)
        delivered = False
        try:
            self._writer.write(wire_bytes)
            # Handed to the transport: the provider may observe it even if
            # drain() fails, so at-most-once must assume delivery from here.
            delivered = True
            await self._writer.drain()
        except (OSError, ConnectionError) as exc:
            self._channel.cancel(correlation)
            self._fail(exc)
            raise ConnectionLostError(
                f"provider connection failed: {exc}", request_delivered=delivered
            ) from exc
        try:
            return await future
        except asyncio.CancelledError:
            # Caller gave up (a timeout): orphan the correlation id so
            # the provider's late answer is dropped, not misdelivered.
            self._channel.cancel(correlation)
            raise

    async def close(self) -> None:
        """Tear the connection down; in-flight requests fail as undeliverable."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reader_task
        self._fail_pending(ConnectionLostError("the connection is closed",
                                               request_delivered=True))
        self._writer.close()
        with contextlib.suppress(Exception):
            await self._writer.wait_closed()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    async def _read_loop(self) -> None:
        try:
            while True:
                chunk = await self._reader.read(65536)
                if not chunk:
                    self._fail(ConnectionError(
                        "provider closed the connection"
                        if self._channel.fault is None
                        else f"provider closed the connection: {self._channel.fault}"
                    ))
                    return
                for future, frame in self._channel.receive(chunk):
                    if future is not None and not future.done():
                        future.set_result(frame)
                if self._channel.fault is not None:
                    # The server broadcast a connection-fatal diagnostic
                    # (correlation 0) and is about to hang up: fail every
                    # in-flight request with the reason, not a bare EOF.
                    self._fail(ConnectionError(self._channel.fault))
                    return
        except (OSError, ConnectionError, FramingError) as exc:
            self._fail(exc)

    def _fail(self, exc: BaseException) -> None:
        if self._failed is not None or self._closed:
            return
        self._failed = exc
        self._fail_pending(
            ConnectionLostError(
                f"provider connection failed: {exc}", request_delivered=True
            )
        )
        self._writer.close()

    def _fail_pending(self, error: ConnectionLostError) -> None:
        for future in self._channel.fail_all():
            if future is not None and not future.done():
                future.set_exception(error)


class AsyncRemoteServerProxy(RemoteProxyBase):
    """A remote provider behind one pipelined asyncio connection.

    Drop-in for :class:`~repro.net.client.RemoteServerProxy` (same sync
    duck-type, same constructor shape minus ``pool_size``), plus the
    ``*_async`` surface for callers that live on the event loop.  Opened
    by ``EncryptedDatabase.connect`` for ``tcp://host:port?async=1`` URLs.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float | None = 30.0,
        max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
    ) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_frame_size = max_frame_size
        self._loop_thread = EventLoopThread().start()
        self._conn: AsyncRemoteConnection | None = None
        self._conn_lock: asyncio.Lock | None = None
        self._closed = False
        try:
            self._loop_thread.run(self._async_setup())
        except BaseException:
            self._loop_thread.stop()
            raise

    @classmethod
    def connect(cls, url: str, **kwargs) -> "AsyncRemoteServerProxy":
        """Open a proxy from a ``tcp://host:port[?async=1]`` URL."""
        host, port, _ = parse_tcp_options(url)  # the async option selects this class
        return cls(host, port, **kwargs)

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> tuple[str, int]:
        """The provider's ``(host, port)``."""
        return self._host, self._port

    @property
    def loop_thread(self) -> EventLoopThread:
        """The event loop driving this proxy's connection."""
        return self._loop_thread

    @property
    def orphan_frames(self) -> int:
        """Late responses dropped after request cancellation (diagnostics)."""
        connection = self._conn
        return connection.orphan_frames if connection is not None else 0

    def close(self) -> None:
        """Close the connection and stop the loop thread."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(Exception):
            self._loop_thread.run(self._async_close(), timeout=10.0)
        self._loop_thread.stop()

    async def _async_setup(self) -> None:
        self._conn_lock = asyncio.Lock()
        self._conn = await self._open_connection()

    async def _open_connection(self) -> AsyncRemoteConnection:
        return await AsyncRemoteConnection.open(
            self._host,
            self._port,
            timeout=self._timeout,
            max_frame_size=self._max_frame_size,
        )

    async def _async_close(self) -> None:
        async with self._conn_lock:
            if self._conn is not None:
                await self._conn.close()
                self._conn = None

    async def _connection(
        self, *, replacing: AsyncRemoteConnection | None = None
    ) -> AsyncRemoteConnection:
        """The live connection, reconnecting (once, under the lock) if dead.

        Concurrent requests failing together race here; the lock makes the
        first one reconnect and the rest adopt the replacement.
        """
        async with self._conn_lock:
            if self._closed:
                raise RemoteError("the proxy is closed")
            if replacing is not None and self._conn is replacing:
                await self._conn.close()
                self._conn = None
            if self._conn is not None and not self._conn.healthy:
                await self._conn.close()
                self._conn = None
            if self._conn is None:
                self._conn = await self._open_connection()
            return self._conn

    # ------------------------------------------------------------------ #
    # The async call surface
    # ------------------------------------------------------------------ #

    async def call_envelope_async(
        self, raw: bytes, idempotent: bool = True, trace_id: bytes | None = None
    ) -> bytes:
        """Ship one envelope over the pipelined connection.

        A ``trace_id`` is attached (rewriting the envelope to the traced
        layout).  Coroutines cannot rely on the ambient trace -- the caller
        captured it on its own thread -- so the id arrives here as an
        explicit argument.
        """
        if trace_id is not None:
            raw = protocol.attach_trace(raw, trace_id)
        frame = await self._acall(raw, CHANNEL_ENVELOPE, idempotent)
        if frame.channel == CHANNEL_CONTROL:
            # The server only answers an envelope with a control frame to
            # report a fatal transport-level failure before closing.
            try:
                error = wire.control_error(wire.decode_control_response(frame.payload))
            except wire.WireProtocolError:
                error = "unreadable provider error"
            raise RemoteError(error)
        return frame.payload

    async def call_control_async(self, op: str, **fields) -> dict:
        """Run one operator read-out over the pipelined connection."""
        frame = await self._acall(
            wire.encode_control_request(op, **fields), CHANNEL_CONTROL, True
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

    async def _acall(self, payload: bytes, channel: int, idempotent: bool) -> Frame:
        """One request with the shared retry contract: retry a dead
        connection once, and never replay a non-idempotent request that may
        have reached the provider."""
        connection = await self._connection()
        try:
            return await self._bounded(connection.request(payload, channel))
        except ConnectionLostError as exc:
            if exc.request_delivered and not idempotent:
                raise
            connection = await self._connection(replacing=connection)
            return await self._bounded(connection.request(payload, channel))

    async def _bounded(self, awaitable):
        if self._timeout is None:
            return await awaitable
        try:
            return await asyncio.wait_for(awaitable, self._timeout)
        except asyncio.TimeoutError as exc:
            # The connection is healthy, the provider just has not answered
            # this request; its eventual response is orphaned, not misrouted.
            raise RemoteError(
                f"provider did not answer within {self._timeout}s"
            ) from exc

    # ------------------------------------------------------------------ #
    # Transport primitives for the inherited sync duck-type
    # ------------------------------------------------------------------ #

    def _transport_envelope(self, raw: bytes, idempotent: bool) -> bytes:
        # The ambient trace is captured *here*, on the caller's thread --
        # the coroutine runs on the loop thread where the contextvar is
        # unset -- and the span is recorded into the captured Trace object
        # (which is thread-safe) once the round trip completes.
        trace = current_trace()
        trace_id = trace.trace_id if trace is not None else None
        started = time.time()
        mono = time.monotonic()
        try:
            return self._loop_thread.run(
                self.call_envelope_async(raw, idempotent, trace_id=trace_id)
            )
        finally:
            if trace is not None:
                trace.record(
                    "proxy.request",
                    started,
                    time.monotonic() - mono,
                    transport="tcp-async",
                    host=self._host,
                    port=self._port,
                )

    def _control(self, op: str, **fields) -> dict:
        return self._loop_thread.run(self.call_control_async(op, **fields))
