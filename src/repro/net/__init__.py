"""``repro.net`` -- the TCP serving layer of the outsourced database.

Until this subsystem existed, client (Alex) and provider (Eve) lived in one
process: :meth:`~repro.outsourcing.server.OutsourcedDatabaseServer.handle_message`
already spoke byte-level protocol frames, but nothing carried them across a
machine boundary.  ``repro.net`` is that missing transport, in three layers:

**Framing** (:mod:`repro.net.framing`)
    Length-prefixed frames over a byte stream, with a strict size ceiling
    and eager rejection of truncated, oversized or garbage input.  A
    one-byte channel tag multiplexes *envelope* frames (opaque protocol
    envelopes, exactly the bytes ``handle_message`` consumes -- every data,
    index and DDL operation of a session) and *control* frames (JSON: the
    hello handshake and the operator read-outs ``ping`` / ``stats`` /
    ``metrics`` / ``trace``) on one connection, and a
    4-byte **correlation id** pairs every response to its request so a
    connection is a pipeline: many requests in flight, answered in
    whatever order dispatch completes.  The decoder is sans-IO, shared by
    every endpoint.

**Provider side** (:mod:`repro.net.server`)
    :class:`~repro.net.server.DatabaseTcpServer`: an asyncio server hosting
    one :class:`~repro.outsourcing.server.OutsourcedDatabaseServer` for many
    concurrent connections.  Each connection starts with a hello exchange
    (there is no version to agree on: every envelope says in its version
    byte whether a trace id rides along); envelope dispatch is parallel
    across relations and FIFO within one
    (:class:`~repro.net.server.KeyedSerialDispatcher`), so a heavy scan of
    one relation blocks neither other connections' I/O nor other
    relations' requests; shutdown drains in-flight requests.
    Per-connection and aggregate stats (including the dispatch parallelism
    achieved) are kept, and ``repro serve`` (see :mod:`repro.cli`) runs the
    whole thing as a standalone process over any registered storage
    backend.

**Client side** (:mod:`repro.net.client` / :mod:`repro.net.aio`)
    One sans-IO protocol core (:mod:`repro.net.wire`) under two frontends
    whose ``handle_message`` is the one
    :class:`~repro.api.EncryptedDatabase` already sends every envelope
    through:
    :class:`~repro.net.client.RemoteServerProxy`, a blocking proxy with a
    bounded connection pool (``connect("tcp://host:port")``), and
    :class:`~repro.net.aio.AsyncRemoteServerProxy`, which multiplexes any
    number of in-flight requests over **one** pipelined asyncio connection
    (``connect("tcp://host:port?async=1")``).  Both retry a dead
    connection once with at-most-once semantics for the kinds in
    ``protocol.REPLAY_UNSAFE`` (inserts, drops and deletes).

Evaluator deployment ships no objects either: a ``REGISTER_EVALUATOR``
envelope carries the allowlisted public-parameter description of
:mod:`repro.outsourcing.evaluators` -- the provider reconstructs the keyless
code locally, and key material never has a representation on the wire.

Trust boundary: the transport moves exactly the bytes the in-process path
already produced.  Eve's view over TCP is Eve's view in-process plus
traffic metadata (frame sizes and timing), which the paper's model already
concedes to her.
"""

from repro.net.aio import (
    AsyncRemoteConnection,
    AsyncRemoteServerProxy,
    EventLoopThread,
)
from repro.net.client import (
    ConnectionLostError,
    ConnectionPool,
    RemoteConnection,
    RemoteError,
    RemoteProxyBase,
    RemoteServerProxy,
    parse_tcp_options,
    parse_tcp_url,
)
from repro.net.framing import (
    CHANNEL_CONTROL,
    CHANNEL_ENVELOPE,
    DEFAULT_MAX_FRAME_SIZE,
    FRAME_HEADER_SIZE,
    Frame,
    FrameDecoder,
    FramingError,
    OversizedFrameError,
    TruncatedFrameError,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.net.server import (
    ConnectionStats,
    DatabaseTcpServer,
    KeyedSerialDispatcher,
    TcpServerStats,
    ThreadedTcpServer,
)
from repro.net.wire import ClientChannel

__all__ = [
    "AsyncRemoteConnection",
    "AsyncRemoteServerProxy",
    "EventLoopThread",
    "ConnectionLostError",
    "ConnectionPool",
    "RemoteConnection",
    "RemoteError",
    "RemoteProxyBase",
    "RemoteServerProxy",
    "parse_tcp_options",
    "parse_tcp_url",
    "CHANNEL_CONTROL",
    "CHANNEL_ENVELOPE",
    "DEFAULT_MAX_FRAME_SIZE",
    "FRAME_HEADER_SIZE",
    "Frame",
    "FrameDecoder",
    "FramingError",
    "OversizedFrameError",
    "TruncatedFrameError",
    "encode_frame",
    "recv_frame",
    "send_frame",
    "ConnectionStats",
    "DatabaseTcpServer",
    "KeyedSerialDispatcher",
    "TcpServerStats",
    "ThreadedTcpServer",
    "ClientChannel",
]
