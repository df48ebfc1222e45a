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
    4-byte **correlation id** pairs every response with its request.  The
    decoder is sans-IO, shared by every endpoint.

**Provider side** (:mod:`repro.net.server`)
    :class:`~repro.net.server.DatabaseTcpServer`: a blocking server hosting
    one :class:`~repro.outsourcing.server.OutsourcedDatabaseServer` for many
    concurrent connections, each served serially on a thread of its own:
    one frame, one dispatch, one answer, in arrival order.  Each connection
    starts with a hello exchange (there is no version to agree on: every
    envelope says in its version byte whether a trace id rides along); an
    envelope goes verbatim to the provider's ``handle_message``, which runs
    it under its relation's lock, so requests for one relation never
    overlap while a heavy scan of one relation blocks neither other
    connections nor other relations; shutdown lets a busy connection finish
    its request.  Per-connection and aggregate stats are kept, and
    ``repro serve`` (see :mod:`repro.cli`) runs the whole thing as a
    standalone process over any registered storage backend.

**Client side** (:mod:`repro.net.client`, over the sans-IO :mod:`repro.net.wire`)
    :class:`~repro.net.client.RemoteServerProxy`, whose ``handle_message``
    is the one :class:`~repro.api.EncryptedDatabase` already sends every
    envelope through (``connect("tcp://host:port")``): a bounded pool of
    blocking connections, one request in flight on each, so concurrent
    callers each get their own.  ``timeout`` bounds each whole round trip.
    A dead connection is retried once, with at-most-once semantics for the
    kinds in ``protocol.REPLAY_UNSAFE`` (inserts, drops and deletes).  The
    ``async`` URL key is still read and has no effect.

Evaluator deployment ships no objects either: a ``REGISTER_EVALUATOR``
envelope carries the allowlisted public-parameter description of
:mod:`repro.outsourcing.evaluators` -- the provider reconstructs the keyless
code locally, and key material never has a representation on the wire.

Trust boundary: the transport moves exactly the bytes the in-process path
already produced.  Eve's view over TCP is Eve's view in-process plus
traffic metadata (frame sizes and timing), which the paper's model already
concedes to her.
"""

from repro.net.client import (
    ConnectionLostError,
    ConnectionPool,
    RemoteConnection,
    RemoteError,
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
    ThreadedTcpServer,
    throughput_summary,
)
from repro.net.wire import ClientChannel

__all__ = [
    "ConnectionLostError",
    "ConnectionPool",
    "RemoteConnection",
    "RemoteError",
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
    "ThreadedTcpServer",
    "throughput_summary",
    "ClientChannel",
]
