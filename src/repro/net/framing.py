"""Length-prefixed framing of protocol envelopes on a byte stream.

TCP delivers a byte stream, the outsourcing protocol exchanges discrete
envelopes; this module is the (deliberately tiny) layer in between.  Each
frame is::

    +----------------+---------------+---------------------+----------------------+
    | length (4, BE) | channel (1 B) | correlation (4, BE) | payload (length-5 B) |
    +----------------+---------------+---------------------+----------------------+

where ``length`` counts the channel byte, the correlation id and the
payload.  The channel byte multiplexes two kinds of traffic over one
connection:

* :data:`CHANNEL_ENVELOPE` -- the payload is a protocol envelope exactly as
  :func:`repro.outsourcing.protocol.parse_message` consumes it (v2 or v3)
  -- every data, index and DDL operation; the transport never inspects it.
* :data:`CHANNEL_CONTROL` -- the payload is a JSON control message: the
  hello/version handshake and the operator read-outs (``ping``, ``stats``,
  ``metrics``, ``trace``).

The **correlation id** is what makes the connection pipelinable: a client
may keep many requests in flight, the server answers each in whatever order
dispatch completes, and every response frame echoes the correlation id of
the request it answers.  The id is transport-local (allocated per
connection, wrapping at 32 bits) and never reaches the protocol layer --
envelopes stay byte-identical to the in-process path.

Framing is strict by design: a frame announcing more than
``max_frame_size`` bytes kills the connection before any allocation happens
(a four-byte header must never make the provider reserve gigabytes), a
frame too short to carry its channel byte and correlation id is malformed,
and a stream that ends mid-frame raises :class:`TruncatedFrameError` so
callers can distinguish a clean EOF between frames from a peer dying
mid-send.

:class:`FrameDecoder` is sans-IO (fed bytes, yields frames) so the asyncio
server and the blocking client share one tested implementation.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

#: Bytes of the big-endian length prefix.
LENGTH_PREFIX_SIZE = 4

#: Bytes of the per-frame header inside the length-counted body:
#: the channel byte plus the 4-byte correlation id.
FRAME_HEADER_SIZE = 5

#: The correlation id is an unsigned 32-bit counter (wrapping).
MAX_CORRELATION_ID = 2**32 - 1

#: Default ceiling on ``channel byte + correlation id + payload``.  Generous
#: enough for a whole encrypted relation in one STORE_RELATION frame, or a
#: whole ``insert_many`` batch in one INSERT_TUPLES frame (neither is split:
#: a larger one fails whole), small enough that a hostile length prefix
#: cannot make the peer allocate without bound.
DEFAULT_MAX_FRAME_SIZE = 64 * 1024 * 1024

#: Channel tags (the byte after the length prefix).
CHANNEL_ENVELOPE = 0x00
CHANNEL_CONTROL = 0x01
KNOWN_CHANNELS = (CHANNEL_ENVELOPE, CHANNEL_CONTROL)

_LENGTH = struct.Struct(">I")
#: The channel byte and the correlation id after the length prefix.
_HEADER = struct.Struct(">BI")


class FramingError(Exception):
    """A frame violated the transport's byte-level rules."""


class OversizedFrameError(FramingError):
    """A length prefix announced more than the configured maximum."""


class TruncatedFrameError(FramingError):
    """The stream ended in the middle of a frame."""


@dataclass(frozen=True)
class Frame:
    """One decoded frame: its channel tag, opaque payload and correlation id."""

    channel: int
    payload: bytes
    correlation: int = 0


def encode_frame(
    payload: bytes,
    channel: int = CHANNEL_ENVELOPE,
    correlation: int = 0,
    max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
) -> bytes:
    """Wrap a payload into one wire frame."""
    if channel not in KNOWN_CHANNELS:
        raise FramingError(f"unknown frame channel {channel:#x}")
    if not 0 <= correlation <= MAX_CORRELATION_ID:
        raise FramingError(f"correlation id {correlation} does not fit 32 bits")
    body_size = FRAME_HEADER_SIZE + len(payload)
    if body_size > max_frame_size:
        raise OversizedFrameError(
            f"frame of {body_size} bytes exceeds the {max_frame_size}-byte limit"
        )
    return (
        body_size.to_bytes(LENGTH_PREFIX_SIZE, "big")
        + bytes([channel])
        + correlation.to_bytes(4, "big")
        + payload
    )


class FrameDecoder:
    """Incremental frame parser over an unbounded byte stream (sans-IO).

    Feed it whatever chunks the socket produces; it yields complete frames
    and buffers partial ones.  Errors are raised eagerly: an oversized or
    malformed length prefix fails at header time, before the body arrives.
    """

    def __init__(self, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
        self._max_frame_size = max_frame_size
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list[Frame]:
        """Absorb a chunk and return every frame it completes.

        A payload is copied once, straight out of the chunk it arrived in;
        only an unfinished tail is buffered, and a frame completed from the
        buffer is copied once out of it.
        """
        buffer = self._buffer
        if buffer:
            buffer.extend(data)
            data = buffer
        frames: list[Frame] = []
        with memoryview(data) as view:
            offset = self._cut(view, frames)
            if data is not buffer:
                buffer.extend(view[offset:])
        if data is buffer:
            del buffer[:offset]
        return frames

    def finish(self) -> None:
        """Signal EOF; raises if the stream died inside a frame."""
        if self._buffer:
            raise TruncatedFrameError(
                f"stream ended with {len(self._buffer)} bytes of an unfinished frame"
            )

    def _cut(self, view: memoryview, frames: list[Frame]) -> int:
        """Append every complete frame of ``view``; returns the bytes consumed."""
        offset, end = 0, len(view)
        while end - offset >= LENGTH_PREFIX_SIZE:
            (body_size,) = _LENGTH.unpack_from(view, offset)
            if body_size > self._max_frame_size:
                raise OversizedFrameError(
                    f"frame of {body_size} bytes exceeds the "
                    f"{self._max_frame_size}-byte limit"
                )
            if body_size < FRAME_HEADER_SIZE:
                raise FramingError(
                    f"frame body of {body_size} byte(s) cannot carry the "
                    f"{FRAME_HEADER_SIZE}-byte channel/correlation header"
                )
            stop = offset + LENGTH_PREFIX_SIZE + body_size
            if stop > end:
                break
            channel, correlation = _HEADER.unpack_from(view, offset + LENGTH_PREFIX_SIZE)
            if channel not in KNOWN_CHANNELS:
                raise FramingError(f"unknown frame channel {channel:#x}")
            payload = view[offset + LENGTH_PREFIX_SIZE + FRAME_HEADER_SIZE: stop].tobytes()
            frames.append(Frame(channel, payload, correlation))
            offset = stop
        return offset


# --------------------------------------------------------------------------- #
# Blocking-socket helpers (tests and simple tooling)
# --------------------------------------------------------------------------- #

def send_frame(
    sock,
    payload: bytes,
    channel: int = CHANNEL_ENVELOPE,
    correlation: int = 0,
    max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
) -> None:
    """Send one frame over a connected blocking socket."""
    sock.sendall(
        encode_frame(
            payload,
            channel=channel,
            correlation=correlation,
            max_frame_size=max_frame_size,
        )
    )


def recv_frame(sock, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> Frame | None:
    """Read exactly one frame from a blocking socket.

    Returns ``None`` on a clean EOF *between* frames; raises
    :class:`TruncatedFrameError` when the peer disappears mid-frame.
    """
    header = _recv_exactly(sock, LENGTH_PREFIX_SIZE, eof_ok=True)
    if header is None:
        return None
    body_size = int.from_bytes(header, "big")
    if body_size > max_frame_size:
        raise OversizedFrameError(
            f"frame of {body_size} bytes exceeds the {max_frame_size}-byte limit"
        )
    if body_size < FRAME_HEADER_SIZE:
        raise FramingError(
            f"frame body of {body_size} byte(s) cannot carry the "
            f"{FRAME_HEADER_SIZE}-byte channel/correlation header"
        )
    body = _recv_exactly(sock, body_size, eof_ok=False)
    channel = body[0]
    if channel not in KNOWN_CHANNELS:
        raise FramingError(f"unknown frame channel {channel:#x}")
    return Frame(
        channel=channel,
        payload=bytes(body[FRAME_HEADER_SIZE:]),
        correlation=int.from_bytes(body[1:FRAME_HEADER_SIZE], "big"),
    )


def _recv_exactly(sock, size: int, eof_ok: bool) -> bytes | None:
    chunks = bytearray()
    while len(chunks) < size:
        chunk = sock.recv(size - len(chunks))
        if not chunk:
            if eof_ok and not chunks:
                return None
            raise TruncatedFrameError(
                f"peer closed the connection {len(chunks)}/{size} bytes into a frame"
            )
        chunks.extend(chunk)
    return bytes(chunks)
