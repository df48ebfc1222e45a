"""Sans-IO client side of the framed transport.

:class:`ClientChannel` owns every protocol decision of a client connection
-- correlation-id allocation, request/response pairing, the provider's
connection-fatal diagnostic -- and performs no I/O, so the blocking
:class:`~repro.net.client.RemoteConnection` only moves bytes and the
pairing rules are tested without a socket.  A connection has one request
in flight: ``send`` allocates the next correlation id and waits for it
alone; ``receive`` absorbs raw socket bytes and returns the response frame
carrying that id.  A response with any other correlation id is dropped: a
late answer must never be delivered to the wrong caller.
"""

from __future__ import annotations

import json
from repro.net.framing import (
    CHANNEL_CONTROL,
    DEFAULT_MAX_FRAME_SIZE,
    Frame,
    FrameDecoder,
    FramingError,
    MAX_CORRELATION_ID,
    encode_frame,
)


class WireProtocolError(FramingError):
    """The peer sent bytes that violate the client-side channel rules."""


class ClientChannel:
    """One request at a time over one connection, paired by correlation id (sans-IO).

    The channel remembers the correlation id of the request it last sent
    until that request is answered.  It is not thread-safe by itself: the
    blocking client serializes access through its connection object.
    """

    def __init__(self, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
        self._max_frame_size = max_frame_size
        self._decoder = FrameDecoder(max_frame_size)
        self._next_correlation = 1
        #: The correlation id of the unanswered request, if any.
        self._awaiting: int | None = None
        self._fault: str | None = None

    @property
    def fault(self) -> str | None:
        """A connection-fatal diagnostic the server broadcast before closing.

        The server answers byte-level violations it cannot attribute to a
        request (a frame that never decoded has no correlation id) with a
        control error on correlation 0 and then hangs up; the connection
        folds this text into the connection-failure error it raises, so the
        caller sees *why* the provider cut them off instead of a bare EOF.
        """
        return self._fault

    def send(self, payload: bytes, channel: int) -> tuple[int, bytes]:
        """Frame the next request and await its answer alone; returns
        ``(correlation, wire bytes)``.  Ids count up from 1 and wrap at 32
        bits."""
        correlation = self._next_correlation
        self._next_correlation = 1 if correlation >= MAX_CORRELATION_ID else correlation + 1
        self._awaiting = correlation
        wire = encode_frame(
            payload,
            channel=channel,
            correlation=correlation,
            max_frame_size=self._max_frame_size,
        )
        return correlation, wire

    def receive(self, data: bytes) -> list[Frame]:
        """Absorb socket bytes; returns the frame answering the awaited
        request, once it is complete (an empty list until then).

        Raises :class:`~repro.net.framing.FramingError` on byte-level
        garbage.  Orphaned responses (any other correlation id, or a second
        answer to the same request) are dropped.
        """
        matched = []
        for frame in self._decoder.feed(data):
            if frame.correlation == self._awaiting:
                self._awaiting = None
                matched.append(frame)
            elif frame.correlation == 0 and frame.channel == CHANNEL_CONTROL:
                # Unaddressed control frame: a transport-fatal diagnostic,
                # not an orphaned answer.
                try:
                    self._fault = control_error(decode_control_response(frame.payload))
                except WireProtocolError:
                    self._fault = "unreadable provider fault"
        return matched


# --------------------------------------------------------------------------- #
# Control-frame JSON, the hello included
# --------------------------------------------------------------------------- #

def encode_control_request(op: str, **fields) -> bytes:
    """Serialize one control-channel request."""
    return json.dumps({"op": op, **fields}).encode("utf-8")


def decode_control_response(payload: bytes) -> dict:
    """Parse a control-channel response object.

    Raises :class:`WireProtocolError` on payloads that are not one JSON
    object -- nesting deeper than the parser's recursion limit included;
    protocol-level failures (``ok: false``) are returned, not raised --
    whether they are errors is the caller's business.
    """
    try:
        response = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise WireProtocolError(f"malformed control response: {exc}") from exc
    if not isinstance(response, dict):
        raise WireProtocolError("malformed control response: not an object")
    return response


def control_error(response: dict) -> str:
    """The error text of a failed (``ok: false``) control response."""
    return str(response.get("error", "unspecified provider error"))

