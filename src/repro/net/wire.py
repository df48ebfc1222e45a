"""Sans-IO client side of the framed transport.

The blocking :class:`~repro.net.client.RemoteConnection` and the asyncio
:class:`~repro.net.aio.AsyncRemoteConnection` speak exactly the same wire
protocol -- correlation-id allocation, request/response pairing, the hello
handshake, control-frame JSON -- and differ only in how bytes reach the
socket.  This module is the shared core: it owns every protocol decision
and performs no I/O, so both frontends are thin shims and the pipelining
semantics are tested once.

:class:`ClientChannel` is the heart of it.  ``send`` allocates a fresh
correlation id for an outgoing request and remembers the caller's opaque
*context* (the blocking client passes a sentinel, the asyncio client passes
the future awaiting the response); ``receive`` absorbs raw socket bytes and
yields ``(context, frame)`` pairs for every response that matches a pending
request.  A response whose correlation id matches nothing -- the reply to a
request the caller already cancelled, e.g. a scatter timeout -- is counted
in :attr:`ClientChannel.orphan_frames` and dropped: late answers from a
slow provider must never be delivered to the wrong caller.
"""

from __future__ import annotations

import json
from typing import Any

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
    """Correlated request/response multiplexing over one connection (sans-IO).

    The channel tracks every in-flight request by its correlation id.  It is
    not thread-safe by itself: the blocking client serializes access through
    its connection object, the asyncio client confines it to the event loop.
    """

    def __init__(self, max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
        self._max_frame_size = max_frame_size
        self._decoder = FrameDecoder(max_frame_size)
        self._next_correlation = 1
        self._pending: dict[int, Any] = {}
        self._orphans = 0
        self._fault: str | None = None

    @property
    def pending_count(self) -> int:
        """Requests sent but not yet answered (or cancelled)."""
        return len(self._pending)

    @property
    def orphan_frames(self) -> int:
        """Responses that arrived after their request was cancelled."""
        return self._orphans

    @property
    def fault(self) -> str | None:
        """A connection-fatal diagnostic the server broadcast before closing.

        The server answers byte-level violations it cannot attribute to a
        request (a frame that never decoded has no correlation id) with a
        control error on correlation 0 and then hangs up; frontends fold
        this text into the connection-failure error they raise, so the
        caller sees *why* the provider cut them off instead of a bare EOF.
        """
        return self._fault

    def send(
        self, payload: bytes, channel: int, context: Any = None
    ) -> tuple[int, bytes]:
        """Register one outgoing request; returns ``(correlation, wire bytes)``.

        ``context`` is handed back verbatim when the matching response
        arrives (or when the connection fails, via :meth:`fail_all`).
        """
        correlation = self._allocate_correlation()
        self._pending[correlation] = context
        wire = encode_frame(
            payload,
            channel=channel,
            correlation=correlation,
            max_frame_size=self._max_frame_size,
        )
        return correlation, wire

    def receive(self, data: bytes) -> list[tuple[Any, Frame]]:
        """Absorb socket bytes; returns the matched ``(context, frame)`` pairs.

        Raises :class:`~repro.net.framing.FramingError` on byte-level
        garbage.  Orphaned responses (no pending request under that
        correlation id) are counted and dropped.
        """
        matched = []
        for frame in self._decoder.feed(data):
            try:
                context = self._pending.pop(frame.correlation)
            except KeyError:
                if frame.correlation == 0 and frame.channel == CHANNEL_CONTROL:
                    # Unaddressed control frame: a transport-fatal
                    # diagnostic, not an orphaned answer.
                    try:
                        self._fault = control_error(decode_control_response(frame.payload))
                    except WireProtocolError:
                        self._fault = "unreadable provider fault"
                else:
                    self._orphans += 1
                continue
            matched.append((context, frame))
        return matched

    def cancel(self, correlation: int) -> Any:
        """Forget a pending request (its late response becomes an orphan)."""
        return self._pending.pop(correlation, None)

    def fail_all(self) -> list[Any]:
        """Connection died: pop and return every pending request's context."""
        contexts = list(self._pending.values())
        self._pending.clear()
        return contexts

    def _allocate_correlation(self) -> int:
        # Wrap at 32 bits, skipping ids still in flight (a pathological
        # 2**32 concurrent requests would spin here; real fleets top out at
        # a few hundred).
        while True:
            correlation = self._next_correlation
            self._next_correlation = (
                1 if correlation >= MAX_CORRELATION_ID else correlation + 1
            )
            if correlation not in self._pending:
                return correlation


# --------------------------------------------------------------------------- #
# Control-frame JSON, the hello included (shared by both frontends)
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

