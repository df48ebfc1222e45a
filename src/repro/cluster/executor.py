"""Scatter-gather across a shard fleet, in the caller's thread.

:func:`scatter` fans one operation out to many shards and gathers one
:class:`ShardOutcome` per shard, without a thread of its own.  A
``tcp://`` shard (anything with a ``send_message`` that returns a pending
reply, as :class:`~repro.net.client.RemoteServerProxy` does) splits its
round trip in two: every such shard's envelope goes out first, in the
fleet's order, so the remote providers work at the same time; then each
in-process shard is called inline; then the remote answers are read one
after another, in scatter order.  Sending in one fixed order means
concurrent scatters take shard connections in one order and cannot
deadlock on the connection pools.

The scatter only gathers outcomes; it never decides what a failure
means.  :class:`~repro.cluster.router.ShardRouter` fails a read over to
surviving replicas when the ring proves their answers complete and raises
:class:`ShardFailedError` (carrying every outcome for diagnosis) on any
other failure, so an answer is either complete or an error.

A per-shard ``timeout`` bounds how long the gather waits for each remote
shard's answer: every shard gets the *full* budget from the moment the
gather turns to it (it is not a shared deadline burned from scatter
start, so a slow-but-within-budget shard is never misreported as timed
out just because an earlier shard used up the wall clock).  A shard that
exceeds its budget is reported as failed with :class:`ShardTimeoutError`,
and its connection is closed, so its late answer can never reach another
request.  The worst-case wall clock of one gather is therefore
``len(calls) * timeout``, not ``timeout``.  An in-process shard is a plain
call: it is not overlapped with the others, and ``timeout`` does not
bound it (Python offers no safe preemption).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from repro.outsourcing.server import ServerError

class ClusterError(ServerError):
    """A cluster operation failed (subclasses the provider error, so the
    session facade's error translation applies unchanged)."""


class ShardTimeoutError(ClusterError):
    """One shard did not answer within the per-shard timeout."""


class ShardFailedError(ClusterError):
    """One or more shards failed a scatter; ``outcomes`` has the full picture."""

    def __init__(self, message: str, outcomes: Sequence["ShardOutcome"]) -> None:
        super().__init__(message)
        self.outcomes = tuple(outcomes)

    @property
    def failed_shard_ids(self) -> tuple[str, ...]:
        return tuple(o.shard_id for o in self.outcomes if not o.ok)


@dataclass
class ShardOutcome:
    """What one shard returned (or why it did not)."""

    shard_id: str
    value: Any = None
    error: Exception | None = None
    elapsed_s: float = 0.0
    #: Wall-clock instant the shard's request started (its send, for a
    #: remote shard); what per-shard trace spans are anchored to.
    started_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ShardRequest:
    """One envelope bound for one shard, plus the step applied to its answer.

    ``step`` is a plain function over the shard's response bytes: it
    returns the checked answer or raises.
    """

    envelope: bytes
    step: Callable[[bytes], Any]

    def __call__(self, server: Any) -> Any:
        """One ``handle_message`` on the shard's server, checked by ``step``."""
        return self.step(server.handle_message(self.envelope))


def scatter(
    calls: Sequence[tuple[str, Any, ShardRequest]], timeout: float | None = None
) -> list[ShardOutcome]:
    """Run every ``(shard_id, server, request)``; never raises itself.

    Outcomes come back in ``calls``' order, which should be the fleet's
    (see the module docstring for the three steps and the budget).
    """
    outcomes: list[Any] = [None] * len(calls)
    inline, sent = [], []
    for index, (shard_id, server, request) in enumerate(calls):
        send = getattr(server, "send_message", None)
        if send is None:
            inline.append(index)
            continue
        started = time.time(), time.monotonic()
        outcomes[index] = sending = _run(shard_id, partial(send, request.envelope), *started)
        if sending.ok:
            sent.append((index, started, sending.value))
    try:
        for index in inline:
            shard_id, server, request = calls[index]
            outcomes[index] = _run(
                shard_id, partial(request, server), time.time(), time.monotonic()
            )
        while sent:
            index, started, reply = sent.pop(0)
            shard_id, _, request = calls[index]
            outcomes[index] = _run(
                shard_id, partial(_answer, shard_id, reply, request, timeout), *started
            )
    finally:
        for _, _, reply in sent:  # only when something escaped: free the slots
            reply.abandon()
    return outcomes


def _run(shard_id: str, work: Callable[[], Any], started_wall: float, started: float):
    """``work()`` as one shard's outcome, timed from ``started``."""
    try:
        value = work()
    except Exception as exc:  # noqa: BLE001 - per-shard failures are data
        return ShardOutcome(
            shard_id,
            error=exc,
            elapsed_s=time.monotonic() - started,
            started_s=started_wall,
        )
    return ShardOutcome(
        shard_id, value=value, elapsed_s=time.monotonic() - started, started_s=started_wall
    )


def _answer(shard_id: str, reply: Any, request: ShardRequest, timeout: float | None) -> Any:
    """One sent leg's checked answer; a missed budget, typed."""
    try:
        response = reply.receive(timeout)
    except Exception as exc:
        # A reply exists, so repro.net is already loaded: no import cost.
        from repro.net.client import ReplyOverdueError

        if isinstance(exc, ReplyOverdueError):
            raise ShardTimeoutError(
                f"shard {shard_id!r} did not answer within its {timeout}s budget"
            ) from None
        raise
    return request.step(response)
