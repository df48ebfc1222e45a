"""Scatter-gather execution across a shard fleet.

:class:`ScatterGatherExecutor` fans one operation out to many shards on a
thread pool and gathers per-shard :class:`ShardOutcome`\\ s.  Threads (not a
process pool) are the right tool here: an in-process shard is GIL-bound
anyway, and a ``tcp://`` shard spends its time blocked on the socket while
the remote provider does the work -- which is exactly where the near-linear
scaling of the sharded deployment comes from.

Failure handling is a *policy*, not hard-coded:

* :data:`FAIL_FAST` -- any shard failure fails the whole operation
  (:class:`ShardFailedError` carries every outcome for diagnosis).  Always
  used for writes: a partially applied write is corruption.
* :data:`DEGRADED` -- a read that loses some shards still answers from the
  survivors; the caller is told which shards were missing so it can surface
  the result as partial.  At least one shard must answer.

A per-shard ``timeout`` bounds how long the gather waits for each shard:
every shard gets the *full* budget over its own wait window (it is not a
shared deadline burned from scatter start, so a slow-but-within-budget
shard is never misreported as timed out just because an earlier shard used
up the wall clock).  A shard that exceeds its budget is reported as failed
with :class:`ShardTimeoutError` (the worker thread is left to finish in
the background -- Python offers no safe preemption -- but its result is
discarded).  The worst-case wall clock of one gather is therefore
``len(calls) * timeout``, not ``timeout``.  One caveat survives: when
*every* worker is occupied by hung thunks (pool saturation across
concurrent gathers), a queued call can exhaust its budget before a worker
ever picks it up and is then reported as timed out without having run;
:class:`~repro.cluster.router.ShardRouter` sizes its pool at 4x the shard
count to keep that out of the single-gather path.

The **event-loop scatter** (:func:`scatter_async`, run on an
:class:`~repro.net.aio.EventLoopThread`) is the pipelined alternative:
when every shard sits behind an asyncio proxy
(:class:`~repro.net.aio.AsyncRemoteServerProxy`), one coordinator thread
drives *all* shard round trips concurrently as coroutines -- no thread per
shard, every shard's timeout ticking simultaneously, so the worst-case
wall clock of one gather is ``timeout``, not ``len(calls) * timeout``.  A
shard that exceeds its budget has its in-flight request *cancelled*
(:func:`asyncio.wait_for`), which orphans the correlation id on the
pipelined connection: the connection survives, the provider's late answer
is dropped.  Outcome semantics (per-shard :class:`ShardOutcome`, policy
resolution) are identical to the thread-pool path, so the router's
failover and dedup logic is transport-agnostic.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs import current_trace, use_trace
from repro.outsourcing.server import ServerError

#: Any shard failure fails the operation.
FAIL_FAST = "fail_fast"
#: Serve reads from the surviving shards and flag the result as partial.
DEGRADED = "degraded"

PARTIAL_FAILURE_POLICIES = (FAIL_FAST, DEGRADED)


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
    #: Wall-clock instant the shard's thunk started (or the gather began
    #: waiting on it); what per-shard trace spans are anchored to.
    started_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class GatherResult:
    """A policy-resolved scatter: the surviving values, in scatter order."""

    values: tuple[Any, ...]
    #: Shards that failed but were tolerated by the DEGRADED policy.
    missing_shard_ids: tuple[str, ...] = ()
    outcomes: tuple[ShardOutcome, ...] = field(default=())

    @property
    def degraded(self) -> bool:
        return bool(self.missing_shard_ids)


@dataclass(frozen=True)
class ShardRequest:
    """One envelope bound for one shard, plus the step applied to its answer.

    ``step`` is a plain function over the shard's response bytes: it
    returns the checked answer or raises.  Keeping the step free of I/O is
    what lets the two drivers below -- one per transport -- stay one line
    each and share every rule about what an answer means.
    """

    envelope: bytes
    step: Callable[[bytes], Any]

    def __call__(self, server: Any) -> Any:
        """Blocking driver: one ``handle_message``."""
        return self.step(server.handle_message(self.envelope))

    async def pipelined(self, server: Any, trace_id: bytes | None) -> Any:
        """Event-loop driver over a pipelined proxy.

        ``trace_id`` is captured by the caller on the session thread: this
        coroutine runs on the loop thread, where the ambient trace
        contextvar is unset.
        """
        return self.step(
            await server.handle_message_async(self.envelope, trace_id=trace_id)
        )


class ScatterGatherExecutor:
    """A bounded thread pool that scatters callables across shards."""

    def __init__(self, max_workers: int = 8, timeout: float | None = None) -> None:
        if max_workers < 1:
            raise ValueError("the executor needs at least one worker")
        self._timeout = timeout
        self._max_workers = max_workers
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-cluster"
        )

    @property
    def timeout(self) -> float | None:
        """Per-shard gather timeout in seconds (None waits forever)."""
        return self._timeout

    @property
    def max_workers(self) -> int:
        """Size of the scatter thread pool."""
        return self._max_workers

    def close(self) -> None:
        """Shut the pool down (outstanding work is still drained)."""
        self._pool.shutdown(wait=False)

    def scatter(
        self,
        calls: Sequence[tuple[str, Callable[[], Any]]],
        timeout: float | None = None,
    ) -> list[ShardOutcome]:
        """Run every ``(shard_id, thunk)`` concurrently; never raises itself.

        Each shard is granted the full ``timeout`` over its own wait window:
        the deadline restarts when the gather turns to that shard's future,
        so a shard queued behind a slow sibling keeps its whole budget
        instead of inheriting a deadline another shard already burned.
        (If the pool stays saturated for the entire window the queued thunk
        may still never run -- see the module docstring.)
        """
        if timeout is None:
            timeout = self._timeout
        # Capture the caller's ambient trace here: the thunks run on pool
        # threads where the contextvar is unset, so _timed re-binds it.
        trace = current_trace()
        futures = [
            (shard_id, self._pool.submit(self._timed, trace, thunk))
            for shard_id, thunk in calls
        ]
        outcomes = []
        for shard_id, future in futures:
            wait_started = time.monotonic()
            wait_started_wall = time.time()
            try:
                value, elapsed, started_wall = future.result(timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - per-shard failures are data
                outcomes.append(
                    ShardOutcome(
                        shard_id=shard_id,
                        error=_shard_error(shard_id, exc, FutureTimeoutError, timeout),
                        elapsed_s=time.monotonic() - wait_started,
                        started_s=wait_started_wall,
                    )
                )
            else:
                outcomes.append(
                    ShardOutcome(
                        shard_id=shard_id,
                        value=value,
                        elapsed_s=elapsed,
                        started_s=started_wall,
                    )
                )
        return outcomes

    def gather(
        self,
        operation: str,
        calls: Sequence[tuple[str, Callable[[], Any]]],
        *,
        policy: str = FAIL_FAST,
        timeout: float | None = None,
    ) -> GatherResult:
        """Scatter, then resolve the outcomes under a partial-failure policy."""
        return resolve_outcomes(
            operation, self.scatter(calls, timeout=timeout), policy=policy
        )

    @staticmethod
    def _timed(trace, thunk: Callable[[], Any]) -> tuple[Any, float, float]:
        started_wall = time.time()
        started = time.monotonic()
        with use_trace(trace):
            value = thunk()
        return value, time.monotonic() - started, started_wall


async def scatter_async(
    calls: Sequence[tuple[str, Callable[[], Any]]],
    timeout: float | None = None,
) -> list[ShardOutcome]:
    """Run every ``(shard_id, coroutine factory)`` concurrently on this loop.

    The event-loop twin of :meth:`ScatterGatherExecutor.scatter`: one task
    per shard, all awaited together, each granted the full ``timeout``
    concurrently.  Timeouts *cancel* the shard's in-flight coroutine
    (pipelined connections orphan the correlation id and live on); other
    per-shard exceptions become failed outcomes.  Never raises itself.
    """

    async def run_one(shard_id: str, factory: Callable[[], Any]) -> ShardOutcome:
        started_wall = time.time()
        started = time.monotonic()
        value = error = None
        try:
            value = await asyncio.wait_for(factory(), timeout)
        except Exception as exc:  # noqa: BLE001 - per-shard failures are data
            error = _shard_error(shard_id, exc, asyncio.TimeoutError, timeout)
        return ShardOutcome(
            shard_id=shard_id,
            value=value,
            error=error,
            elapsed_s=time.monotonic() - started,
            started_s=started_wall,
        )

    return list(
        await asyncio.gather(
            *(run_one(shard_id, factory) for shard_id, factory in calls)
        )
    )


def _shard_error(
    shard_id: str, exc: Exception, timeout_type: type, timeout: float | None
) -> Exception:
    """A shard's failure as outcome data; either transport's timeout, typed."""
    if isinstance(exc, timeout_type):
        return ShardTimeoutError(
            f"shard {shard_id!r} did not answer within its {timeout}s budget"
        )
    return exc


def resolve_outcomes(
    operation: str, outcomes: Sequence[ShardOutcome], *, policy: str = FAIL_FAST
) -> GatherResult:
    """Apply a partial-failure policy to raw scatter outcomes.

    Raises :class:`ShardFailedError` when the policy does not tolerate the
    observed failures; otherwise returns the surviving values (in scatter
    order) plus the ids of any shards the DEGRADED policy papered over.
    """
    if policy not in PARTIAL_FAILURE_POLICIES:
        raise ClusterError(
            f"unknown partial-failure policy {policy!r} "
            f"(choose from {PARTIAL_FAILURE_POLICIES})"
        )
    failures = [o for o in outcomes if not o.ok]
    if not failures:
        return GatherResult(
            values=tuple(o.value for o in outcomes), outcomes=tuple(outcomes)
        )
    detail = "; ".join(
        f"{o.shard_id}: {o.error}" for o in failures[:3]
    ) + ("; ..." if len(failures) > 3 else "")
    if policy == FAIL_FAST or len(failures) == len(outcomes):
        raise ShardFailedError(
            f"{operation} failed on {len(failures)}/{len(outcomes)} shard(s): {detail}",
            outcomes,
        )
    return GatherResult(
        values=tuple(o.value for o in outcomes if o.ok),
        missing_shard_ids=tuple(o.shard_id for o in failures),
        outcomes=tuple(outcomes),
    )
