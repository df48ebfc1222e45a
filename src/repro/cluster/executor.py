"""Scatter-gather execution across a shard fleet.

:class:`ScatterGatherExecutor` fans one operation out to many shards on a
thread pool and gathers per-shard :class:`ShardOutcome`\\ s.  Threads (not a
process pool) are the right tool here: an in-process shard is GIL-bound
anyway, and a ``tcp://`` shard spends its time blocked on the socket while
the remote provider does the work -- which is exactly where the near-linear
scaling of the sharded deployment comes from.

The executor only gathers outcomes; it never decides what a failure
means.  :class:`~repro.cluster.router.ShardRouter` fails a read over to
surviving replicas when the ring proves their answers complete and raises
:class:`ShardFailedError` (carrying every outcome for diagnosis) on any
other failure, so an answer is either complete or an error.

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

Every fleet scatters this one way: ``tcp://`` shards are blocking
:class:`~repro.net.client.RemoteServerProxy` connections (a
``cluster://...?async=1`` URL opens exactly the fleet the URL without the
key opens).  A timed-out request keeps its pooled connection until the
late answer arrives on it, so that answer is read by the worker that asked
and discarded: it never reaches another request.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.obs import current_trace, use_trace
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
    #: Wall-clock instant the shard's thunk started (or the gather began
    #: waiting on it); what per-shard trace spans are anchored to.
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
        self, calls: Sequence[tuple[str, Callable[[], Any]]]
    ) -> list[ShardOutcome]:
        """Run every ``(shard_id, thunk)`` concurrently; never raises itself.

        Each shard is granted the full ``timeout`` over its own wait window:
        the deadline restarts when the gather turns to that shard's future,
        so a shard queued behind a slow sibling keeps its whole budget
        instead of inheriting a deadline another shard already burned.
        (If the pool stays saturated for the entire window the queued thunk
        may still never run -- see the module docstring.)
        """
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
                value, elapsed, started_wall = future.result(timeout=self._timeout)
            except Exception as exc:  # noqa: BLE001 - per-shard failures are data
                outcomes.append(
                    ShardOutcome(
                        shard_id=shard_id,
                        error=_shard_error(shard_id, exc, self._timeout),
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

    @staticmethod
    def _timed(trace, thunk: Callable[[], Any]) -> tuple[Any, float, float]:
        started_wall = time.time()
        started = time.monotonic()
        with use_trace(trace):
            value = thunk()
        return value, time.monotonic() - started, started_wall


def _shard_error(shard_id: str, exc: Exception, timeout: float | None) -> Exception:
    """A shard's failure as outcome data; a missed budget, typed."""
    if isinstance(exc, FutureTimeoutError):
        return ShardTimeoutError(
            f"shard {shard_id!r} did not answer within its {timeout}s budget"
        )
    return exc

