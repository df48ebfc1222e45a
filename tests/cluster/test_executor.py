"""Scatter-gather executor: concurrency, timeouts, failures as outcome data."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cluster.executor import (
    ClusterError,
    ScatterGatherExecutor,
    ShardFailedError,
    ShardOutcome,
    ShardTimeoutError,
)
from repro.obs import Trace, current_trace, use_trace
from repro.outsourcing.server import ServerError


@pytest.fixture
def executor():
    ex = ScatterGatherExecutor(max_workers=4)
    yield ex
    ex.close()


class TestScatter:
    def test_results_keep_scatter_order(self, executor):
        calls = [(f"s{i}", (lambda v: lambda: v)(i)) for i in range(4)]
        outcomes = executor.scatter(calls)
        assert [o.shard_id for o in outcomes] == ["s0", "s1", "s2", "s3"]
        assert [o.value for o in outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in outcomes)

    def test_calls_actually_overlap(self, executor):
        barrier = threading.Barrier(3, timeout=5)

        def rendezvous():
            barrier.wait()  # deadlocks unless all three run concurrently
            return True

        outcomes = executor.scatter([(f"s{i}", rendezvous) for i in range(3)])
        assert all(o.ok for o in outcomes)

    def test_exceptions_become_outcomes(self, executor):
        def boom():
            raise RuntimeError("shard exploded")

        outcomes = executor.scatter([("ok", lambda: 1), ("bad", boom)])
        assert outcomes[0].ok and outcomes[0].value == 1
        assert not outcomes[1].ok
        assert "shard exploded" in str(outcomes[1].error)

    def test_per_shard_timeout(self):
        executor = ScatterGatherExecutor(max_workers=2, timeout=0.05)
        try:
            outcomes = executor.scatter(
                [("fast", lambda: "x"), ("slow", lambda: time.sleep(2.0))]
            )
        finally:
            executor.close()
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, ShardTimeoutError)

    def test_each_slow_shard_gets_its_full_budget(self):
        # Regression: the timeout used to be one shared deadline burned from
        # scatter start, so with several slow-but-in-budget shards the later
        # ones inherited ~0s and were misreported as timed out.  Two shards
        # serialized on one worker each take 0.3s against a 0.45s per-shard
        # budget: both must succeed even though the second finishes 0.6s
        # after scatter start.
        executor = ScatterGatherExecutor(max_workers=1, timeout=0.45)

        def slow():
            time.sleep(0.3)
            return "done"

        try:
            outcomes = executor.scatter([("s1", slow), ("s2", slow)])
        finally:
            executor.close()
        assert [o.ok for o in outcomes] == [True, True], [
            (o.shard_id, o.error) for o in outcomes
        ]

    def test_a_genuinely_slow_shard_still_times_out_behind_a_queue(self):
        executor = ScatterGatherExecutor(max_workers=1, timeout=0.2)
        try:
            outcomes = executor.scatter(
                [("fast", lambda: "x"), ("slow", lambda: time.sleep(2.0))]
            )
        finally:
            executor.close()
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, ShardTimeoutError)


class TestOutcomes:
    def _outcomes(self, *oks):
        return [
            ShardOutcome(shard_id=f"s{i}", value=i)
            if ok
            else ShardOutcome(shard_id=f"s{i}", error=RuntimeError(f"down {i}"))
            for i, ok in enumerate(oks)
        ]

    def test_a_failed_scatter_names_its_failed_shards(self):
        outcomes = self._outcomes(True, False, False)
        error = ShardFailedError("op failed", outcomes)
        assert error.failed_shard_ids == ("s1", "s2")
        assert error.outcomes == tuple(outcomes)

    def test_cluster_errors_are_provider_errors(self):
        # The session translates ServerError, so a fleet failure surfaces
        # exactly as a single provider's would.
        for error_type in (ShardFailedError, ShardTimeoutError):
            assert issubclass(error_type, ClusterError)
            assert issubclass(error_type, ServerError)

    def test_the_pool_needs_a_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            ScatterGatherExecutor(max_workers=0)

    def test_thunks_run_under_the_callers_trace(self, executor):
        trace = Trace(bytes(16))
        with use_trace(trace):
            outcomes = executor.scatter([("s0", current_trace), ("s1", current_trace)])
        assert [o.value for o in outcomes] == [trace, trace]
