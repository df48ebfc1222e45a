"""The one scatter: remote legs overlap, budgets, failures as outcome data.

Every remote leg here is a gated provider over ``tcp://`` behind a
one-connection proxy, and every leg asks for a relation named after its
shard, so an answer names the request it answers (an unknown relation
is an ``ERROR`` answer that still carries the name).
"""

from __future__ import annotations

import contextlib
import threading
import time
from functools import partial

from gated_provider import GatedServer

from repro.cluster.executor import (
    ClusterError,
    ShardFailedError,
    ShardOutcome,
    ShardRequest,
    ShardTimeoutError,
    scatter,
)
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteServerProxy
from repro.obs import AMBIENT_TRACE, Trace
from repro.outsourcing.client import checked_answer
from repro.outsourcing.protocol import MessageKind, MessageV2, parse_message
from repro.outsourcing.server import ServerError


def named(shard_id: str) -> ShardRequest:
    """A read for the relation ``shard_id``; its step answers that name."""
    envelope = MessageV2(MessageKind.LIST_TUPLE_IDS, shard_id).to_bytes()
    return ShardRequest(envelope, lambda raw: parse_message(raw).relation_name)


def checked(shard_id: str) -> ShardRequest:
    """The same read, checked: an unknown relation is a ``ClusterError``."""
    step = partial(checked_answer, expect=MessageKind.TUPLE_IDS, error=ClusterError)
    return ShardRequest(named(shard_id).envelope, step)


@contextlib.contextmanager
def fleet(count: int):
    """``count`` gated providers, each behind a ``pool_size=1`` proxy."""
    with contextlib.ExitStack() as stack:
        databases = [GatedServer() for _ in range(count)]
        proxies = []
        for database in databases:
            tcp = stack.enter_context(ThreadedTcpServer(database))
            proxy = RemoteServerProxy("127.0.0.1", tcp.port, pool_size=1, timeout=10.0)
            proxies.append(stack.enter_context(proxy))
        try:
            yield databases, proxies
        finally:
            for database in databases:  # a parked request never outlives the test
                for gate in database.gates.values():
                    gate.set()


def release_after(gate: threading.Event, seconds: float) -> threading.Timer:
    timer = threading.Timer(seconds, gate.set)
    timer.start()
    return timer


class TestScatter:
    def test_results_keep_scatter_order(self):
        """The first leg answers last; outcomes still come in call order."""
        with fleet(4) as (databases, proxies):
            release_after(databases[0].gate("s0"), 0.1)
            outcomes = scatter([(f"s{i}", p, named(f"s{i}")) for i, p in enumerate(proxies)])
        assert [o.shard_id for o in outcomes] == ["s0", "s1", "s2", "s3"]
        assert [o.value for o in outcomes] == ["s0", "s1", "s2", "s3"]
        assert all(o.ok for o in outcomes)

    def test_remote_legs_overlap(self):
        """Both providers hold their request before either answer is read:
        the gates open only once both have entered."""
        both_entered = threading.Event()
        with fleet(2) as (databases, proxies):
            gates = [database.gate(f"s{i}") for i, database in enumerate(databases)]

            def open_once_both_entered():
                if all(d.entered[f"s{i}"].wait(5) for i, d in enumerate(databases)):
                    both_entered.set()
                for gate in gates:
                    gate.set()

            opener = threading.Thread(target=open_once_both_entered)
            opener.start()
            outcomes = scatter([(f"s{i}", p, named(f"s{i}")) for i, p in enumerate(proxies)])
            opener.join()
        assert both_entered.is_set()
        assert [o.value for o in outcomes] == ["s0", "s1"]

    def test_exceptions_become_outcomes(self):
        """A refused read, a closed proxy and an in-process shard that
        raises are each one failed outcome; the good leg still answers."""

        class Exploding:
            def handle_message(self, raw):
                raise RuntimeError("shard exploded")

        with fleet(3) as (_, (good, refusing, closed)):
            closed.close()
            outcomes = scatter([
                ("bad", refusing, checked("bad")),
                ("good", good, named("good")),
                ("closed", closed, named("closed")),
                ("local", Exploding(), named("local")),
            ])
        assert [o.ok for o in outcomes] == [False, True, False, False]
        assert isinstance(outcomes[0].error, ClusterError)
        assert outcomes[1].value == "good"
        assert "closed" in str(outcomes[2].error)
        assert isinstance(outcomes[3].error, RuntimeError)
        assert "shard exploded" in str(outcomes[3].error)

    def test_per_shard_timeout_reports_the_laggard_and_discards_its_late_value(self):
        """The laggard is a typed failure naming its budget, and the rest
        answer.  Its connection is closed, so the late answer -- released
        after the gather returned -- reaches no later request on that
        one-connection proxy."""
        with fleet(2) as (databases, (slow, fast)):
            gate = databases[0].gate("slow")
            outcomes = scatter([("slow", slow, named("slow")), ("fast", fast, named("fast"))], 0.2)
            gate.set()
            later = slow.handle_message(named("later").envelope)
        assert isinstance(outcomes[0].error, ShardTimeoutError)
        assert str(outcomes[0].error) == "shard 'slow' did not answer within its 0.2s budget"
        assert outcomes[0].value is None
        assert outcomes[1].value == "fast"
        assert parse_message(later).relation_name == "later"

    def test_each_slow_shard_gets_its_full_budget(self):
        # Regression: the timeout used to be one shared deadline burned from
        # scatter start, so with several slow-but-in-budget shards the later
        # ones inherited ~0s and were misreported as timed out.  The second
        # leg answers 0.8 s after the scatter began, past a 0.6 s budget,
        # but only 0.4 s after the gather turned to it: both succeed.
        with fleet(2) as (databases, proxies):
            release_after(databases[0].gate("s1"), 0.4)
            release_after(databases[1].gate("s2"), 0.8)
            calls = [("s1", proxies[0], named("s1")), ("s2", proxies[1], named("s2"))]
            outcomes = scatter(calls, 0.6)
        assert [o.ok for o in outcomes] == [True, True], [
            (o.shard_id, o.error) for o in outcomes
        ]

    def test_a_genuinely_slow_shard_still_times_out_behind_a_slow_one(self):
        with fleet(2) as (databases, proxies):
            release_after(databases[0].gate("first"), 0.15)
            databases[1].gate("stuck")
            outcomes = scatter(
                [("first", proxies[0], named("first")), ("stuck", proxies[1], named("stuck"))], 0.4
            )
        assert outcomes[0].ok
        assert isinstance(outcomes[1].error, ShardTimeoutError)

    def test_an_in_process_shard_is_called_inline_and_not_bounded(self):
        """No budget bounds a plain call: a slow in-process shard answers."""

        class Sleepy:
            def handle_message(self, raw):
                time.sleep(0.3)
                return MessageV2(MessageKind.TUPLE_IDS, "local").to_bytes()

        outcomes = scatter([("local", Sleepy(), named("local"))], 0.05)
        assert outcomes[0].ok and outcomes[0].value == "local"
        assert outcomes[0].elapsed_s >= 0.3

    def test_legs_run_under_the_callers_trace(self):
        class Tracing:
            def handle_message(self, raw):
                return AMBIENT_TRACE.get()

        trace = Trace(bytes(16))
        token = AMBIENT_TRACE.set(trace)
        try:
            with fleet(1) as (_, (proxy,)):
                outcomes = scatter([
                    ("local", Tracing(), ShardRequest(b"", lambda answer: answer)),
                    ("remote", proxy, named("remote")),
                ])
        finally:
            AMBIENT_TRACE.reset(token)
        assert outcomes[0].value is trace
        assert [s.name for s in trace.spans] == ["proxy.request"]


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

