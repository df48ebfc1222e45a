"""The stateful machine over ``cluster://``: a sharded session answers like one provider.

The cluster axis of the machine in ``tests/session_machine.py``: the
provider is a :class:`~repro.cluster.ShardRouter` over three in-process
shards, unreplicated and with two replicas, and both the session under test
and the oracle session reach it through envelopes only.  Beside the shared
rules, every step also checks the metadata reads the router merges itself:
the stored copy (``FETCH_RELATION``, one copy per tuple id) and the count
(``TUPLE_COUNT``, distinct ids) must equal what the oracle's selects see.
A ``FETCH_RELATION`` merge that keeps the replicas' duplicate copies must
fail the machine.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from unittest import mock

import pytest
from hypothesis import Phase
from hypothesis.stateful import invariant, run_state_machine_as_test

from repro.cluster import ShardRouter
from repro.core.dph import EncryptedRelation, EvaluationResult
from repro.outsourcing import MessageKind, OutsourcedDatabaseServer
from repro.relational import Selection
from repro.schemes.registry import available_schemes
from session_machine import POOL, SINGLES, SessionMachine, machine_settings


class ClusterSessionMachine(SessionMachine):
    replicas = 1

    def make_provider(self) -> ShardRouter:
        shards = [OutsourcedDatabaseServer() for _ in range(3)]
        return ShardRouter(shards, replicas=self.replicas)

    def teardown(self) -> None:
        self.provider.close()

    @invariant()
    def every_probe_agrees(self):
        # The query shapes the session cache files (conjunctions,
        # projections, SQL text) are the in-process axis' business; here
        # every step reads each single-attribute select through the fleet.
        for query in SINGLES[self.decl]:
            self._same(query)

    @invariant()
    def the_stored_copy_and_count_agree(self):
        # Every row's dept is drawn from the pool, so these selects see all.
        want = Counter()
        for dept in POOL["dept"]:
            outcome = self.plain.select(Selection.equals("dept", dept), table="Emp")
            want.update(tuple(t.values()) for t in outcome.relation)
        got = Counter(tuple(t.values()) for t in self.cached.retrieve_all("Emp"))
        assert got == want, f"stale stored copy: {got} != {want}"
        count = self.cached.count("Emp")
        assert count == sum(want.values()), f"stale count: {count}"


def _machine(scheme: str, index: bool, replicas: int):
    # The name seeds the derandomized run.
    return type(
        f"ClusterSessionMachine[{scheme}, {index}, {replicas}]",
        (ClusterSessionMachine,),
        {"scheme": scheme, "index": index, "replicas": replicas},
    )


def _keep_duplicates(results, _payload) -> EvaluationResult:
    """A FETCH_RELATION merge that forgets replicas store copies."""
    tuples = tuple(t for result in results for t in result.matching.encrypted_tuples)
    return EvaluationResult(EncryptedRelation(results[0].matching.schema, tuples))


@pytest.mark.parametrize("replicas", [1, 2])
@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_a_sharded_session_answers_like_one_provider(scheme, index, replicas):
    run_state_machine_as_test(
        _machine(scheme, index, replicas), settings=machine_settings(max_examples=2)
    )


def test_the_machine_fails_when_the_stored_copy_keeps_duplicates():
    plans = ShardRouter._PLANS
    broken = dataclasses.replace(plans[MessageKind.FETCH_RELATION], merge=_keep_duplicates)
    with mock.patch.dict(plans, {MessageKind.FETCH_RELATION: broken}):
        with pytest.raises(AssertionError, match="stale stored copy"):
            run_state_machine_as_test(
                _machine("deterministic", False, 2),
                settings=machine_settings(phases=[Phase.generate]),
            )
