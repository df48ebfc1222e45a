"""Stateful differential test: a cached session never answers differently.

One Hypothesis state machine drives every write and read shape of
:class:`~repro.api.EncryptedDatabase` through a cache-enabled session and
compares each answer with an uncached session over the *same* provider and
key.  Values come from a tiny pool so cached queries and written rows
collide constantly, and after every step every probe query is read through
both sessions -- which also re-caches it, so each write meets a full cache.

Write-set invalidation is what is under test, so the machine is also run
against deliberate breakages of it (``MUTATIONS``, and a cache key without
the query's conjuncts) and must fail on each; the cache's own "an untagged
entry goes with every write" rule is mutation-checked against a model in
``test_result_cache.py``, because the session files no untagged entry.
Runs are derandomized (a fixed example budget, the same examples every
time); a failure prints the step sequence and a ``@reproduce_failure`` blob.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from mutating_provider import FailingServer
from repro.api import EncryptedDatabase, database
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import MessageKind
from repro.relational import ConjunctiveSelection, Projection, Selection
from repro.schemes.registry import available_schemes

DECL = "Emp(name:string[6], dept:string[4], salary:int[4])"
POOL = {"name": ("ann", "bob", "cyd"), "dept": ("HR", "IT"), "salary": (1, 2)}

rows = st.tuples(*(st.sampled_from(values) for values in POOL.values()))
single = st.sampled_from(
    [Selection.equals(a, v) for a, values in POOL.items() for v in values]
)
changes = st.dictionaries(
    st.sampled_from(list(POOL)), st.none(), min_size=1
).flatmap(
    lambda keys: st.fixed_dictionaries(
        {attribute: st.sampled_from(POOL[attribute]) for attribute in keys}
    )
)


class Unhashable(str):
    """A valid string value no cache key can hold: its reads bypass the cache."""

    __hash__ = None


#: Every shape the session caches: filed under the only conjunct, under the
#: first of two (in either order), behind a projection -- and one it cannot.
PROBES = [
    *(Selection.equals(a, v) for a, values in POOL.items() for v in values),
    ConjunctiveSelection.of(("dept", "HR"), ("name", "ann")),
    ConjunctiveSelection.of(("name", "bob"), ("dept", "IT")),
    ConjunctiveSelection.of(("dept", "HR"), ("salary", 1)),
    ConjunctiveSelection.of(("dept", "HR"), ("salary", 2)),
    Projection(Selection.equals("dept", "IT"), ("name",)),
    Projection(ConjunctiveSelection.of(("name", "cyd"), ("salary", 2)), ("dept",)),
    *(Selection.equals("name", Unhashable(name)) for name in POOL["name"]),
]
probes = st.sampled_from(PROBES)


def _answer(outcome) -> tuple[Counter, Counter | None]:
    projected = outcome.projected_rows
    return (
        Counter(tuple(t.values()) for t in outcome.relation),
        None if projected is None else Counter(projected),
    )


#: name -> the rules whose ``invalidate`` calls lose their write set.
MUTATIONS = {
    "insert passes no tags": {"insert", "insert_many"},
    "delete passes no tags": {"delete"},
}


class CachedSessionMachine(RuleBasedStateMachine):
    scheme = "swp"
    index = False
    mutation: str | None = None

    def __init__(self) -> None:
        super().__init__()
        key = SecretKey.generate(rng=DeterministicRng(1))
        self.provider = FailingServer()
        self.cached = EncryptedDatabase.open(
            key,
            server=self.provider,
            scheme=self.scheme,
            index=self.index,
            cache=True,
            rng=DeterministicRng(2),
        )
        self.cached.create_table(DECL, rows=[("ann", "HR", 1), ("bob", "IT", 2)])
        # The oracle: no cache, no index -- every read is a fresh scan.
        self.plain = EncryptedDatabase.open(
            key, server=self.provider, scheme=self.scheme, rng=DeterministicRng(3)
        )
        self.plain.attach_table(DECL)

    @contextlib.contextmanager
    def _writing(self, rule_name: str):
        """Run one write rule, with the machine's mutation applied if it targets it."""
        if rule_name not in MUTATIONS.get(self.mutation, ()):
            yield
            return
        cache, real = self.cached.cache, self.cached.cache.invalidate
        with mock.patch.object(
            cache, "invalidate", lambda relation, tags=None: real(relation, ())
        ):
            yield

    def _same(self, query) -> None:
        got = _answer(self.cached.select(query, table="Emp"))
        want = _answer(self.plain.select(query, table="Emp"))
        assert got == want, f"stale read for {query!r}: {got} != {want}"

    # -- writes --------------------------------------------------------- #

    @rule(row=rows)
    def insert(self, row):
        with self._writing("insert"):
            self.cached.insert("Emp", row)

    @rule(batch=st.lists(rows, min_size=1, max_size=3))
    def insert_many(self, batch):
        with self._writing("insert_many"):
            assert self.cached.insert_many("Emp", batch) == len(batch)

    @rule(where=single, new=changes)
    def update(self, where, new):
        # ``new`` may rewrite the selected attribute itself.
        with self._writing("update"):
            self.cached.update(where, new, table="Emp")

    @rule(where=probes)
    def delete(self, where):
        with self._writing("delete"):
            self.cached.delete(where, table="Emp")

    @rule(
        kind=st.sampled_from(
            [
                MessageKind.INSERT_TUPLE,
                MessageKind.INDEX_DELTA,
                MessageKind.DELETE_TUPLES,
                MessageKind.DELETE_TUPLES_EXACT,
            ]
        ),
        lands=st.booleans(),
        row=rows,
        where=single,
        new=changes,
        write=st.sampled_from(["insert", "update", "delete"]),
    )
    def failed_write(self, kind, lands, row, where, new, write):
        """One provider request of the write is lost, or its reply is.

        E.g. the index delta lands and the tuple raises; or the tuple lands
        and the client only sees the error.  Whatever reached the store,
        the reads that follow must agree with the uncached session.
        """
        self.provider.fail = (kind, lands)
        try:
            if write == "insert":
                self.cached.insert("Emp", row)
            elif write == "update":
                self.cached.update(where, new, table="Emp")
            else:
                self.cached.delete(where, table="Emp")
        except ConnectionError:
            pass
        finally:
            self.provider.fail = None  # the write may not send that kind at all

    # -- reads ---------------------------------------------------------- #

    @rule(query=probes)
    def select(self, query):
        self._same(query)

    @rule(queries=st.lists(probes, min_size=1, max_size=4))
    def select_many(self, queries):
        got = self.cached.select_many(queries, table="Emp")
        want = self.plain.select_many(queries, table="Emp")
        assert [_answer(o) for o in got] == [_answer(o) for o in want], (
            f"stale batch read for {queries!r}"
        )

    @invariant()
    def every_probe_agrees(self):
        for query in PROBES:
            self._same(query)


def _machine(scheme: str, index: bool, mutation: str | None = None):
    return type(
        "CachedSessionMachine",
        (CachedSessionMachine,),
        {"scheme": scheme, "index": index, "mutation": mutation},
    )


def _settings(phases=(Phase.generate, Phase.shrink)) -> settings:
    return settings(
        phases=phases,
        max_examples=6,
        stateful_step_count=15,
        derandomize=True,
        print_blob=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_cached_session_answers_like_an_uncached_one(scheme, index):
    run_state_machine_as_test(_machine(scheme, index), settings=_settings())


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_machine_fails_on_broken_invalidation(mutation, index):
    """Each breakage of write-set invalidation is caught within the same budget."""
    with pytest.raises(AssertionError, match="stale"):
        run_state_machine_as_test(
            _machine("deterministic", index, mutation),
            settings=_settings(phases=[Phase.generate]),
        )


def test_the_machine_fails_when_the_key_is_the_token_alone():
    """Two salaries of one bucket share a token; the index tells them apart."""
    real = database._cache_key

    def token_and_tag(parsed, token):
        key = real(parsed, token)
        return key and (token, key[1][:1])

    with mock.patch.object(database, "_cache_key", token_and_tag):
        with pytest.raises(AssertionError, match="stale"):
            run_state_machine_as_test(
                _machine("bucketization", True),
                settings=_settings(phases=[Phase.generate]),
            )
