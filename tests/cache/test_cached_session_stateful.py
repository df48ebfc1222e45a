"""Stateful differential test: a cached session never answers differently.

The in-process axis of the machine in ``tests/session_machine.py``, which
drives every write and read shape of :class:`~repro.api.EncryptedDatabase`
through a cache-enabled session and compares each answer with an uncached
session over the *same* provider and key.  Values come from a tiny pool so
cached queries and written rows collide constantly, and after every step
every probe query is read through both sessions -- which also re-caches it,
so each write meets a full cache.

Three things are under test.  Write-set invalidation: the machine is also
run against deliberate breakages of it (``MUTATIONS``, and a cache key that
is the first conjunct alone) and must fail on each; the cache's own "an
untagged entry goes with every write" rule is mutation-checked against a
model in ``test_result_cache.py``, because the session files no untagged
entry.  Aliasing: a rule scribbles on what a select returned, so a cache
that hands out its own relation (a ``SESSION_MUTATIONS`` breakage) answers
the next probe wrongly.  The statement memo: a rule re-declares ``Emp`` with
``salary`` retyped, so the SQL probes -- the same text before and after --
are mistyped by a session that keeps its memo across DDL (the other
``SESSION_MUTATIONS`` breakage); the oracle session is opened anew after
each re-declaration and so never has a memo to keep.
Runs are derandomized (a fixed example budget, the same examples every
time); a failure prints the step sequence and a ``@reproduce_failure`` blob.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import pytest
from hypothesis import Phase
from hypothesis import strategies as st
from hypothesis.stateful import rule, run_state_machine_as_test

from mutating_provider import FailingServer
from repro.api import EncryptedDatabase, database
from repro.outsourcing import MessageKind
from repro.schemes.registry import available_schemes
from session_machine import (
    DECLS,
    POOL,
    SEED_ROWS,
    SessionMachine,
    changes,
    machine_settings,
    probes,
    rows,
    single,
)


#: name -> the rules whose ``invalidate`` calls lose their write set.
MUTATIONS = {
    "insert passes no tags": {"insert", "insert_many"},
    "delete passes no tags": {"delete"},
}


def _hands_out_its_own_relation(session) -> None:
    """Every later read of an answer gets the relation its first read got."""
    real, first = session._outcome, {}

    def outcome(handle, answer, parsed):
        fresh = real(handle, answer, parsed)
        # Holding the answer keeps its id from being reused.
        _, kept = first.setdefault(id(answer), (answer, fresh))
        return dataclasses.replace(fresh, report=kept.report)

    session._outcome = outcome


def _keeps_its_memo_across_ddl(session) -> None:
    """``self._statements = {}`` stops having an effect."""
    memo: dict = {}
    session.__class__ = type(
        "KeepsItsMemo",
        (EncryptedDatabase,),
        {"_statements": property(lambda self: memo, lambda self, fresh: None)},
    )


#: name -> a breakage applied to the cached session when the machine starts.
SESSION_MUTATIONS = {
    "a hit hands out the cached relation": _hands_out_its_own_relation,
    "ddl keeps the statement memo": _keeps_its_memo_across_ddl,
}


class CachedSessionMachine(SessionMachine):
    """The in-process axis, with the rules only a local provider can take."""

    mutation: str | None = None

    def make_provider(self) -> FailingServer:
        return FailingServer()

    def open_session(self) -> EncryptedDatabase:
        session = super().open_session()
        SESSION_MUTATIONS.get(self.mutation, lambda session: None)(session)
        return session

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

    @rule(
        kind=st.sampled_from(
            [MessageKind.INSERT_TUPLES, MessageKind.DELETE_TUPLES]
        ),
        lands=st.booleans(),
        row=rows,
        where=single,
        new=changes,
        write=st.sampled_from(["insert", "update", "delete"]),
    )
    def failed_write(self, kind, lands, row, where, new, write):
        """One provider request of the write is lost, or its reply is.

        E.g. an update's insert is lost before it lands, or its delete lands
        and the client only sees the error.  Whatever reached the store,
        the reads that follow must agree with the uncached session.
        """
        self.provider.fail = (kind, lands)
        where = self._single(where)
        try:
            if write == "insert":
                self.cached.insert("Emp", self._row(row))
            elif write == "update":
                self.cached.update(where, self._changes(new), table="Emp")
            else:
                self.cached.delete(where, table="Emp")
        except ConnectionError:
            pass
        finally:
            self.provider.fail = None  # the write may not send that kind at all

    @rule(
        redeclared_by=st.sampled_from(["this session", "another session"]),
    )
    def redeclare(self, redeclared_by):
        """``Emp`` is dropped and declared anew with ``salary`` retyped.

        Either this session creates the new table, or it attaches the one
        another session created; the same SQL text now types its literal
        differently, and nothing cached or memoised before may answer it.
        """
        self.decl = 1 - self.decl
        declaration = DECLS[self.decl]
        seed = [self._row(row) for row in SEED_ROWS]
        self.cached.drop_table("Emp")
        self.plain = self._oracle()
        if redeclared_by == "this session":
            self.cached.create_table(declaration, rows=seed)
            self.plain.attach_table(declaration)
        else:
            self.plain.create_table(declaration, rows=seed)
            self.cached.attach_table(declaration)

    @rule(query=probes, row=rows, batched=st.booleans())
    def scribble_on_an_answer(self, query, row, batched):
        """What a select returned is the caller's: adding to it reaches no one else."""
        query = self._probe(query)
        if batched:
            outcomes = self.cached.select_many([query, query], table="Emp")
        else:
            outcomes = [self.cached.select(query, table="Emp")]
        for outcome in outcomes:
            outcome.relation.add(dict(zip(POOL, self._row(row))))
            if outcome.projected_rows is not None:
                outcome.projected_rows.append(("scribble",))


def _machine(scheme: str, index: bool, mutation: str | None = None):
    # The name seeds the derandomized run, so each combination walks its own
    # six examples instead of all of them walking the same six.
    return type(
        f"CachedSessionMachine[{scheme}, {index}, {mutation}]",
        (CachedSessionMachine,),
        {"scheme": scheme, "index": index, "mutation": mutation},
    )


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_cached_session_answers_like_an_uncached_one(scheme, index):
    run_state_machine_as_test(_machine(scheme, index), settings=machine_settings())


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_machine_fails_on_broken_invalidation(mutation, index):
    """Each breakage of write-set invalidation is caught within the same budget."""
    with pytest.raises(AssertionError, match="stale"):
        run_state_machine_as_test(
            _machine("deterministic", index, mutation),
            settings=machine_settings(phases=[Phase.generate]),
        )


@pytest.mark.parametrize("mutation", SESSION_MUTATIONS)
def test_the_machine_fails_on_a_broken_session(mutation):
    """Sharing the cached relation, or keeping the memo across DDL, is caught."""
    with pytest.raises(AssertionError, match="stale"):
        run_state_machine_as_test(
            _machine("deterministic", True, mutation),
            settings=machine_settings(phases=[Phase.generate]),
        )


def test_the_machine_fails_when_the_key_is_the_first_conjunct_alone():
    """``dept = HR`` and ``dept = HR AND name = ann`` would share an entry."""
    real = database._cache_key

    def first_conjunct(parsed):
        key = real(parsed)
        return key and key[:1]

    with mock.patch.object(database, "_cache_key", first_conjunct):
        with pytest.raises(AssertionError, match="stale"):
            run_state_machine_as_test(
                _machine("deterministic", True),
                settings=machine_settings(phases=[Phase.generate]),
            )
