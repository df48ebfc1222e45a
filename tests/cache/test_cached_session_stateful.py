"""Stateful differential test: a cached session never answers differently.

One Hypothesis state machine drives every write and read shape of
:class:`~repro.api.EncryptedDatabase` through a cache-enabled session and
compares each answer with an uncached session over the *same* provider and
key.  Values come from a tiny pool so cached queries and written rows
collide constantly, and after every step every probe query is read through
both sessions -- which also re-caches it, so each write meets a full cache.

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
from repro.api import DatabaseError, EncryptedDatabase, database
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import MessageKind
from repro.relational import (
    ConjunctiveSelection,
    Projection,
    RelationalError,
    Selection,
)
from repro.schemes.registry import available_schemes

#: ``salary`` is an integer in the first declaration and a string in the
#: second, so the bare SQL literal ``1`` means ``1`` or ``'1'``.
DECLS = (
    "Emp(name:string[6], dept:string[4], salary:int[4])",
    "Emp(name:string[6], dept:string[4], salary:string[4])",
)
POOL = {"name": ("ann", "bob", "cyd"), "dept": ("HR", "IT"), "salary": (1, 2)}
SEED_ROWS = [("ann", "HR", 1), ("bob", "IT", 2)]

rows = st.tuples(*(st.sampled_from(values) for values in POOL.values()))
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


def _typed(decl: int, attribute: str, value):
    """A pool value as declaration ``decl`` types it."""
    return str(value) if decl and attribute == "salary" else value


def _typed_row(decl: int, row) -> tuple:
    return tuple(_typed(decl, a, v) for a, v in zip(POOL, row))


def _singles(decl: int) -> list:
    return [
        Selection.equals(a, _typed(decl, a, v)) for a, values in POOL.items() for v in values
    ]


def _probes(decl: int) -> list:
    """Every shape the session caches: filed under the only conjunct, under
    the first of two (in either order), behind a projection, as SQL text
    (parsed once, then memoised) -- and one it cannot cache."""
    one, two = (("salary", _typed(decl, "salary", value)) for value in (1, 2))
    return [
        *_singles(decl),
        ConjunctiveSelection.of(("dept", "HR"), ("name", "ann")),
        ConjunctiveSelection.of(("name", "bob"), ("dept", "IT")),
        ConjunctiveSelection.of(("dept", "HR"), one),
        ConjunctiveSelection.of(("dept", "HR"), two),
        Projection(Selection.equals("dept", "IT"), ("name",)),
        Projection(ConjunctiveSelection.of(("name", "cyd"), two), ("dept",)),
        "SELECT * FROM Emp WHERE salary = 1",
        "SELECT name FROM Emp WHERE dept = 'IT' AND salary = 2",
        *(Selection.equals("name", Unhashable(name)) for name in POOL["name"]),
    ]


#: Indexed by declaration; the strategies draw positions, the rules look
#: the query up under the declaration that is current.
SINGLES = [_singles(decl) for decl in range(len(DECLS))]
PROBES = [_probes(decl) for decl in range(len(DECLS))]
single = st.integers(0, len(SINGLES[0]) - 1)
probes = st.integers(0, len(PROBES[0]) - 1)


def _answer(outcome) -> tuple[Counter, Counter | None]:
    projected = outcome.projected_rows
    return (
        Counter(tuple(t.values()) for t in outcome.relation),
        None if projected is None else Counter(projected),
    )


def _read(session, query):
    """The session's answer, or how it refused: a warm session must raise as a cold one."""
    try:
        return _answer(session.select(query, table="Emp"))
    except (DatabaseError, RelationalError) as exc:
        return type(exc).__name__, str(exc)


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


class CachedSessionMachine(RuleBasedStateMachine):
    scheme = "swp"
    index = False
    mutation: str | None = None

    def __init__(self) -> None:
        super().__init__()
        self.key = SecretKey.generate(rng=DeterministicRng(1))
        self.provider = FailingServer()
        self.decl = 0
        self.cached = EncryptedDatabase.open(
            self.key,
            server=self.provider,
            scheme=self.scheme,
            index=self.index,
            cache=True,
            rng=DeterministicRng(2),
        )
        SESSION_MUTATIONS.get(self.mutation, lambda session: None)(self.cached)
        self.cached.create_table(DECLS[0], rows=SEED_ROWS)
        self.plain = self._oracle()
        self.plain.attach_table(DECLS[0])

    def _oracle(self) -> EncryptedDatabase:
        """No cache, no index, no history: every read is a fresh parse and scan."""
        return EncryptedDatabase.open(
            self.key, server=self.provider, scheme=self.scheme, rng=DeterministicRng(3)
        )

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
        got = _read(self.cached, query)
        want = _read(self.plain, query)
        assert got == want, f"stale read for {query!r}: {got} != {want}"

    def _row(self, row) -> tuple:
        return _typed_row(self.decl, row)

    def _changes(self, new: dict) -> dict:
        return {a: _typed(self.decl, a, v) for a, v in new.items()}

    def _single(self, position: int):
        return SINGLES[self.decl][position]

    def _probe(self, position: int):
        return PROBES[self.decl][position]

    # -- writes --------------------------------------------------------- #

    @rule(row=rows)
    def insert(self, row):
        with self._writing("insert"):
            self.cached.insert("Emp", self._row(row))

    @rule(batch=st.lists(rows, min_size=1, max_size=3))
    def insert_many(self, batch):
        with self._writing("insert_many"):
            typed = [self._row(row) for row in batch]
            assert self.cached.insert_many("Emp", typed) == len(batch)

    @rule(where=single, new=changes)
    def update(self, where, new):
        # ``new`` may rewrite the selected attribute itself.
        with self._writing("update"):
            self.cached.update(self._single(where), self._changes(new), table="Emp")

    @rule(where=probes)
    def delete(self, where):
        with self._writing("delete"):
            self.cached.delete(self._probe(where), table="Emp")

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

    # -- reads ---------------------------------------------------------- #

    @rule(query=probes)
    def select(self, query):
        self._same(self._probe(query))

    @rule(queries=st.lists(probes, min_size=1, max_size=4))
    def select_many(self, queries):
        queries = [self._probe(query) for query in queries]
        got = self.cached.select_many(queries, table="Emp")
        want = self.plain.select_many(queries, table="Emp")
        assert [_answer(o) for o in got] == [_answer(o) for o in want], (
            f"stale batch read for {queries!r}"
        )

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

    @invariant()
    def every_probe_agrees(self):
        for query in PROBES[self.decl]:
            self._same(query)


def _machine(scheme: str, index: bool, mutation: str | None = None):
    # The name seeds the derandomized run, so each combination walks its own
    # six examples instead of all of them walking the same six.
    return type(
        f"CachedSessionMachine[{scheme}, {index}, {mutation}]",
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


@pytest.mark.parametrize("mutation", SESSION_MUTATIONS)
def test_the_machine_fails_on_a_broken_session(mutation):
    """Sharing the cached relation, or keeping the memo across DDL, is caught."""
    with pytest.raises(AssertionError, match="stale"):
        run_state_machine_as_test(
            _machine("deterministic", True, mutation),
            settings=_settings(phases=[Phase.generate]),
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
                settings=_settings(phases=[Phase.generate]),
            )
