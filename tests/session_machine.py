"""The stateful differential machine: rules and oracle shared by every axis.

:class:`SessionMachine` drives every write and read shape of
:class:`~repro.api.EncryptedDatabase` through a cache-enabled session under
test (``self.cached``) and compares each answer with the oracle: an uncached,
unindexed in-process session over the *same* provider and key, for which
every read is a fresh parse and a scan.  Values come from a tiny pool so
cached queries and written rows collide constantly, and after every step
every probe query is read through both sessions -- which also re-caches it,
so each write meets a full cache.

An axis is a subclass that says how the session under test reaches the
provider (:meth:`SessionMachine.open_session`, :meth:`~SessionMachine.make_provider`)
and may add rules: ``tests/cache/test_cached_session_stateful.py``
(in-process; failed writes, re-declaration, scribbling, cache breakages),
``tests/net/test_session_machine_tcp.py`` (over ``tcp://``, where the
provider answers single-row writes on its event loop) and
``tests/cluster/test_session_machine_cluster.py`` (a shard router with
one or two replicas; stored copy and count checked).  Lives next to
``tests/conftest.py``, which puts this directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
from collections import Counter

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.api import DatabaseError, EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import (
    ConjunctiveSelection,
    Projection,
    RelationalError,
    Selection,
)

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


def answer(outcome) -> tuple[Counter, Counter | None]:
    projected = outcome.projected_rows
    return (
        Counter(tuple(t.values()) for t in outcome.relation),
        None if projected is None else Counter(projected),
    )


def read(session, query):
    """The session's answer, or how it refused: a warm session must raise as a cold one."""
    try:
        return answer(session.select(query, table="Emp"))
    except (DatabaseError, RelationalError) as exc:
        return type(exc).__name__, str(exc)


class SessionMachine(RuleBasedStateMachine):
    scheme = "swp"
    index = False

    def __init__(self) -> None:
        super().__init__()
        self.key = SecretKey.generate(rng=DeterministicRng(1))
        self.provider = self.make_provider()
        self.decl = 0
        self.cached = self.open_session()
        self.cached.create_table(DECLS[0], rows=SEED_ROWS)
        self.plain = self._oracle()
        self.plain.attach_table(DECLS[0])

    def make_provider(self) -> OutsourcedDatabaseServer:
        return OutsourcedDatabaseServer()

    def open_session(self) -> EncryptedDatabase:
        """The session under test: cached, indexed when the axis says so."""
        return EncryptedDatabase.open(
            self.key,
            server=self.provider,
            scheme=self.scheme,
            index=self.index,
            cache=True,
            rng=DeterministicRng(2),
        )

    def _oracle(self) -> EncryptedDatabase:
        """No cache, no index, no history: every read is a fresh parse and scan."""
        return EncryptedDatabase.open(
            self.key, server=self.provider, scheme=self.scheme, rng=DeterministicRng(3)
        )

    def _writing(self, rule_name: str):
        """The context one write rule runs in (an axis may break it)."""
        return contextlib.nullcontext()

    def _same(self, query) -> None:
        got = read(self.cached, query)
        want = read(self.plain, query)
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

    # -- reads ---------------------------------------------------------- #

    @rule(query=probes)
    def select(self, query):
        self._same(self._probe(query))

    @rule(queries=st.lists(probes, min_size=1, max_size=4))
    def select_many(self, queries):
        queries = [self._probe(query) for query in queries]
        got = self.cached.select_many(queries, table="Emp")
        want = self.plain.select_many(queries, table="Emp")
        assert [answer(o) for o in got] == [answer(o) for o in want], (
            f"stale batch read for {queries!r}"
        )

    @invariant()
    def every_probe_agrees(self):
        for query in PROBES[self.decl]:
            self._same(query)


def machine_settings(phases=(Phase.generate, Phase.shrink), max_examples=6) -> settings:
    """A fixed budget, the same examples every run; a failure prints its blob."""
    return settings(
        phases=phases,
        max_examples=max_examples,
        stateful_step_count=15,
        derandomize=True,
        print_blob=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )
