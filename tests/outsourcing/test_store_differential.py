"""The id-keyed in-memory store against a model of the tuple rewrite it replaced.

``TupleRewriteModel`` below is the store's old semantics written out: a
relation is a list of tuple ciphertexts, an append adds to its end, and a
delete walks every tuple, keeping the ones not asked for and reporting each
deleted id once, at its first stored position.  A Hypothesis state machine
runs random ``save`` / ``append`` / ``remove`` / ``load`` / ``tuple_count``
/ ``fetch`` / ``delete`` sequences over a pool of three tuple ids, so
duplicate copies of one id are the common case, against both.  Deletes go
through the provider too, whose ``TUPLES_DELETED`` audit event must count
every copy removed.  A run starts from a stored relation holding tuples,
and three deletes in four ask for a stored relation and, when it holds
tuples, ids it holds, so most deletes find their relation.  The
file-backed store runs the same machine, every read on the in-memory
store's code, and a fresh backend on its directory must equal the model
after every step; a ``reopen`` rule also checks the live backend after a
fresh one and restarts the provider on the fresh one.  Three broken stores
-- one that drops duplicate copies, one that reports deleted ids in request
order, and a file store whose delete skips the file rewrite -- must fail it.
"""

from __future__ import annotations

import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.dph import EncryptedRelation, EncryptedTuple
from repro.index import IndexDelta
from repro.outsourcing import (
    FileStorageBackend,
    InMemoryStorageBackend,
    OutsourcedDatabaseServer,
    ServerError,
)
from repro.outsourcing.audit import AuditEventKind
from repro.outsourcing.storage import StorageError
from repro.relational import RelationSchema

SCHEMA = RelationSchema.parse("R(a:int[2])")
NAMES = ("A", "B")
IDS = tuple(bytes([i]) * 16 for i in range(3))

names = st.sampled_from(NAMES)
ids = st.sampled_from(IDS)
id_lists = st.lists(ids, max_size=4)


class TupleRewriteModel:
    """What the store did when every write rewrote an n-tuple."""

    def __init__(self) -> None:
        self.relations: dict[str, list[EncryptedTuple]] = {}

    def remove(self, name: str, tuple_ids) -> tuple[tuple[bytes, ...], int]:
        stored = self.relations[name]
        wanted = set(tuple_ids)
        remaining, deleted_ids, seen = [], [], set()
        for t in stored:
            if t.tuple_id in wanted:
                if t.tuple_id not in seen:
                    seen.add(t.tuple_id)
                    deleted_ids.append(t.tuple_id)
            else:
                remaining.append(t)
        self.relations[name] = remaining
        return tuple(deleted_ids), len(stored) - len(remaining)

    def fetch(self, name: str, tuple_ids) -> tuple[EncryptedTuple, ...]:
        """One copy per id asked, the first stored; unknown ids fetch nothing."""
        by_id: dict[bytes, EncryptedTuple] = {}
        for t in self.relations[name]:
            by_id.setdefault(t.tuple_id, t)
        return tuple(by_id[i] for i in tuple_ids if i in by_id)


class DropsDuplicateCopies(InMemoryStorageBackend):
    """An append of an id already stored is lost."""

    def append(self, name, encrypted_tuples):
        for encrypted_tuple in encrypted_tuples:
            if not self.fetch(name, [encrypted_tuple.tuple_id]).encrypted_tuples:
                super().append(name, [encrypted_tuple])


class ReportsRequestOrder(InMemoryStorageBackend):
    """Deleted ids come back in the order the request named them."""

    def remove(self, name, tuple_ids):
        tuple_ids = list(tuple_ids)
        deleted, copies = super().remove(name, tuple_ids)
        gone = set(deleted)
        return tuple(dict.fromkeys(i for i in tuple_ids if i in gone)), copies


class SkipsTheFileRewrite(FileStorageBackend):
    """A delete leaves the relation file as it was."""

    def remove(self, name, tuple_ids):
        return InMemoryStorageBackend.remove(self, name, tuple_ids)


class StoreMachine(RuleBasedStateMachine):
    #: A store class; a file store gets a fresh directory.
    backend = InMemoryStorageBackend

    def __init__(self) -> None:
        super().__init__()
        self.directory = None
        if issubclass(self.backend, FileStorageBackend):
            self.directory = tempfile.mkdtemp(prefix="store-differential-")
            storage = self.backend(self.directory)
        else:
            storage = self.backend()
        self.server = OutsourcedDatabaseServer(storage=storage)
        self.store = storage
        self.model = TupleRewriteModel()
        self.payloads = 0

    def teardown(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)

    def _tuple(self, tuple_id: bytes) -> EncryptedTuple:
        # Every ciphertext differs, so which copy of an id comes back shows.
        self.payloads += 1
        return EncryptedTuple(tuple_id=tuple_id, payload=self.payloads.to_bytes(4, "big"))

    def _removal(self, data) -> tuple[str, list[bytes]]:
        """What a delete asks for: three times in four, while a relation is
        stored, that relation and, when it holds tuples, one or two ids it
        holds; else any name and any ids, an absent relation included."""
        stored = sorted(self.model.relations)
        if not stored or not data.draw(st.sampled_from((True, True, True, False))):
            return data.draw(names, label="name"), data.draw(id_lists, label="ids")
        name = data.draw(st.sampled_from(stored), label="name")
        held = sorted({t.tuple_id for t in self.model.relations[name]})
        if not held:
            return name, data.draw(id_lists, label="ids")
        return name, data.draw(st.lists(st.sampled_from(held), min_size=1, max_size=2))

    def _absent(self, name: str) -> bool:
        """A read or write of a relation neither side holds must fail on the store."""
        if name in self.model.relations:
            return False
        assert name not in self.store
        return True

    @initialize(tuple_ids=st.lists(ids, min_size=1, max_size=5))
    def store_a_relation(self, tuple_ids):
        """Every run starts from a stored relation holding tuples."""
        self.save(NAMES[0], tuple_ids)

    @rule(name=names, tuple_ids=st.lists(ids, max_size=5))
    def save(self, name, tuple_ids):
        tuples = [self._tuple(i) for i in tuple_ids]
        self.store.save(name, EncryptedRelation(schema=SCHEMA, encrypted_tuples=tuple(tuples)))
        self.model.relations[name] = tuples

    @rule(name=names, tuple_id=ids)
    def append(self, name, tuple_id):
        encrypted_tuple = self._tuple(tuple_id)
        if self._absent(name):
            with pytest.raises(StorageError):
                self.store.append(name, [encrypted_tuple])
            return
        self.store.append(name, [encrypted_tuple])
        self.model.relations[name].append(encrypted_tuple)

    @rule(data=st.data())
    def remove(self, data):
        name, tuple_ids = self._removal(data)
        if self._absent(name):
            with pytest.raises(StorageError):
                self.store.remove(name, tuple_ids)
            return
        assert self.store.remove(name, tuple_ids) == self.model.remove(name, tuple_ids)

    @rule(data=st.data())
    def delete_through_the_provider(self, data):
        name, tuple_ids = self._removal(data)
        if self._absent(name):
            with pytest.raises(ServerError):
                self.server.delete_tuples(name, tuple_ids, IndexDelta())
            return
        deleted_ids, copies = self.model.remove(name, tuple_ids)
        assert self.server.delete_tuples(name, tuple_ids, IndexDelta()) == deleted_ids
        event = self.server.audit_log.events[-1]
        assert event.kind is AuditEventKind.TUPLES_DELETED
        assert event.detail == {"requested": len(tuple_ids), "deleted": copies}

    @rule(name=names, tuple_ids=id_lists)
    def fetch(self, name, tuple_ids):
        if self._absent(name):
            with pytest.raises(StorageError):
                self.store.fetch(name, tuple_ids)
            return
        fetched = self.store.fetch(name, tuple_ids)
        assert fetched.schema == SCHEMA
        assert fetched.encrypted_tuples == self.model.fetch(name, tuple_ids)

    @rule(name=names)
    def delete(self, name):
        self.store.delete(name)
        self.model.relations.pop(name, None)

    @invariant()
    def loads_and_counts_agree(self):
        self._agrees(self.store)

    def _agrees(self, store):
        assert sorted(store.names()) == sorted(self.model.relations)
        for name in NAMES:
            if name not in self.model.relations:
                assert name not in store
                with pytest.raises(StorageError):
                    store.load(name)
                continue
            expected = tuple(self.model.relations[name])
            loaded = store.load(name)
            assert loaded.schema == SCHEMA
            assert loaded.encrypted_tuples == expected
            assert store.tuple_count(name) == len(expected)


class FileStoreMachine(StoreMachine):
    """The file store, whose directory must equal the model after every step."""

    backend = FileStorageBackend

    @rule()
    def reopen(self):
        """A fresh backend on the directory equals the model, and so does the
        live one after it; the provider then restarts on the fresh one."""
        fresh = FileStorageBackend(self.directory)
        self._agrees(fresh)
        self._agrees(self.store)
        self.store = fresh
        self.server = OutsourcedDatabaseServer(storage=fresh)

    @invariant()
    def the_directory_agrees(self):
        self._agrees(FileStorageBackend(self.directory))


def _machine(backend):
    base = FileStoreMachine if issubclass(backend, FileStorageBackend) else StoreMachine
    return type(f"StoreMachine[{backend.__name__}]", (base,), {"backend": backend})


def _settings(phases=(Phase.generate, Phase.shrink), max_examples=100) -> settings:
    return settings(
        phases=phases,
        max_examples=max_examples,
        stateful_step_count=20,
        derandomize=True,
        print_blob=True,
        database=None,
        deadline=None,
        suppress_health_check=list(HealthCheck),
    )


def test_the_in_memory_store_matches_the_tuple_rewrite():
    run_state_machine_as_test(_machine(InMemoryStorageBackend), settings=_settings())


def test_the_file_store_defaults_match_the_tuple_rewrite():
    run_state_machine_as_test(
        _machine(FileStorageBackend), settings=_settings(max_examples=30)
    )


@pytest.mark.parametrize(
    "broken", [DropsDuplicateCopies, ReportsRequestOrder, SkipsTheFileRewrite]
)
def test_the_machine_fails_on_a_broken_store(broken):
    with pytest.raises(AssertionError):
        run_state_machine_as_test(
            _machine(broken), settings=_settings(phases=[Phase.generate])
        )
