"""The stateful machine over ``tcp://``: writes served by the TCP front-end stay right.

The transport axis of the machine in ``tests/session_machine.py``: its
session under test reaches the provider through an in-thread
:class:`~repro.net.ThreadedTcpServer`, while the oracle session reads the
same provider in-process, by scan.  Every write the session sends -- the
``INSERT_TUPLES`` of an insert or an update, the ``DELETE_TUPLES`` of an
update or a delete, their postings riding in them -- is served on its
connection's thread, under the relation's lock the provider takes.  A served insert that
files the ciphertext where a scan sees it but not under the tuple id that
index lookups and deletes address must fail the machine, and so must a
connection that hands a read the reply an identical earlier read got, as
a misrouted correlation id would.  A second axis opens
the session with the old ``async`` URL key on the default pool of four
connections: it must get the same blocking proxy and the same answers.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import Phase
from hypothesis.stateful import run_state_machine_as_test

from repro.api import EncryptedDatabase
from repro.crypto.rng import DeterministicRng
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.net import server as server_module
from repro.outsourcing import InMemoryStorageBackend, MessageKind
from repro.outsourcing.protocol import peek_envelope
from repro.schemes.registry import available_schemes
from session_machine import SessionMachine, machine_settings

READS = (MessageKind.QUERY, MessageKind.BATCH_QUERY, MessageKind.INDEX_LOOKUP)


class TcpSessionMachine(SessionMachine):
    def open_session(self) -> EncryptedDatabase:
        self.server = ThreadedTcpServer(self.provider).start()
        return EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{self.server.port}?index={int(self.index)}&cache=1",
            self.key,
            scheme=self.scheme,
            rng=DeterministicRng(2),
            pool_size=1,
        )

    def teardown(self) -> None:
        self.cached.close()
        self.server.stop()


class PooledSessionMachine(TcpSessionMachine):
    """The session opens with the old ``async`` key on the default pool."""

    def open_session(self) -> EncryptedDatabase:
        self.server = ThreadedTcpServer(self.provider).start()
        session = EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{self.server.port}?async=1&index={int(self.index)}&cache=1",
            self.key,
            scheme=self.scheme,
            rng=DeterministicRng(2),
        )
        assert type(session.server) is RemoteServerProxy
        return session


def _machine(scheme: str, index: bool, base=TcpSessionMachine):
    # The name seeds the derandomized run.
    return type(
        f"{base.__name__}[{scheme}, {index}]",
        (base,),
        {"scheme": scheme, "index": index},
    )


def _append_without_its_id(self, name, encrypted_tuples):
    """The ciphertexts land where a scan sees them, but not under their ids."""
    held = self._held(name)
    for encrypted_tuple in encrypted_tuples:
        held.tuples[(encrypted_tuple.tuple_id, held.appended)] = encrypted_tuple
        held.appended += 1
    held.snapshot = None


def _served_inserts_skip_the_id():
    """Every insert the TCP front-end serves -- and no other -- skips the id."""
    real = server_module._Connection._answer

    def answer(self, frame):
        with mock.patch.object(InMemoryStorageBackend, "append", _append_without_its_id):
            return real(self, frame)

    return mock.patch.object(server_module._Connection, "_answer", answer)


def _reads_get_an_earlier_reply():
    """A proxy that answers a read with the reply the same envelope got
    before."""
    real = RemoteServerProxy.handle_message
    replies: dict[bytes, bytes] = {}

    def call(self, raw):
        if peek_envelope(raw)[1] not in READS:
            return real(self, raw)
        if raw not in replies:
            replies[raw] = real(self, raw)
        return replies[raw]

    return mock.patch.object(RemoteServerProxy, "handle_message", call)


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_a_tcp_session_answers_like_an_in_process_one(scheme, index):
    run_state_machine_as_test(_machine(scheme, index), settings=machine_settings())


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_a_pooled_async_key_session_answers_like_an_in_process_one(scheme, index):
    run_state_machine_as_test(
        _machine(scheme, index, PooledSessionMachine),
        settings=machine_settings(max_examples=3),
    )


def test_the_machine_fails_when_served_inserts_skip_the_id():
    with _served_inserts_skip_the_id():
        with pytest.raises(AssertionError, match="stale"):
            run_state_machine_as_test(
                _machine("deterministic", True),
                settings=machine_settings(phases=[Phase.generate]),
            )


def test_the_machine_fails_when_a_read_gets_an_earlier_reply():
    with _reads_get_an_earlier_reply():
        with pytest.raises(AssertionError, match="stale"):
            run_state_machine_as_test(
                _machine("swp", False),
                settings=machine_settings(phases=[Phase.generate]),
            )
