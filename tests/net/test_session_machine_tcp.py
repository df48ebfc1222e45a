"""The stateful machine over ``tcp://``: writes answered on the event loop stay right.

The transport axis of the machine in ``tests/session_machine.py``: its
session under test reaches the provider through an in-thread
:class:`~repro.net.ThreadedTcpServer`, while the oracle session reads the
same provider in-process, by scan.  The session is blocking and alone on
its connection, so every write it sends -- the ``INSERT_TUPLES`` of an
insert or an update, the ``DELETE_TUPLES`` of an update or a delete, their
postings riding in them -- is answered from the connection's read callback; the provider records the
thread of each, and the machine fails if a write ever took a dispatch
worker.  An inline insert that files the ciphertext where a scan sees it but
not under the tuple id that index lookups and deletes address must fail the
machine.
"""

from __future__ import annotations

import threading
from unittest import mock

import pytest
from hypothesis import Phase
from hypothesis.stateful import run_state_machine_as_test

from repro.api import EncryptedDatabase
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.net.server import DatabaseTcpServer
from repro.outsourcing import InMemoryStorageBackend, MessageKind, OutsourcedDatabaseServer
from repro.outsourcing.protocol import peek_envelope
from repro.schemes.registry import available_schemes
from session_machine import SessionMachine, machine_settings

WRITES = (MessageKind.INSERT_TUPLES, MessageKind.DELETE_TUPLES)


class WriteThreadRecordingServer(OutsourcedDatabaseServer):
    """Counts the writes a dispatch worker, not the event loop, served."""

    def __init__(self) -> None:
        super().__init__()
        self.worker_writes = 0

    def handle_message(self, raw: bytes) -> bytes:
        if peek_envelope(raw)[1] in WRITES and threading.current_thread().name.startswith(
            "repro-net-dispatch"
        ):
            self.worker_writes += 1
        return super().handle_message(raw)


class TcpSessionMachine(SessionMachine):
    def make_provider(self) -> WriteThreadRecordingServer:
        return WriteThreadRecordingServer()

    def open_session(self) -> EncryptedDatabase:
        self.server = ThreadedTcpServer(self.provider).start()
        return EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{self.server.port}",
            self.key,
            scheme=self.scheme,
            rng=DeterministicRng(2),
            index=self.index,
            cache=True,
            pool_size=1,
        )

    def teardown(self) -> None:
        self.cached.close()
        self.server.stop()
        assert self.provider.worker_writes == 0, "a write took a dispatch worker"


def _machine(scheme: str, index: bool):
    # The name seeds the derandomized run.
    return type(
        f"TcpSessionMachine[{scheme}, {index}]",
        (TcpSessionMachine,),
        {"scheme": scheme, "index": index},
    )


def _append_without_its_id(self, name, encrypted_tuples):
    """The ciphertexts land where a scan sees them, but not under their ids."""
    held = self._held(name)
    for encrypted_tuple in encrypted_tuples:
        held.tuples[(encrypted_tuple.tuple_id, held.appended)] = encrypted_tuple
        held.appended += 1
    held.snapshot = None


def _inline_inserts_skip_the_id():
    real = DatabaseTcpServer._dispatch_envelope

    def dispatch(self, trace_id, relation_name, payload, submitted_mono, path):
        if path != "inline":
            return real(self, trace_id, relation_name, payload, submitted_mono, path)
        with mock.patch.object(InMemoryStorageBackend, "append", _append_without_its_id):
            return real(self, trace_id, relation_name, payload, submitted_mono, path)

    return mock.patch.object(DatabaseTcpServer, "_dispatch_envelope", dispatch)


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_a_tcp_session_answers_like_an_in_process_one(scheme, index):
    run_state_machine_as_test(_machine(scheme, index), settings=machine_settings())


def test_the_machine_fails_when_inline_inserts_skip_the_id():
    with _inline_inserts_skip_the_id():
        with pytest.raises(AssertionError, match="stale"):
            run_state_machine_as_test(
                _machine("deterministic", True),
                settings=machine_settings(phases=[Phase.generate]),
            )
