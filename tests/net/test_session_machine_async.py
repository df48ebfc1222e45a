"""The stateful machine over ``tcp://?async=1``: the pipelined transport stays right.

The last transport axis of the machine in ``tests/session_machine.py``: the
session under test reaches an in-thread :class:`~repro.net.ThreadedTcpServer`
through :class:`~repro.net.aio.AsyncRemoteServerProxy` -- one asyncio
connection pairing each reply to its request by correlation id -- while the
oracle session reads the same provider in-process, by scan.  The session is
blocking, so one request is in flight at a time and every write is still
answered from the provider's read callback (checked as on ``tcp://``).  A
connection that hands a read the reply an identical earlier read got must
fail the machine.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import Phase
from hypothesis.stateful import run_state_machine_as_test

from repro.api import EncryptedDatabase
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.net.aio import AsyncRemoteServerProxy
from repro.outsourcing import MessageKind
from repro.outsourcing.protocol import peek_envelope
from repro.schemes.registry import available_schemes
from session_machine import machine_settings
from test_session_machine_tcp import TcpSessionMachine

READS = (MessageKind.QUERY, MessageKind.BATCH_QUERY, MessageKind.INDEX_LOOKUP)


class AsyncSessionMachine(TcpSessionMachine):
    def open_session(self) -> EncryptedDatabase:
        self.server = ThreadedTcpServer(self.provider).start()
        session = EncryptedDatabase.connect(
            f"tcp://127.0.0.1:{self.server.port}?async=1",
            self.key,
            scheme=self.scheme,
            rng=DeterministicRng(2),
            index=self.index,
            cache=True,
        )
        assert isinstance(session.server, AsyncRemoteServerProxy)
        return session


def _machine(scheme: str, index: bool):
    # The name seeds the derandomized run.
    return type(
        f"AsyncSessionMachine[{scheme}, {index}]",
        (AsyncSessionMachine,),
        {"scheme": scheme, "index": index},
    )


def _reads_get_an_earlier_reply():
    """A pipelined connection that answers a read with the reply the same
    envelope got before, as a misrouted correlation would."""
    real = AsyncRemoteServerProxy.call_envelope_async
    replies: dict[bytes, bytes] = {}

    async def call(self, raw, idempotent=True, trace_id=None):
        if peek_envelope(raw)[1] not in READS:
            return await real(self, raw, idempotent, trace_id)
        if raw not in replies:
            replies[raw] = await real(self, raw, idempotent, trace_id)
        return replies[raw]

    return mock.patch.object(AsyncRemoteServerProxy, "call_envelope_async", call)


@pytest.mark.parametrize("index", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("scheme", available_schemes())
def test_an_async_session_answers_like_an_in_process_one(scheme, index):
    run_state_machine_as_test(
        _machine(scheme, index), settings=machine_settings(max_examples=3)
    )


def test_the_machine_fails_when_a_read_gets_an_earlier_reply():
    with _reads_get_an_earlier_reply():
        with pytest.raises(AssertionError, match="stale"):
            run_state_machine_as_test(
                _machine("swp", False),
                settings=machine_settings(phases=[Phase.generate]),
            )
