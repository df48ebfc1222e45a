"""A delete whose answer is lost is never replayed into a wrong count.

Both proxies resend a request on a fresh connection when the old one dies,
unless the request may have reached the provider and its kind is in
``protocol.REPLAY_UNSAFE``.  A delete the provider applied but never
answered, sent again, finds its ids gone: the provider answers 0 (or no
ids), and a session that took that answer would report 0 rows deleted
after deleting some.  Here the first delete is applied and its answer is
then lost with ``request_delivered=True``; the session must raise, over the
blocking and the pipelined proxy, and per shard behind a router.
"""

from __future__ import annotations

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.net import CHANNEL_ENVELOPE, ThreadedTcpServer
from repro.net.aio import AsyncRemoteConnection
from repro.net.client import ConnectionLostError, RemoteConnection
from repro.outsourcing.protocol import MessageKind, peek_envelope

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Jones", "HR", 7500)]
DELETES = (MessageKind.DELETE_TUPLES, MessageKind.DELETE_TUPLES_EXACT)

URLS = {
    "tcp": "tcp://127.0.0.1:{port}",
    "tcp async": "tcp://127.0.0.1:{port}?async=1",
    "cluster": "cluster://127.0.0.1:{port}",
    "cluster async": "cluster://127.0.0.1:{port}?async=1",
}


@pytest.fixture
def lose_first_delete_answer(monkeypatch):
    """Both connection classes apply the first delete, then lose its answer."""
    lost = []

    def losing(answer, raw):
        if not lost and peek_envelope(raw)[1] in DELETES:
            lost.append(peek_envelope(raw)[1])
            raise ConnectionLostError("answer lost", request_delivered=True)
        return answer

    call_envelope = RemoteConnection.call_envelope
    request = AsyncRemoteConnection.request

    def blocking(self, raw, trace_id=None):
        return losing(call_envelope(self, raw, trace_id), raw)

    async def pipelined(self, payload, channel):
        frame = await request(self, payload, channel)
        return frame if channel != CHANNEL_ENVELOPE else losing(frame, payload)

    monkeypatch.setattr(RemoteConnection, "call_envelope", blocking)
    monkeypatch.setattr(AsyncRemoteConnection, "request", pipelined)
    return lost


@pytest.mark.parametrize("index", [False, True], ids=["scan", "indexed"])
@pytest.mark.parametrize("transport", list(URLS))
def test_a_delete_whose_answer_is_lost_fails_loudly(
    transport, index, secret_key, lose_first_delete_answer
):
    with ThreadedTcpServer() as server:
        url = URLS[transport].format(port=server.port)
        db = EncryptedDatabase.connect(url, secret_key, index=index)
        try:
            db.create_table(EMP_DECL, rows=ROWS)
            with pytest.raises(DatabaseError):
                db.delete("SELECT * FROM Emp WHERE dept = 'IT'")
            assert lose_first_delete_answer == [DELETES[index]]
            assert db.count("Emp") == len(ROWS) - 1  # the first delivery applied
            assert db.delete("SELECT * FROM Emp WHERE dept = 'HR'") == 2
        finally:
            db.close()
