"""Misbehaving providers used by the hostile-result and failed-write tests.

Lives next to ``tests/conftest.py`` (which puts this directory on
``sys.path``), like :mod:`gated_provider`.  :class:`MutatingServer` stores
and evaluates honestly and then rewrites the body of its ``QUERY_RESULT``
responses, so the client's result path (wire decode, MAC verification,
tuple decode, filter) meets bytes an honest provider would never send --
in-process or behind a :class:`~repro.net.ThreadedTcpServer`.
:class:`FailingServer` loses one chosen request or its reply, so a write
fails on the client after part of it (or all of it) reached the store.
"""

from __future__ import annotations

import contextlib
from typing import Callable

from repro.api import EncryptedDatabase
from repro.core.dph import EncryptedRelation, EncryptedTuple, EvaluationResult
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import MessageKind, OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    decode_evaluation_result,
    encode_evaluation_result,
    parse_message,
)


class MutatingServer(OutsourcedDatabaseServer):
    """A provider whose query results pass through ``mutate`` (``None``: honest)."""

    def __init__(self) -> None:
        super().__init__()
        self.mutate: Callable[[bytes], bytes] | None = None

    def handle_message(self, raw: bytes) -> bytes:
        response = super().handle_message(raw)
        message = parse_message(response)
        if self.mutate is None or message.kind is not MessageKind.QUERY_RESULT:
            return response
        return type(message)(
            kind=message.kind,
            relation_name=message.relation_name,
            body=self.mutate(message.body),
        ).to_bytes()


class FailingServer(OutsourcedDatabaseServer):
    """A provider that fails the next request of one kind, one time.

    ``fail = (kind, lands)``: the next ``kind`` request raises
    ``ConnectionError`` -- after being applied when ``lands`` (the reply
    was lost), instead of it otherwise (the request was lost).
    """

    def __init__(self) -> None:
        super().__init__()
        self.fail: tuple[MessageKind, bool] | None = None

    def handle_message(self, raw: bytes) -> bytes:
        kind = parse_message(raw).kind
        if self.fail is not None and kind is self.fail[0]:
            _, lands = self.fail
            self.fail = None
            if lands:
                super().handle_message(raw)
            raise ConnectionError(f"injected failure on {kind.value}")
        return super().handle_message(raw)


def rewriting_tuples(
    rewrite: Callable[[list[EncryptedTuple]], list[EncryptedTuple]]
) -> Callable[[bytes], bytes]:
    """A ``mutate`` that re-encodes a v2 result with its tuples rewritten."""

    def mutate(body: bytes) -> bytes:
        result, _ = decode_evaluation_result(body)
        tuples = rewrite(list(result.matching.encrypted_tuples))
        return encode_evaluation_result(
            EvaluationResult(
                matching=EncryptedRelation(result.matching.schema, tuple(tuples)),
                examined=result.examined,
                token_evaluations=result.token_evaluations,
            )
        )

    return mutate


#: The ways a session reaches the dishonest provider in these tests
#: (``async-key``: a ``tcp://`` URL carrying ``async=1``, which has no effect).
TRANSPORTS = ("in-process", "tcp", "async-key")


@contextlib.contextmanager
def swp_session(provider: MutatingServer, transport: str, secret_key, rng):
    """An ``swp`` session on ``provider``: direct, or through a socket in front of it."""
    if transport == "in-process":
        with EncryptedDatabase.open(secret_key, server=provider, scheme="swp", rng=rng) as db:
            yield db
        return
    suffix = "?async=1" if transport == "async-key" else ""
    with ThreadedTcpServer(provider) as tcp:
        url = f"tcp://127.0.0.1:{tcp.port}{suffix}"
        with EncryptedDatabase.connect(url, secret_key, scheme="swp", rng=rng) as db:
            assert type(db.server) is RemoteServerProxy
            yield db
