"""The object-level provider API, spelled once as protocol envelopes.

:class:`~repro.outsourcing.client.OutsourcingClient`, the rebalancer and
the benchmarks drive a provider through typed calls (``insert_tuple``,
``execute_query``, ...) rather than raw frames.  Anything that sits *in
front of* providers -- a network proxy, the shard router -- serves those
calls the same way: encode the arguments into the envelope the wire
protocol already defines, send it, decode the checked answer.
:class:`EnvelopeObjectApi` is that translation, written over a single
primitive so the fronts cannot drift apart (and so a front defines each
data operation exactly once, as an envelope).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.dph import (
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
    ServerEvaluator,
)
from repro.outsourcing import protocol
from repro.outsourcing.protocol import Message, MessageKind, MessageV2, PROTOCOL_V1
from repro.outsourcing.server import ServerError


class EnvelopeObjectApi:
    """Mixin: the typed data operations over :meth:`_request`.

    The host also provides ``register_evaluator``; failures raise the
    host's own :class:`~repro.outsourcing.server.ServerError` subclass.
    """

    def _request(
        self, kind: MessageKind, relation_name: str, body: bytes, expect: MessageKind
    ) -> Message | MessageV2:
        """Send this envelope; return the checked response (kind ``expect``)."""
        raise NotImplementedError

    def _deletes_report_ids(self) -> bool:
        """Whether :meth:`delete_tuples` may count through ``DELETE_TUPLES_EXACT``.

        Off unless the host knows everything behind it serves the op: an
        older provider refuses the kind, and by then a fan-out may already
        have deleted elsewhere.
        """
        return False

    def store_relation(
        self,
        name: str,
        encrypted_relation: EncryptedRelation,
        evaluator: ServerEvaluator,
    ) -> None:
        """Deploy the evaluator, then ship the relation in one envelope."""
        self.register_evaluator(name, evaluator)
        self._request(
            MessageKind.STORE_RELATION,
            name,
            protocol.encode_encrypted_relation(encrypted_relation),
            expect=MessageKind.ACK,
        )

    def insert_tuple(self, name: str, encrypted_tuple: EncryptedTuple) -> None:
        """Append one tuple ciphertext."""
        self._request(
            MessageKind.INSERT_TUPLE,
            name,
            protocol.encode_encrypted_tuple(encrypted_tuple),
            expect=MessageKind.ACK,
        )

    def execute_query(self, name: str, encrypted_query: EncryptedQuery) -> EvaluationResult:
        """Run one encrypted query."""
        response = self._request(
            MessageKind.QUERY,
            name,
            protocol.encode_encrypted_query(encrypted_query),
            expect=MessageKind.QUERY_RESULT,
        )
        if response.version == PROTOCOL_V1:
            return EvaluationResult(
                matching=protocol.decode_encrypted_relation(response.body)
            )
        result, consumed = protocol.decode_evaluation_result(response.body)
        if consumed != len(response.body):
            raise ServerError("trailing bytes after evaluation result")
        return result

    def execute_batch(
        self, name: str, encrypted_queries: Sequence[EncryptedQuery]
    ) -> list[EvaluationResult]:
        """Run several encrypted queries in one request."""
        response = self._request(
            MessageKind.BATCH_QUERY,
            name,
            protocol.encode_query_batch(encrypted_queries),
            expect=MessageKind.BATCH_RESULT,
        )
        return list(protocol.decode_result_batch(response.body))

    def delete_tuples(self, name: str, tuple_ids: Sequence[bytes]) -> int:
        """Delete tuple ciphertexts by public id; returns how many went."""
        if self._deletes_report_ids():
            return len(self.delete_tuples_exact(name, tuple_ids))
        response = self._request(
            MessageKind.DELETE_TUPLES,
            name,
            protocol.encode_tuple_ids(list(tuple_ids)),
            expect=MessageKind.ACK,
        )
        return protocol.decode_count(response.body)

    def delete_tuples_exact(self, name: str, tuple_ids: Sequence[bytes]) -> tuple[bytes, ...]:
        """Delete by public id and learn exactly which ids were live."""
        response = self._request(
            MessageKind.DELETE_TUPLES_EXACT,
            name,
            protocol.encode_tuple_ids(list(tuple_ids)),
            expect=MessageKind.TUPLE_IDS,
        )
        return protocol.decode_tuple_ids(response.body)
