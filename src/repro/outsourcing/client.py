"""The outsourcing client (Alex).

Alex owns the data and the key.  The client wraps a database privacy
homomorphism and a (reference to the) untrusted server, and exposes the
operations an application would actually use:

* :meth:`OutsourcingClient.outsource` -- deploy the keyless evaluator, then
  encrypt a plaintext relation and ship it to the provider;
* :meth:`OutsourcingClient.insert` -- encrypt and append a single tuple;
* :meth:`OutsourcingClient.select` -- issue an exact select (as a query AST
  node or a SQL string), let the provider evaluate it over ciphertext, then
  decrypt and filter the result;
* :meth:`OutsourcingClient.retrieve_all` -- fetch and decrypt the provider's
  full copy.

Each is the protocol envelope the operation is, sent with :func:`request` --
the one helper every client of a provider (this one, the
:class:`~repro.api.EncryptedDatabase` session, the CLI) talks through, so
the provider may be in-process, behind ``tcp://`` or a shard router.  All
post-processing the paper assigns to Alex -- decryption, mapping words back
to tuples, and filtering false positives -- happens here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dph import (
    DatabasePrivacyHomomorphism,
    DecryptionReport,
    EvaluationResult,
)
from repro.outsourcing import protocol
from repro.outsourcing.evaluators import describe_evaluator
from repro.outsourcing.protocol import MessageKind, MessageV2, ProtocolError
from repro.outsourcing.server import OutsourcedDatabaseServer, ServerError
from repro.relational.query import Projection, Query
from repro.relational.relation import Relation
from repro.relational.sql import parse_sql
from repro.relational.tuples import RelationTuple


class ClientError(Exception):
    """The client refused or failed to process a request."""


def request(
    provider,
    kind: MessageKind,
    relation_name: str,
    body: bytes = b"",
    *,
    expect: MessageKind,
    error: type[Exception] = ServerError,
) -> MessageV2:
    """Send one envelope through ``provider.handle_message``; the checked answer.

    An ``ERROR`` answer, an answer of another kind than ``expect``, a reply
    that does not parse and a transport failure all raise ``error`` (a
    failure that already is one propagates as it is).
    """
    try:
        response = protocol.parse_message(
            provider.handle_message(MessageV2(kind, relation_name, body).to_bytes())
        )
    except (ServerError, ProtocolError) as exc:
        if isinstance(exc, error):
            raise
        raise error(str(exc)) from exc
    if response.kind is MessageKind.ERROR:
        raise error(response.body.decode("utf-8", "replace"))
    if response.kind is not expect:
        raise error(f"expected {expect.value!r} response, got {response.kind.value!r}")
    return response


@dataclass(frozen=True)
class SelectOutcome:
    """The result of a client-side select: tuples plus bookkeeping."""

    report: DecryptionReport
    projected_rows: list[tuple] | None = None
    #: The provider-side evaluation stats (pre-decryption), when the
    #: transport carried them: result sizes, tuples examined, token work.
    #: ``examined`` is how O(result) index serving shows up vs O(data) scans.
    evaluation: EvaluationResult | None = None

    @property
    def relation(self) -> Relation:
        """The filtered result relation."""
        return self.report.relation

    @property
    def false_positives(self) -> int:
        """Tuples the provider returned that the filter discarded."""
        return self.report.false_positives


class OutsourcingClient:
    """Alex: holds the key, talks ciphertext envelopes to the provider.

    A provider's refusal raises :class:`~repro.outsourcing.server.ServerError`.
    """

    def __init__(
        self,
        dph: DatabasePrivacyHomomorphism,
        server: OutsourcedDatabaseServer,
        relation_name: str | None = None,
    ) -> None:
        self._dph = dph
        self._server = server
        self._relation_name = relation_name or dph.schema.name

    @property
    def relation_name(self) -> str:
        """Name under which the relation is stored at the provider."""
        return self._relation_name

    @property
    def scheme(self) -> DatabasePrivacyHomomorphism:
        """The underlying database privacy homomorphism."""
        return self._dph

    def outsource(self, relation: Relation) -> int:
        """Deploy the evaluator, then encrypt ``relation`` and store it.

        Returns the number of ciphertext bytes shipped.
        """
        if relation.schema != self._dph.schema:
            raise ClientError("relation schema does not match the scheme's schema")
        encrypted = self._dph.encrypt_relation(relation)
        description = describe_evaluator(self._dph.server_evaluator())
        self._send(
            MessageKind.REGISTER_EVALUATOR,
            protocol.encode_evaluator_description(description),
        )
        self._send(
            MessageKind.STORE_RELATION, protocol.encode_encrypted_relation(encrypted)
        )
        return encrypted.size_in_bytes()

    def insert(self, values: RelationTuple | dict) -> None:
        """Encrypt and append one tuple."""
        if isinstance(values, dict):
            values = RelationTuple(self._dph.schema, values)
        encrypt_tuple = getattr(self._dph, "encrypt_tuple", None)
        if encrypt_tuple is None:
            raise ClientError(
                f"scheme {self._dph.name!r} does not support single-tuple inserts"
            )
        encrypted = protocol.encode_encrypted_tuple(encrypt_tuple(values))
        self._send(MessageKind.INSERT_TUPLE, encrypted)

    def select(self, query: Query | str) -> SelectOutcome:
        """Issue an exact select and return the decrypted, filtered result."""
        parsed = self._parse(query)
        encrypted_query = self._dph.encrypt_query(parsed)
        evaluation = self._evaluation(
            MessageKind.QUERY, protocol.encode_encrypted_query(encrypted_query)
        )
        report = self._dph.decrypt_result(evaluation, parsed)
        projected = None
        if isinstance(parsed, Projection) and parsed.attributes:
            projected = report.relation.project(list(parsed.attributes))
        return SelectOutcome(
            report=report, projected_rows=projected, evaluation=evaluation
        )

    def retrieve_all(self) -> Relation:
        """Fetch the provider's full copy and decrypt it."""
        stored = self._evaluation(MessageKind.FETCH_RELATION).matching
        return self._dph.decrypt_relation(stored)

    def _send(
        self, kind: MessageKind, body: bytes = b"", expect=MessageKind.ACK
    ) -> MessageV2:
        return request(self._server, kind, self._relation_name, body, expect=expect)

    def _evaluation(self, kind: MessageKind, body: bytes = b"") -> EvaluationResult:
        response = self._send(kind, body, expect=MessageKind.QUERY_RESULT)
        return protocol.decode_query_result(response.body)

    def _parse(self, query: Query | str) -> Query:
        if isinstance(query, str):
            parsed = parse_sql(query, self._dph.schema)
            return parsed.query
        return query
