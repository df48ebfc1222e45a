"""The client side of the outsourcing protocol (Alex's half of the wire).

* :func:`request` -- send one envelope to a provider and check its answer:
  the one helper every client of a provider (the
  :class:`~repro.api.EncryptedDatabase` session, the CLI, the provider's own
  TCP front end) talks through, so the provider may be in-process, behind
  ``tcp://`` or a shard router;
* :class:`SelectOutcome` -- what a select returns to the application once
  Alex has decrypted the provider's answer, mapped words back to tuples and
  filtered the false positives.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dph import DecryptionReport, EvaluationResult
from repro.outsourcing import protocol
from repro.outsourcing.protocol import MessageKind, MessageV2, ProtocolError
from repro.outsourcing.server import ServerError
from repro.relational.relation import Relation


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
