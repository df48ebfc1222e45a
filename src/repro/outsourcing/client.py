"""The client side of the outsourcing protocol (Alex's half of the wire).

* :func:`request` -- send one envelope to a provider and return its decoded
  answer: the one helper every client of a provider (the
  :class:`~repro.api.EncryptedDatabase` session, the CLI, the provider's own
  TCP front end) talks through, so the provider may be in-process, behind
  ``tcp://`` or a shard router.  The answer kind it expects and the codec
  it decodes with come from the request kind's row of
  :data:`~repro.outsourcing.protocol.ANSWERS` / ``ANSWER_CODECS``, so no
  caller names either;
* :func:`checked_answer` -- what a reply frame means (the answer of the
  expected kind, or an error), shared by :func:`request` and the shard
  router's per-shard step;
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
    error: type[Exception] = ServerError,
    decode: bool = True,
):
    """Send one envelope through ``provider.handle_message``; the decoded answer
    (with ``decode`` false, its body as it came).

    The answer must be of the kind :data:`~repro.outsourcing.protocol.ANSWERS`
    names for ``kind`` and is decoded by that kind's codec.  An ``ERROR``
    answer, an answer of another kind, a reply or a reply body that does not
    parse and a transport failure all raise ``error`` (a failure that
    already is one propagates as it is; a :class:`ProtocolError` is kept as
    the ``__cause__``).
    """
    expect = protocol.ANSWERS[kind]
    try:
        raw = provider.handle_message(MessageV2(kind, relation_name, body).to_bytes())
        answer = checked_answer(raw, expect, error).body
        return protocol.ANSWER_CODECS[expect][0](answer) if decode else answer
    except (ServerError, ProtocolError) as exc:
        if isinstance(exc, error):
            raise
        raise error(str(exc)) from exc


def checked_answer(raw: bytes, expect: MessageKind, error: type[Exception]) -> MessageV2:
    """The reply frame ``raw`` as an answer of kind ``expect``.

    An ``ERROR`` answer or one of another kind raises ``error``; a frame
    that does not parse raises :class:`ProtocolError`.
    """
    response = protocol.parse_message(raw)
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
    #: The session's answer, whose ``evaluation`` it decodes on first read.
    answer: object = None

    @property
    def evaluation(self) -> EvaluationResult | None:
        """The provider's evaluation (pre-decryption): result, tuples examined, token work."""
        return None if self.answer is None else self.answer.evaluation

    @property
    def relation(self) -> Relation:
        """The filtered result relation."""
        return self.report.relation

    @property
    def false_positives(self) -> int:
        """Tuples the provider returned that the filter discarded."""
        return self.report.false_positives
