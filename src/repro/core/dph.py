"""The database privacy homomorphism abstraction (Definition 1.1).

A database PH is a tuple ``(K, E, Eq, D)`` where

* ``E : K x R -> C`` encrypts relations (tuple by tuple),
* ``D : K x C -> R`` decrypts them,
* ``Eq : K x {sigma_i} -> {psi_i}`` encrypts queries, and
* for every relation ``R`` and relational operation ``sigma_i``:
  ``E_k(sigma_i(R)) = psi_i(E_k(R))`` -- the encrypted operation applied to the
  encrypted table yields an encryption of the plaintext result.

This module fixes the concrete data model shared by every scheme in the
reproduction (the paper's construction in :mod:`repro.core.construction` and
the baselines in :mod:`repro.schemes`):

* :class:`EncryptedTuple` -- one ciphertext ``c_i`` of the tuple-by-tuple
  encryption: a strongly encrypted payload plus scheme-specific *searchable
  fields* that the server operates on.
* :class:`EncryptedRelation` -- the set ``C = {c_1, ..., c_n}``.
* :class:`EncryptedQuery` -- the image ``psi_i = Eq_k(sigma_i)``, carried as a
  tuple of opaque per-predicate tokens.
* :class:`ServerEvaluator` -- the keyless procedure the untrusted server runs
  to apply ``psi_i`` to ``E_k(R)``.  Keeping it a separate object (constructed
  from public parameters only) makes the trust boundary explicit: nothing the
  server executes ever touches key material.
* :class:`DatabasePrivacyHomomorphism` -- the client-side ``(E, Eq, D)``.
* :class:`SealedPayloadDph` -- its ``E`` and ``D`` for the schemes whose
  payload is the tuple codec's bytes sealed by the payload cipher under the
  tuple id.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.crypto.symmetric import NONCE_LEN
from repro.relational.query import Query, selection_predicates
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.tuples import RelationTuple

if TYPE_CHECKING:
    from repro.crypto.rng import RandomSource
    from repro.crypto.symmetric import SymmetricCipher
    from repro.relational.encoding import TupleCodec


class DphError(Exception):
    """Base error of the database-PH layer."""


@dataclass(frozen=True)
class EncryptedTuple:
    """The ciphertext of a single tuple.

    Attributes
    ----------
    tuple_id:
        Public per-tuple identifier (a random nonce).  It never depends on the
        plaintext, so revealing it leaks nothing beyond the tuple count, which
        Definition 2.1 already concedes to the adversary.
    payload:
        Authenticated encryption of the fully serialized tuple; only the key
        holder can open it.
    search_fields:
        Scheme-specific searchable material the server matches encrypted
        queries against: word ciphertexts for the SWP construction, permuted
        bucket labels for the Hacigumus baseline, keyed hashes for Damiani,
        and so on.
    metadata:
        Additional opaque scheme bytes (e.g. the secure index of the
        index-SSE construction).
    """

    tuple_id: bytes
    payload: bytes
    search_fields: tuple[bytes, ...] = ()
    metadata: bytes = b""

    #: The 4-byte body length and the body a decoder parsed this ciphertext
    #: from, as a relation frame carries it; the encoders join it instead of
    #: encoding again (the codec is canonical, so it equals a fresh encode).
    #: Not a field: only a decoder sets it, on the instance, and it takes no
    #: part in ``==``, ``hash``, ``repr`` or ``dataclasses.replace``; the
    #: class is frozen, so it never goes stale.
    framed = None

    def size_in_bytes(self) -> int:
        """Total storage footprint of this ciphertext."""
        return (
            len(self.tuple_id)
            + len(self.payload)
            + sum(len(f) for f in self.search_fields)
            + len(self.metadata)
        )


@dataclass(frozen=True)
class EncryptedRelation:
    """The encryption ``E_k(R)`` of a relation: a set of tuple ciphertexts.

    The relation *schema* is treated as public knowledge, as the paper assumes
    throughout ("Eve knows the database schema").
    """

    schema: RelationSchema
    encrypted_tuples: tuple[EncryptedTuple, ...]

    def __len__(self) -> int:
        return len(self.encrypted_tuples)

    def __iter__(self) -> Iterator[EncryptedTuple]:
        return iter(self.encrypted_tuples)

    def size_in_bytes(self) -> int:
        """Total storage footprint of the encrypted relation."""
        return sum(t.size_in_bytes() for t in self.encrypted_tuples)

    def restrict_to(self, tuple_ids: Sequence[bytes]) -> "EncryptedRelation":
        """Return the sub-relation containing only the named tuple ids."""
        wanted = set(tuple_ids)
        return EncryptedRelation(
            schema=self.schema,
            encrypted_tuples=tuple(
                t for t in self.encrypted_tuples if t.tuple_id in wanted
            ),
        )


@dataclass(frozen=True)
class EncryptedQuery:
    """The encrypted query ``psi = Eq_k(sigma)``.

    ``tokens`` holds one opaque search token per equality predicate; a
    conjunctive selection carries several and the server intersects their
    matches.  ``scheme_name`` lets the server pick the right evaluation
    procedure without learning anything about the plaintext query.
    """

    scheme_name: str
    tokens: tuple[bytes, ...]
    metadata: bytes = b""

    def __post_init__(self) -> None:
        if not self.tokens:
            raise DphError("an encrypted query needs at least one token")

    def size_in_bytes(self) -> int:
        """Wire size of the encrypted query."""
        return sum(len(t) for t in self.tokens) + len(self.metadata)


@dataclass(frozen=True)
class EvaluationResult:
    """What the server returns: the matching tuple ciphertexts."""

    matching: EncryptedRelation
    #: Number of tuple ciphertexts the server had to examine.
    examined: int = 0
    #: Number of search-token evaluations the server performed.
    token_evaluations: int = 0


#: One query token compiled for a scan: takes tuple ciphertexts, returns
#: those the token accepts, in their order.
TupleFilter = Callable[[Sequence[EncryptedTuple]], Sequence[EncryptedTuple]]


def evaluate_conjunction(
    encrypted_relation: EncryptedRelation, filters: Sequence[TupleFilter]
) -> EvaluationResult:
    """Return the tuple ciphertexts that every compiled filter accepts.

    The one scan driver of every evaluator: each filter runs once, over the
    survivors of the filter before it, so relation order is kept and a
    tuple meets a token only while every earlier token accepted it --
    ``token_evaluations`` counts those meetings.
    """
    survivors = encrypted_relation.encrypted_tuples
    token_evaluations = 0
    for keep in filters:
        token_evaluations += len(survivors)
        survivors = keep(survivors)
    return EvaluationResult(
        matching=EncryptedRelation(
            schema=encrypted_relation.schema, encrypted_tuples=tuple(survivors)
        ),
        examined=len(encrypted_relation),
        token_evaluations=token_evaluations,
    )


class ServerEvaluator(ABC):
    """The keyless ciphertext operation ``psi`` executed by the service provider.

    Instances are constructed from *public parameters only* and are therefore
    safe to hand to the untrusted server; they constitute the entire code the
    server needs to answer encrypted queries.  An evaluator compiles each
    query token into a :data:`TupleFilter`; :func:`evaluate_conjunction`
    runs them.
    """

    @property
    @abstractmethod
    def scheme_name(self) -> str:
        """Identifier matching :attr:`EncryptedQuery.scheme_name`."""

    @abstractmethod
    def compile_token(self, raw_token: bytes) -> TupleFilter:
        """Compile one query token, validating it: a malformed one raises here."""

    def compile(self, encrypted_query: EncryptedQuery) -> list[TupleFilter]:
        """Every token of ``encrypted_query`` compiled, before any tuple is looked at."""
        if encrypted_query.scheme_name != self.scheme_name:
            raise DphError(
                f"query was encrypted for {encrypted_query.scheme_name!r}, "
                f"this evaluator handles {self.scheme_name!r}"
            )
        return [self.compile_token(raw) for raw in encrypted_query.tokens]

    def evaluate(
        self, encrypted_query: EncryptedQuery, encrypted_relation: EncryptedRelation
    ) -> EvaluationResult:
        """Apply the encrypted query to the encrypted relation."""
        return evaluate_conjunction(encrypted_relation, self.compile(encrypted_query))

    def describe(self) -> dict:
        """JSON-able public parameters from which the evaluator can be rebuilt.

        A remote provider cannot receive evaluator *objects*; it receives
        this description and reconstructs the evaluator locally
        (:mod:`repro.outsourcing.evaluators`).  The description must therefore
        contain public parameters only -- never key material.
        """
        raise DphError(
            f"evaluator {type(self).__name__} does not describe itself for "
            "remote deployment"
        )


@dataclass(frozen=True)
class DecryptionReport:
    """Outcome of decrypting a server result, including the false-positive filter."""

    relation: Relation
    #: Tuples returned by the server before filtering.
    returned: int
    #: Tuples removed by the client-side filter (false positives).
    false_positives: int
    #: Tuples in the final result.
    kept: int


def filter_tuples(
    schema: RelationSchema, tuples: Iterable[RelationTuple], query: Query | None = None
) -> DecryptionReport:
    """Keep the ``tuples`` that satisfy ``query``; count the rest as false positives.

    ``query`` is validated against ``schema`` once; ``None`` keeps everything
    (plain ``D``).  Projections are ignored at this stage -- the filter only
    drops tuples that fail the selection predicates; projecting columns is a
    separate, lossless step the caller can apply afterwards.

    When every row is a :class:`RelationTuple` of ``schema`` itself (what
    ``decrypt_tuples`` returns), each predicate is one list pass by position
    and the survivors are not checked against the schema again; any other
    rows take the per-row path, with its errors.
    """
    predicates = () if query is None else selection_predicates(query)
    for predicate in predicates:
        predicate.validate(schema)
    rows = list(tuples)
    returned = len(rows)
    for row in rows:
        if row.__class__ is not RelationTuple or row._schema is not schema:
            rows = [r for r in rows if all(p.matches(r) for p in predicates)]
            relation = Relation(schema, rows)
            break
    else:
        for predicate in predicates:
            position, value = schema.position(predicate.attribute), predicate.value
            rows = [row for row in rows if row._values[position] == value]
        relation = Relation._of_checked(schema, rows)
    kept = len(rows)
    return DecryptionReport(relation, returned, returned - kept, kept)


class DatabasePrivacyHomomorphism(ABC):
    """Client-side interface of a database PH: the ``(E, Eq, D)`` of Definition 1.1."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Human-readable scheme name (used in reports and benchmarks)."""

    @property
    @abstractmethod
    def schema(self) -> RelationSchema:
        """The relation schema this instance encrypts."""

    @abstractmethod
    def encrypt_relation(self, relation: Relation) -> EncryptedRelation:
        """``E``: encrypt a relation tuple by tuple."""

    def decrypt_relation(self, encrypted_relation: EncryptedRelation) -> Relation:
        """``D``: decrypt a (full or partial) encrypted relation."""
        return Relation(self.schema, self.decrypt_tuples(encrypted_relation.encrypted_tuples))

    def decrypt_tuple(self, encrypted_tuple: EncryptedTuple) -> RelationTuple:
        """Decrypt a single tuple ciphertext: the batch of one."""
        return self.decrypt_tuples((encrypted_tuple,))[0]

    @abstractmethod
    def decrypt_tuples(self, encrypted_tuples: Sequence[EncryptedTuple]) -> list[RelationTuple]:
        """Decrypt each ciphertext, in order; raises at the first that fails."""

    @abstractmethod
    def encrypt_query(self, query: Query) -> EncryptedQuery:
        """``Eq``: encrypt an exact-select query."""

    @abstractmethod
    def server_evaluator(self) -> ServerEvaluator:
        """Return the keyless evaluator the untrusted server runs (``psi``)."""

    def decrypt_result(
        self, result: EncryptedRelation | EvaluationResult, query: Query | None = None
    ) -> DecryptionReport:
        """Decrypt a server result and filter false positives against ``query``.

        This is the paper's "Alex needs to run a filter on the output": the
        searchable scheme (and the lossy baselines even more so) may return
        tuples that do not satisfy the plaintext query; the client decrypts
        the returned ciphertexts as one batch (:meth:`decrypt_tuples`) and
        removes them in one pass over the plaintexts.
        """
        encrypted = result.matching if isinstance(result, EvaluationResult) else result
        return filter_tuples(self.schema, self.decrypt_tuples(encrypted.encrypted_tuples), query)


_payloads = attrgetter("payload")
_tuple_ids = attrgetter("tuple_id")

#: Length in bytes of the random per-tuple identifier.
TUPLE_ID_LEN = 16


class SealedPayloadDph(DatabasePrivacyHomomorphism):
    """A database PH whose tuple payload is its codec bytes sealed under its id.

    The paper's construction, its variable-width variant and the field-match
    baselines all store ``_payload_cipher.encrypt_bytes(codec bytes,
    associated_data=tuple_id)`` (the baselines may store the codec bytes
    bare, with ``_payload_cipher`` ``None``), so they share this ``E`` and
    this ``D``: one native seal or open per batch, and for ``D`` one native
    decode, with the Python references for the rows the kernel leaves.  A
    subclass says what a row's search fields are made of
    (:meth:`_searchable`) and how a batch of them is encrypted
    (:meth:`_search_fields`).
    """

    _payload_cipher: SymmetricCipher | None
    _tuple_codec: TupleCodec
    _rng: RandomSource
    #: The random strings, by length, each row draws before its payload
    #: nonce; the first is its tuple id.
    _row_draws: tuple[int, ...] = (TUPLE_ID_LEN,)

    @abstractmethod
    def _searchable(self, relation_tuple: RelationTuple, encoded_values: list[bytes]):
        """What the row's search fields are made of; validates and draws nothing."""

    @abstractmethod
    def _search_fields(
        self, searchable: list, draws: list[tuple[bytes, ...]]
    ) -> list[tuple[tuple[bytes, ...], bytes]]:
        """Each row's ``(search_fields, metadata)``, from its :meth:`_searchable`
        material and its draws (tuple id first)."""

    def encrypt_relation(self, relation: Relation) -> EncryptedRelation:
        """``E``: encrypt every tuple, as one batch (:meth:`encrypt_tuples`)."""
        if relation.schema != self.schema:
            raise DphError("relation schema does not match the scheme's schema")
        return EncryptedRelation(
            schema=self.schema, encrypted_tuples=tuple(self.encrypt_tuples(relation))
        )

    def encrypt_tuple(self, relation_tuple: RelationTuple) -> EncryptedTuple:
        """Encrypt a single tuple (exposed for streaming inserts): the batch of one."""
        return self.encrypt_tuples((relation_tuple,))[0]

    def encrypt_tuples(self, relation_tuples: Iterable[RelationTuple]) -> list[EncryptedTuple]:
        """Encrypt each tuple, in order: the one ``E`` of these schemes.

        Three steps.  Every row is checked against the schema, encoded
        (:meth:`~repro.relational.encoding.TupleCodec.encode_values`, each
        value validated once) and framed, and its search material built, so
        a bad row raises what it always raised before any randomness is
        drawn.  Then each row draws its tuple id (and any draw of its
        scheme's) and then its payload nonce from the scheme's
        :class:`~repro.crypto.rng.RandomSource`, row by row: the order the
        tuple-at-a-time loop drew in, so seeded ciphertexts do not change.
        Last, the payloads are sealed in one
        :meth:`~repro.crypto.symmetric.SymmetricCipher.seal_many` and the
        search fields made in one batch per searchable scheme.
        """
        codec = self._tuple_codec
        check_schema, encode_values, frame = codec.check_schema, codec.encode_values, codec.frame
        searchable = self._searchable
        frames, material = [], []
        for relation_tuple in relation_tuples:
            check_schema(relation_tuple)
            encoded = encode_values(relation_tuple)
            frames.append(frame(encoded))
            material.append(searchable(relation_tuple, encoded))
        cipher = self._payload_cipher
        sizes = self._row_draws if cipher is None else (*self._row_draws, NONCE_LEN)
        draw = self._rng.bytes
        draws = [tuple(map(draw, sizes)) for _ in frames]
        tuple_ids = [row_draws[0] for row_draws in draws]
        if cipher is None:
            payloads = frames
        else:
            payloads = cipher.seal_many(
                frames, tuple_ids, [row_draws[-1] for row_draws in draws]
            )
        return [
            EncryptedTuple(tuple_id, payload, fields, metadata)
            for tuple_id, payload, (fields, metadata) in zip(
                tuple_ids, payloads, self._search_fields(material, draws)
            )
        ]

    def decrypt_tuples(self, encrypted_tuples: Sequence[EncryptedTuple]) -> list[RelationTuple]:
        """Open and decode each ciphertext, in order; raises at the first that fails.

        The batch is opened (:meth:`~repro.crypto.symmetric.SymmetricCipher.open_many`)
        and decoded (:meth:`~repro.relational.encoding.TupleCodec.decode_regular`)
        by the native kernel; a row it did not both open and decode goes
        through ``decrypt_bytes`` and then ``decode``, the references, in
        row order.  So what is raised, and at which row, is what
        :meth:`decrypt_tuple` per row would raise: the MAC or length check's
        :class:`~repro.crypto.errors.CryptoError`, or the codec's
        :class:`~repro.relational.errors.EncodingError`.
        """
        payloads = list(map(_payloads, encrypted_tuples))
        cipher = self._payload_cipher
        codec = self._tuple_codec
        if cipher is None:
            rows = codec.decode_regular(payloads)
        else:
            tuple_ids = list(map(_tuple_ids, encrypted_tuples))
            rows = codec.decode_regular(cipher.open_many(payloads, tuple_ids))
        for index, row in enumerate(rows):
            if row is None:
                plaintext = payloads[index]
                if cipher is not None:
                    plaintext = cipher.decrypt_bytes(plaintext, tuple_ids[index])
                rows[index] = codec.decode(plaintext)
        return rows
