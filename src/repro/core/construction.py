"""The paper's construction: a database PH preserving exact selects.

Section 3 of the paper constructs a database privacy homomorphism from any
secure searchable encryption scheme:

1. Fix a word layout: the globally fixed word length is the length of the
   longest attribute value plus the length of a one-character attribute
   identifier (:class:`repro.searchable.words.WordCodec`).
2. Map every tuple to a *document*: one word ``pad(value) | attr-id`` per
   attribute, e.g.::

       <name:"Montgomery", dept:"HR", sal:7500>
           |-> {"MontgomeryN", "HR########D", "7500######S"}

3. Encrypt the document with the searchable scheme and store it on the
   untrusted server.
4. Encrypt an exact select ``sigma_{attr=v}`` as the search trapdoor for the
   word ``pad(v) | attr-id``; the server returns every document that matches.
5. Decrypt the returned documents and filter out the searchable scheme's
   false positives.

:class:`SearchableSelectDph` implements this generically over the
:class:`~repro.searchable.interfaces.SearchableEncryptionScheme` interface and
ships with two backends:

* ``"swp"`` -- the Song--Wagner--Perrig scheme the paper instantiates;
* ``"index"`` -- a secure-index backend standing in for the full version's
  "straight-forward optimizations" (same security at rest, cheaper search).

In addition to the searchable words, every tuple carries an authenticated
encryption of its full serialization, so decryption is robust and tampering by
the server is detectable.  Decryption *via the words alone* (the literal
procedure described in the paper) is also provided and tested for equivalence.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

from repro.core.dph import (
    TUPLE_ID_LEN,
    DphError,
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    SealedPayloadDph,
    ServerEvaluator,
    TupleFilter,
)
from repro.crypto.errors import CryptoError
from repro.crypto.keys import KeyHierarchy, SecretKey
from repro.crypto.rng import RandomSource, SystemRng
from repro.crypto.symmetric import NONCE_LEN, SymmetricCipher
from repro.relational.encoding import TupleCodec, ValueCodec
from repro.relational.query import Query, selection_predicates
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.relational.tuples import RelationTuple
from repro.searchable.index_sse import (
    DEFAULT_ENTRY_LEN,
    IndexSseScheme,
    index_contains,
)
from repro.searchable.interfaces import EncryptedDocument
from repro.searchable.swp import DEFAULT_CHECK_LEN, SwpMatcher, SwpScheme
from repro.searchable.tokens import IndexToken, SwpToken
from repro.searchable.words import Word, WordCodec

#: Scheme names used on the wire so the server picks the right evaluator.
SWP_BACKEND = "dph-swp"
INDEX_BACKEND = "dph-index"


class SearchableSelectDph(SealedPayloadDph):
    """Database PH for exact selects built on a searchable encryption scheme.

    Parameters
    ----------
    schema:
        The relation schema to be outsourced (public).
    secret_key:
        The master secret (``k`` drawn from ``K``); a :class:`SecretKey` or raw
        bytes.
    backend:
        ``"swp"`` (paper's instantiation, linear scan per word) or ``"index"``
        (secure-index optimization).
    check_length:
        SWP check length ``m`` in bytes; controls the false-positive rate
        ``~2^{-8m}`` (experiment E7).
    entry_length:
        Index-SSE entry truncation in bytes (only used by the index backend).
    attribute_id_width:
        Width of the attribute identifier appended to each word (1 in the
        paper's example).
    rng:
        Randomness source for nonces (seedable for reproducible experiments).
    """

    def __init__(
        self,
        schema: RelationSchema,
        secret_key: SecretKey | bytes,
        backend: str = "swp",
        check_length: int = DEFAULT_CHECK_LEN,
        entry_length: int = DEFAULT_ENTRY_LEN,
        attribute_id_width: int = 1,
        rng: RandomSource | None = None,
    ) -> None:
        if isinstance(secret_key, (bytes, bytearray)):
            secret_key = SecretKey(bytes(secret_key))
        if attribute_id_width != 1:
            raise DphError("attribute identifiers are one character wide in this construction")
        self._schema = schema
        self._keys = KeyHierarchy(secret_key)
        self._rng = rng if rng is not None else SystemRng()
        self._codec = WordCodec(schema.max_value_length(), attribute_id_width)
        self._identifiers = tuple(a.identifier.encode("ascii") for a in schema.attributes)
        self._tuple_codec = TupleCodec(schema)
        self._payload_cipher = SymmetricCipher(self._keys.get("dph/payload"), rng=self._rng)
        self._check_length = check_length
        self._entry_length = entry_length

        if backend == "swp":
            self._backend = SWP_BACKEND
            self._scheme = SwpScheme(
                self._keys.get("dph/searchable"),
                word_length=self._codec.word_length,
                check_length=check_length,
                rng=self._rng,
            )
        elif backend == "index":
            self._backend = INDEX_BACKEND
            self._scheme = IndexSseScheme(
                self._keys.get("dph/searchable"),
                word_length=self._codec.word_length,
                entry_length=entry_length,
                rng=self._rng,
            )
            # A row draws its document id, then its word payload's nonce.
            self._row_draws = (TUPLE_ID_LEN, NONCE_LEN)
        else:
            raise DphError(f"unknown searchable backend {backend!r}")

    # ------------------------------------------------------------------ #
    # DatabasePrivacyHomomorphism interface
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Scheme name (includes the backend)."""
        return self._backend

    @property
    def schema(self) -> RelationSchema:
        """The outsourced relation's schema."""
        return self._schema

    @property
    def word_length(self) -> int:
        """The globally fixed word length of the underlying searchable scheme."""
        return self._codec.word_length

    def false_positive_rate(self) -> float:
        """Per-word false-positive probability of the searchable backend."""
        return self._scheme.false_positive_rate()

    def decrypt_relation(
        self, encrypted_relation: EncryptedRelation, via_words: bool = False
    ) -> Relation:
        """``D``: decrypt every tuple ciphertext.

        With ``via_words=True`` the tuples are reconstructed from the decrypted
        searchable words (the literal procedure of the paper); the default uses
        the authenticated payload, which additionally detects tampering.
        """
        if not via_words:
            return super().decrypt_relation(encrypted_relation)
        tuples = [
            self.decrypt_tuple(t, via_words=True) for t in encrypted_relation.encrypted_tuples
        ]
        return Relation(self._schema, tuples)

    def decrypt_tuple(
        self, encrypted_tuple: EncryptedTuple, via_words: bool = False
    ) -> RelationTuple:
        """Decrypt a single tuple ciphertext."""
        if via_words:
            document = self._document_of(encrypted_tuple)
            words = self._scheme.decrypt_document(document)
            return self._words_to_tuple(words)
        return super().decrypt_tuple(encrypted_tuple)

    def encrypt_query(self, query: Query) -> EncryptedQuery:
        """``Eq``: one searchable trapdoor per equality predicate."""
        predicates = selection_predicates(query)
        tokens = []
        for predicate in predicates:
            position = self._schema.position(predicate.attribute)
            value_bytes = ValueCodec.encode(
                self._schema.attributes[position], predicate.value
            )
            word = self._codec.encode_bytes(self._identifiers[position], value_bytes)
            tokens.append(self._scheme.trapdoor(word).to_bytes())
        return EncryptedQuery(scheme_name=self._backend, tokens=tuple(tokens))

    def server_evaluator(self) -> "SearchableServerEvaluator":
        """The keyless evaluator the untrusted server runs."""
        return SearchableServerEvaluator(
            backend=self._backend,
            word_length=self._codec.word_length,
            check_length=self._check_length,
            entry_length=self._entry_length,
        )

    def _searchable(self, relation_tuple: RelationTuple, encoded_values: list[bytes]):
        """The row's document: one word ``pad(value) | attr-id`` per attribute."""
        return self._tuple_to_words(encoded_values)

    def _search_fields(self, searchable, draws):
        """All documents encrypted by the searchable scheme in one batch, under
        the rows' tuple ids (and, for the index, their word payloads' nonces)."""
        if self._backend == SWP_BACKEND:
            sealed = self._scheme.seal_documents(searchable, [row[0] for row in draws])
            return [(words, b"") for words in sealed]
        documents = self._scheme.encrypt_documents(searchable, [row[:2] for row in draws])
        return [(document.encrypted_words, document.index) for document in documents]

    # ------------------------------------------------------------------ #
    # Word <-> tuple mapping
    # ------------------------------------------------------------------ #

    def _tuple_to_words(self, encoded_values: list[bytes]) -> list[bytes]:
        encode = self._codec.encode_bytes
        return [
            encode(identifier, value_bytes)
            for identifier, value_bytes in zip(self._identifiers, encoded_values)
        ]

    def _words_to_tuple(self, words: list[Word]) -> RelationTuple:
        values = {}
        for word in words:
            identifier, value_bytes = self._codec.decode(word)
            attribute = self._schema.identifier_to_attribute(identifier)
            values[attribute.name] = ValueCodec.decode(attribute, value_bytes)
        return RelationTuple(self._schema, values)

    @staticmethod
    def _document_of(encrypted_tuple: EncryptedTuple) -> EncryptedDocument:
        return EncryptedDocument(
            document_id=encrypted_tuple.tuple_id,
            encrypted_words=encrypted_tuple.search_fields,
            index=encrypted_tuple.metadata,
        )


class SearchableServerEvaluator(ServerEvaluator):
    """Keyless server-side evaluation of encrypted exact selects.

    Holds only public parameters (backend name, word length, check / entry
    lengths).  Every query token is compiled once per scan into a filter
    over the stored tuples: a :class:`repro.searchable.swp.SwpMatcher` scan
    of each tuple's words, or :func:`repro.searchable.index_sse.index_contains`
    against each tuple's secure index.
    """

    def __init__(
        self,
        backend: str,
        word_length: int,
        check_length: int = DEFAULT_CHECK_LEN,
        entry_length: int = DEFAULT_ENTRY_LEN,
    ) -> None:
        if backend not in (SWP_BACKEND, INDEX_BACKEND):
            raise DphError(f"unknown backend {backend!r}")
        self._backend = backend
        self._word_length = word_length
        self._check_length = check_length
        self._entry_length = entry_length

    @property
    def scheme_name(self) -> str:
        """Identifier matched against :attr:`EncryptedQuery.scheme_name`."""
        return self._backend

    def describe(self) -> dict:
        """Public parameters for remote deployment (no key material)."""
        return {
            "type": "searchable",
            "backend": self._backend,
            "word_length": self._word_length,
            "check_length": self._check_length,
            "entry_length": self._entry_length,
        }

    def compile_token(self, raw_token: bytes) -> TupleFilter:
        """Any stored word passes the SWP check, or the secure index holds the label."""
        if self._backend == SWP_BACKEND:
            matcher = compile_swp_token(raw_token, self._word_length, self._check_length)
            fields = attrgetter("search_fields")

            def keep(tuples: Sequence[EncryptedTuple]) -> list[EncryptedTuple]:
                return matcher.select(tuples, map(fields, tuples))

            return keep
        label = IndexToken.from_bytes(raw_token).label
        entry_length = self._entry_length

        def keep(tuples: Sequence[EncryptedTuple]) -> list[EncryptedTuple]:
            return [
                t for t in tuples
                if index_contains(t.metadata, t.tuple_id, label, entry_length)
            ]

        return keep


def compile_swp_token(raw_token: bytes, word_length: int, check_length: int) -> SwpMatcher:
    """Compile one serialized SWP trapdoor into the keyless word-ciphertext check.

    This is where a trapdoor from the wire is validated -- once per scan,
    before any tuple is looked at, so a malformed one is a :class:`DphError`
    for empty and non-empty relations alike.
    """
    try:
        return SwpMatcher(SwpToken.from_bytes(raw_token), word_length, check_length)
    except (CryptoError, ValueError) as exc:
        raise DphError(f"malformed SWP trapdoor: {exc}") from exc
