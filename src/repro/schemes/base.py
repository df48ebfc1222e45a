"""Shared machinery of the baseline ("field match") schemes.

The three baselines the paper discusses -- the Hacigumus bucketization scheme,
the Damiani hashed-index scheme and plain deterministic encryption -- share a
common shape: every tuple ciphertext carries a strongly encrypted payload plus
one *deterministic* searchable field per attribute, and an encrypted query is
the deterministic image of the searched value.  What distinguishes the schemes
is only the function that maps an attribute value to its searchable field.

That determinism is precisely what the paper's distinguishing attacks exploit
(equal plaintext values produce equal fields, Section 1), so keeping the
mechanism in one base class makes the comparison with the randomized
construction of Section 3 as direct as possible.

:class:`FieldMatchDph` implements Definition 1.1's ``(E, Eq, D)`` generically;
subclasses provide :meth:`FieldMatchDph._search_field`.
:class:`FieldMatchEvaluator` is the keyless server-side ``psi``.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Sequence

from repro.core.dph import (
    DphError,
    EncryptedQuery,
    EncryptedTuple,
    SealedPayloadDph,
    ServerEvaluator,
    TupleFilter,
)
from repro.crypto.keys import KeyHierarchy, SecretKey
from repro.crypto.rng import RandomSource, SystemRng
from repro.crypto.symmetric import SymmetricCipher
from repro.relational.encoding import TupleCodec
from repro.relational.query import Query, selection_predicates
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.tuples import RelationTuple


def encode_field_token(attribute_index: int, field: bytes) -> bytes:
    """Serialize a query token as ``attribute_index (2 bytes) || field``."""
    if not 0 <= attribute_index <= 0xFFFF:
        raise DphError("attribute index out of range")
    return attribute_index.to_bytes(2, "big") + field


def decode_field_token(raw: bytes) -> tuple[int, bytes]:
    """Parse a token serialized by :func:`encode_field_token`."""
    if len(raw) < 2:
        raise DphError("malformed field token")
    return int.from_bytes(raw[:2], "big"), raw[2:]


class FieldMatchDph(SealedPayloadDph):
    """Base class of schemes with one deterministic searchable field per attribute."""

    def __init__(
        self,
        schema: RelationSchema,
        secret_key: SecretKey | bytes,
        rng: RandomSource | None = None,
        encrypt_payload: bool = True,
    ) -> None:
        if isinstance(secret_key, (bytes, bytearray)):
            secret_key = SecretKey(bytes(secret_key))
        self._schema = schema
        self._keys = KeyHierarchy(secret_key)
        self._rng = rng if rng is not None else SystemRng()
        self._tuple_codec = TupleCodec(schema)
        self._encrypt_payload = encrypt_payload
        self._payload_cipher = (
            SymmetricCipher(self._keys.get(f"{self.name}/payload"), rng=self._rng)
            if encrypt_payload
            else None
        )

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #

    @abstractmethod
    def _search_field(self, attribute: Attribute, value) -> bytes:
        """Deterministic searchable field for ``value`` of ``attribute``."""

    # ------------------------------------------------------------------ #
    # DatabasePrivacyHomomorphism interface
    # ------------------------------------------------------------------ #

    @property
    def schema(self) -> RelationSchema:
        """The outsourced relation's schema."""
        return self._schema

    @property
    def keys(self) -> KeyHierarchy:
        """The key hierarchy (exposed for subclasses)."""
        return self._keys

    def _searchable(self, relation_tuple: RelationTuple, encoded_values: list[bytes]):
        """The row's deterministic field per attribute: its search fields."""
        return tuple(
            self._search_field(attribute, relation_tuple.value(attribute.name))
            for attribute in self._schema.attributes
        )

    def _search_fields(self, searchable, draws):
        """The fields need no randomness; no metadata."""
        return [(fields, b"") for fields in searchable]

    def encrypt_query(self, query: Query) -> EncryptedQuery:
        """``Eq``: the deterministic field of the searched value, per predicate."""
        tokens = []
        for predicate in selection_predicates(query):
            attribute = self._schema.attribute(predicate.attribute)
            attribute.validate_value(predicate.value)
            index = self._schema.position(predicate.attribute)
            field = self._search_field(attribute, predicate.value)
            tokens.append(encode_field_token(index, field))
        return EncryptedQuery(scheme_name=self.name, tokens=tuple(tokens))

    def server_evaluator(self) -> "FieldMatchEvaluator":
        """The keyless field-equality evaluator."""
        return FieldMatchEvaluator(self.name)


class FieldMatchEvaluator(ServerEvaluator):
    """Keyless server-side evaluation: match tokens against stored fields."""

    def __init__(self, scheme_name: str) -> None:
        self._scheme_name = scheme_name

    @property
    def scheme_name(self) -> str:
        """Identifier matched against :attr:`EncryptedQuery.scheme_name`."""
        return self._scheme_name

    def describe(self) -> dict:
        """Public parameters for remote deployment (no key material)."""
        return {"type": "field-match", "scheme_name": self._scheme_name}

    def compile_token(self, raw_token: bytes) -> TupleFilter:
        """Tuples whose field at the token's attribute position equals its field."""
        index, field = decode_field_token(raw_token)

        def keep(tuples: Sequence[EncryptedTuple]) -> list[EncryptedTuple]:
            return [
                t for t in tuples
                if index < len(t.search_fields) and t.search_fields[index] == field
            ]

        return keep
