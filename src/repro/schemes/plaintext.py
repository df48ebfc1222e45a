"""Plaintext passthrough "scheme".

Stores tuples and searchable fields in the clear.  It provides no security at
all; its only purpose is to serve as the performance floor in the overhead
experiments (E8, E9): the cost of the outsourcing machinery itself, with the
cryptography removed.
"""

from __future__ import annotations

from repro.crypto.keys import SecretKey
from repro.crypto.rng import RandomSource
from repro.relational.encoding import ValueCodec
from repro.relational.schema import Attribute, RelationSchema
from repro.schemes.base import FieldMatchDph


class PlaintextDph(FieldMatchDph):
    """No-op "encryption": plaintext payloads and plaintext searchable fields."""

    def __init__(
        self,
        schema: RelationSchema,
        secret_key: SecretKey | bytes | None = None,
        rng: RandomSource | None = None,
    ) -> None:
        if secret_key is None:
            secret_key = SecretKey.generate()
        super().__init__(schema, secret_key, rng=rng, encrypt_payload=False)

    @property
    def name(self) -> str:
        """Scheme identifier."""
        return "plaintext"

    def _search_field(self, attribute: Attribute, value) -> bytes:
        return ValueCodec.encode(attribute, value)

    def _searchable(self, relation_tuple, encoded_values: list[bytes]):
        """The row's value encodings, which are its plaintext fields: the
        bytes :meth:`_search_field` gives each value, already made once."""
        return tuple(encoded_values)
