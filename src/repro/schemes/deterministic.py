"""Deterministic-encryption database PH.

The simplest way to make exact selects work over ciphertext is to encrypt
every attribute value deterministically (a full-width PRF image) and match on
equality.  Unlike bucketization or hashed indexes there are no false
positives, but the scheme reveals the complete equality pattern of every
attribute -- it is the clearest illustration of why deterministic weak
encryptions lose the indistinguishability game of Definition 1.2, and it is
the strongest baseline in terms of query efficiency.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.keys import SecretKey
from repro.crypto.prf import Prf
from repro.crypto.rng import RandomSource
from repro.relational.encoding import ValueCodec
from repro.relational.schema import Attribute, RelationSchema
from repro.schemes.base import FieldMatchDph

#: Width in bytes of the deterministic field (collisions are negligible).
FIELD_LEN = 16


class DeterministicDph(FieldMatchDph):
    """Database PH whose searchable fields are full-width deterministic PRF images."""

    def __init__(
        self,
        schema: RelationSchema,
        secret_key: SecretKey | bytes,
        rng: RandomSource | None = None,
    ) -> None:
        super().__init__(schema, secret_key, rng=rng, encrypt_payload=True)
        self._field_prfs: dict[str, Callable[[bytes], bytes]] = {}

    @property
    def name(self) -> str:
        """Scheme identifier."""
        return "deterministic"

    def _search_field(self, attribute: Attribute, value) -> bytes:
        if attribute.name not in self._field_prfs:
            self._field_prfs[attribute.name] = Prf(
                self.keys.get(f"deterministic/field/{attribute.name}")
            ).fixed(FIELD_LEN)
        return self._field_prfs[attribute.name](ValueCodec.encode(attribute, value))
