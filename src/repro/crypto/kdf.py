"""Key derivation (HKDF, RFC 5869 style).

A single master key per outsourced database is expanded into the family of
sub-keys the construction needs: the tuple-payload encryption key, the
word-encryption key of the searchable scheme, the check-PRF key, the stream
key, the MAC key, and the bucket-permutation key of the baseline schemes.
Deriving them all from one secret keeps the user-facing API of
:class:`repro.core.construction.SearchableSelectDph` down to "one key",
exactly like the abstract ``(K, E, Eq, D)`` of Definition 1.1.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.errors import ParameterError

_DIGEST = hashlib.sha256
_DIGEST_SIZE = _DIGEST().digest_size


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract: concentrate possibly non-uniform key material into a PRK."""
    if not salt:
        salt = b"\x00" * _DIGEST_SIZE
    return hmac.new(salt, input_key_material, _DIGEST).digest()


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: derive ``length`` output bytes bound to ``info``."""
    if length <= 0:
        raise ParameterError("derived key length must be positive")
    if length > 255 * _DIGEST_SIZE:
        raise ParameterError("derived key length too large for HKDF-Expand")
    blocks = []
    previous = b""
    for counter in range(1, -(-length // _DIGEST_SIZE) + 1):
        previous = hmac.new(
            pseudo_random_key, previous + info + bytes([counter]), _DIGEST
        ).digest()
        blocks.append(previous)
    return b"".join(blocks)[:length]


def derive_key(master_key: bytes, label: str, length: int = 32, salt: bytes = b"repro") -> bytes:
    """Derive a ``length``-byte sub-key identified by ``label`` from ``master_key``.

    Distinct labels yield computationally independent keys.
    """
    prk = hkdf_extract(salt, master_key)
    return hkdf_expand(prk, label.encode("utf-8"), length)
