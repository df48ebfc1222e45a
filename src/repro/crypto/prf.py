"""Pseudorandom functions.

The Song--Wagner--Perrig searchable encryption scheme (the substrate of the
paper's construction, Section 3) is described in terms of three keyed
primitives: a pseudorandom generator *G*, a pseudorandom function *F* and a
keyed hash/PRF family *f*.  This module provides the PRF; the generator lives
in :mod:`repro.crypto.prg`.

The PRF is instantiated as HMAC-SHA256 with an output-length extension in the
style of HKDF-Expand, so callers can request arbitrary output lengths while
distinct lengths on the same input remain prefix-consistent only when the
caller asks for them to be (they are not, by design: the requested length is
mixed into the derivation to keep outputs of different lengths independent).
"""

from __future__ import annotations

import hashlib

from repro.crypto.errors import KeyError_, ParameterError

_DIGEST = hashlib.sha256
_DIGEST_SIZE = _DIGEST().digest_size
_BLOCK_SIZE = _DIGEST().block_size
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))

#: Minimum key length (bytes) accepted by :class:`Prf`.
MIN_KEY_LEN = 16

#: Most digest blocks one evaluation may chain (the counter is one byte).
MAX_BLOCKS = 255


def keyed_hmac_states(key: bytes):
    """HMAC-SHA256 keyed once: the ``(inner, outer)`` hash states after the padded key.

    A tag is then two ``copy()`` calls and two finalisations, which costs a
    fraction of keying (or of copying) an ``hmac`` object.  Keys longer than
    the block are hashed first, as HMAC specifies.
    """
    if len(key) > _BLOCK_SIZE:
        key = _DIGEST(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return _DIGEST(key.translate(_IPAD)), _DIGEST(key.translate(_OPAD))


class Prf:
    """A variable-output-length pseudorandom function keyed with ``key``.

    Parameters
    ----------
    key:
        Secret key, at least :data:`MIN_KEY_LEN` bytes.
    label:
        Optional domain-separation label.  Two PRFs with the same key but
        different labels behave as independent random functions, which is how
        the library derives the many sub-keys used by the searchable scheme
        (word key, check key, stream key, ...) from one master secret.
    """

    def __init__(self, key: bytes, label: bytes | str = b"") -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise KeyError_("PRF key must be bytes")
        if len(key) < MIN_KEY_LEN:
            raise KeyError_(
                f"PRF key must be at least {MIN_KEY_LEN} bytes, got {len(key)}"
            )
        if isinstance(label, str):
            label = label.encode("utf-8")
        self._inner, self._outer = keyed_hmac_states(bytes(key) + b"|" + bytes(label))

    def _hmac(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def evaluate(self, message: bytes, out_len: int = _DIGEST_SIZE) -> bytes:
        """Return ``out_len`` pseudorandom bytes determined by ``message``.

        For ``out_len`` larger than one digest the output is produced by
        HKDF-Expand-style chaining: ``T_i = HMAC(key, T_{i-1} || message || i)``.
        """
        if out_len <= 0:
            raise ParameterError("output length must be positive")
        if not isinstance(message, (bytes, bytearray)):
            raise ParameterError("PRF input must be bytes")
        # Mix the output length in so F(x, 16) and F(x, 32) are independent.
        info = bytes(message) + b"|" + out_len.to_bytes(4, "big")
        if out_len <= _DIGEST_SIZE:
            return self._hmac(info + b"\x01")[:out_len]
        block_count = -(-out_len // _DIGEST_SIZE)
        if block_count > MAX_BLOCKS:
            raise ParameterError("requested PRF output too long")
        blocks = []
        previous = b""
        for counter in range(1, block_count + 1):
            previous = self._hmac(previous + info + bytes([counter]))
            blocks.append(previous)
        return b"".join(blocks)[:out_len]

    def evaluate_int(self, message: bytes, modulus: int) -> int:
        """Return a pseudorandom integer in ``[0, modulus)``.

        The output is taken modulo ``modulus`` from 8 extra bytes of PRF
        output, which keeps the statistical distance from uniform below
        ``2^-64`` for any modulus that fits in 64 bits fewer than the output.
        """
        if modulus <= 0:
            raise ParameterError("modulus must be positive")
        nbytes = (modulus.bit_length() + 7) // 8 + 8
        return int.from_bytes(self.evaluate(message, nbytes), "big") % modulus

    def derive(self, label: bytes | str) -> "Prf":
        """Return an independent PRF derived from this one by a label."""
        if isinstance(label, str):
            label = label.encode("utf-8")
        sub_key = self.evaluate(b"derive|" + label, _DIGEST_SIZE)
        return Prf(sub_key)

    def __call__(self, message: bytes, out_len: int = _DIGEST_SIZE) -> bytes:
        return self.evaluate(message, out_len)


def prf_once(key: bytes, message: bytes, out_len: int = _DIGEST_SIZE) -> bytes:
    """Convenience wrapper: evaluate a PRF a single time without keeping state."""
    return Prf(key).evaluate(message, out_len)
