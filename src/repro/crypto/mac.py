"""Message authentication codes.

The authenticated symmetric cipher (:mod:`repro.crypto.symmetric`) follows the
encrypt-then-MAC composition; this module provides the MAC half.  A MAC is
also what lets the client (Alex) detect a server (Eve) that tampers with
stored ciphertexts -- not something the paper's honest-but-curious model
requires, but a property any real deployment of the construction would want.
"""

from __future__ import annotations

import hmac

from repro.crypto.errors import IntegrityError, KeyError_
from repro.crypto.prf import keyed_hmac_states

#: Length in bytes of the tags produced by :class:`Hmac`.
TAG_LEN = 32


class Hmac:
    """HMAC-SHA256 message authentication."""

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise KeyError_("MAC key must be at least 16 bytes")
        self._inner, self._outer = keyed_hmac_states(bytes(key))

    def tag(self, message: bytes) -> bytes:
        """Return the authentication tag for ``message``."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, message: bytes, tag: bytes) -> None:
        """Verify a tag in constant time; raise :class:`IntegrityError` on mismatch."""
        expected = self.tag(message)
        if not hmac.compare_digest(expected, tag):
            raise IntegrityError("MAC verification failed")


def verify_mac(key: bytes, message: bytes, tag: bytes) -> None:
    """One-shot MAC verification."""
    Hmac(key).verify(message, tag)
