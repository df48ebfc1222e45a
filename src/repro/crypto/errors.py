"""Exception hierarchy for the cryptographic substrate.

Every error raised by :mod:`repro.crypto` derives from :class:`CryptoError`,
so callers can catch a single base class at trust boundaries (e.g. the client
decrypting data returned by an untrusted server).
"""

from __future__ import annotations


class CryptoError(Exception):
    """Base class for all cryptographic errors in this package."""


class KeyError_(CryptoError):
    """A key has the wrong length, type, or is otherwise unusable.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`KeyError`.
    """


class PaddingError(CryptoError):
    """Padding is malformed and cannot be removed.

    Raised by :func:`repro.crypto.padding.hash_unpad` when the padded input
    does not conform to the expected format.  Callers that decrypt
    attacker-controlled data should treat this identically to
    :class:`DecryptionError` to avoid padding-oracle style information leaks.
    """


class DecryptionError(CryptoError):
    """A ciphertext could not be decrypted (malformed or wrong key)."""


class IntegrityError(DecryptionError):
    """An authentication tag did not verify.

    Subclass of :class:`DecryptionError` because an integrity failure always
    implies the ciphertext must be rejected.
    """


class ParameterError(CryptoError):
    """A primitive was instantiated with invalid parameters."""
