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
from functools import lru_cache
from typing import Callable

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


def hmac_block_key(key: bytes) -> bytes:
    """The HMAC-SHA256 key as the block it is absorbed as: hashed first when
    longer than the block, as HMAC specifies, then zero-padded to it."""
    if len(key) > _BLOCK_SIZE:
        key = _DIGEST(key).digest()
    return key.ljust(_BLOCK_SIZE, b"\x00")


def keyed_hmac_states(key: bytes):
    """HMAC-SHA256 keyed once: the ``(inner, outer)`` hash states after the padded key.

    A tag is then two ``copy()`` calls and two finalisations, which costs a
    fraction of keying (or of copying) an ``hmac`` object.
    """
    key = hmac_block_key(key)
    return _DIGEST(key.translate(_IPAD)), _DIGEST(key.translate(_OPAD))


@lru_cache(maxsize=64)
def _block_suffixes(out_len: int) -> tuple[bytes, ...]:
    """What each chained block of an ``out_len``-byte output appends to its input.

    ``"|" || out_len (4 bytes) || counter (1 byte)``, one per digest block: the
    requested length is mixed in so ``F(x, 16)`` and ``F(x, 32)`` are
    independent.  Public lengths only, so the cache is shared by every key.
    """
    if out_len <= 0:
        raise ParameterError("output length must be positive")
    block_count = -(-out_len // _DIGEST_SIZE)
    if block_count > MAX_BLOCKS:
        raise ParameterError("requested PRF output too long")
    info = b"|" + out_len.to_bytes(4, "big")
    return tuple(info + bytes([counter]) for counter in range(1, block_count + 1))


def one_block_suffix(out_len: int) -> bytes | None:
    """What an ``out_len``-byte output appends to its message when it is one
    HMAC, else ``None`` (it chains blocks).

    For native code that keys a PRF itself, as ``prf_once`` does.
    """
    suffixes = _block_suffixes(out_len)
    return suffixes[0] if len(suffixes) == 1 else None


def _mac_key(key: bytes, label: bytes | str = b"") -> bytes:
    """Validate a PRF key and bind the domain-separation label to it."""
    if not isinstance(key, (bytes, bytearray)):
        raise KeyError_("PRF key must be bytes")
    if len(key) < MIN_KEY_LEN:
        raise KeyError_(
            f"PRF key must be at least {MIN_KEY_LEN} bytes, got {len(key)}"
        )
    if isinstance(label, str):
        label = label.encode("utf-8")
    return bytes(key) + b"|" + bytes(label)


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
        self._block_key = hmac_block_key(_mac_key(key, label))
        self._inner, self._outer = keyed_hmac_states(self._block_key)

    def _hmac(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def single_block(self, out_len: int):
        """``(copy_inner, copy_outer, suffix, block_key)`` when ``out_len`` bytes
        are one HMAC, else ``None``.

        For a scan that inlines the evaluation in its own loop: the output for
        ``message`` is the first ``out_len`` bytes of the outer digest after
        ``inner = copy_inner(); inner.update(message + suffix); outer =
        copy_outer(); outer.update(inner.digest())`` -- exactly what
        :meth:`fixed` computes.  ``block_key`` (see :func:`hmac_block_key`)
        is what the two states were keyed from, for a loop in native code.
        """
        suffixes = _block_suffixes(out_len)
        if len(suffixes) > 1:
            return None
        return self._inner.copy, self._outer.copy, suffixes[0], self._block_key

    def fixed(self, out_len: int) -> Callable[[bytes], bytes]:
        """The evaluator ``message -> out_len bytes``, for callers whose length is fixed.

        Everything that depends on ``out_len`` alone is decided here, once:
        the suffix is built, and an output of at most one digest is a single
        HMAC over the copied key states while a longer one chains
        HKDF-Expand-style, ``T_i = HMAC(key, T_{i-1} || message || "|" ||
        out_len (4 bytes) || i)``.  ``message`` must be ``bytes``.
        """
        one_block = self.single_block(out_len)
        if one_block is None:
            suffixes = _block_suffixes(out_len)

            def evaluate(message: bytes) -> bytes:
                blocks = []
                previous = b""
                for suffix in suffixes:
                    previous = self._hmac(previous + message + suffix)
                    blocks.append(previous)
                return b"".join(blocks)[:out_len]

            return evaluate

        copy_inner, copy_outer, suffix, _ = one_block

        def evaluate(message: bytes) -> bytes:
            inner = copy_inner()
            inner.update(message + suffix)
            outer = copy_outer()
            outer.update(inner.digest())
            return outer.digest()[:out_len]

        return evaluate

    def evaluate(self, message: bytes, out_len: int = _DIGEST_SIZE) -> bytes:
        """Return ``out_len`` pseudorandom bytes determined by ``message``.

        The general form of :meth:`fixed` (which see for the derivation), for
        callers whose output length varies from call to call.
        """
        evaluate = self.fixed(out_len)
        if not isinstance(message, (bytes, bytearray)):
            raise ParameterError("PRF input must be bytes")
        return evaluate(bytes(message))

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
    """``Prf(key).evaluate(message, out_len)`` for a key that is used this once.

    An output of at most one digest (every SWP check value in practice) is a
    one-shot HMAC: the key is absorbed into two hash objects that are
    finalised in place, not copied, and no keyed object outlives the call.
    """
    suffixes = _block_suffixes(out_len)
    if len(suffixes) > 1:
        return Prf(key).evaluate(message, out_len)
    if not isinstance(message, (bytes, bytearray)):
        raise ParameterError("PRF input must be bytes")
    inner, outer = keyed_hmac_states(_mac_key(key))
    inner.update(message + suffixes[0])
    outer.update(inner.digest())
    return outer.digest()[:out_len]
