"""Pseudorandom generator / keystream.

The SWP searchable encryption scheme encrypts the i-th word of a document by
XORing it with a pseudorandom value ``S_i`` drawn from a keystream.  This
module provides that keystream: a counter-mode generator built on the PRF of
:mod:`repro.crypto.prf`.

:class:`Prg` supports both sequential expansion (``next_block``) and random
access (``block_at``), the latter being what allows the server in the SWP
scheme to check a candidate position without replaying the whole stream.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.errors import ParameterError
from repro.crypto.prf import Prf


class Prg:
    """Counter-mode pseudorandom generator.

    Parameters
    ----------
    key:
        Seed key (>= 16 bytes).
    block_size:
        Size in bytes of each generated block.
    label:
        Domain-separation label, so several independent streams can be derived
        from the same key.
    """

    def __init__(self, key: bytes, block_size: int = 32, label: bytes | str = b"prg") -> None:
        if block_size <= 0:
            raise ParameterError("block size must be positive")
        self._block = Prf(key, label=label).fixed(block_size)
        self._block_size = block_size
        self._position = 0

    @property
    def block_size(self) -> int:
        """Size in bytes of each block produced by this generator."""
        return self._block_size

    def block_at(self, index: int) -> bytes:
        """Return the ``index``-th block of the stream (random access)."""
        if index < 0:
            raise ParameterError("block index must be non-negative")
        return self._block(index.to_bytes(8, "big"))

    def next_block(self) -> bytes:
        """Return the next block in sequence, advancing the internal cursor."""
        block = self.block_at(self._position)
        self._position += 1
        return block

    def reset(self) -> None:
        """Rewind the sequential cursor to the start of the stream."""
        self._position = 0

    def generate(self, n: int) -> bytes:
        """Return ``n`` bytes starting from the current sequential position.

        The cursor advances by the number of whole blocks consumed; partial
        blocks are not re-consumed on the next call (the generator is meant
        for block-aligned use, as in SWP; arbitrary-length needs are served by
        :func:`keystream`).
        """
        if n < 0:
            raise ParameterError("n must be non-negative")
        out = bytearray()
        while len(out) < n:
            out.extend(self.next_block())
        return bytes(out[:n])


#: Keystream bytes per PRF call.
KEYSTREAM_BLOCK_LEN = 32


def prf_keystream(
    block: Callable[[bytes], bytes], length: int, nonce: bytes = b""
) -> bytes:
    """Return ``length`` keystream bytes bound to ``nonce``.

    ``block`` is a keyed PRF's ``fixed(KEYSTREAM_BLOCK_LEN)`` evaluator.
    """
    if length < 0:
        raise ParameterError("length must be non-negative")
    blocks = []
    for counter in range(-(-length // KEYSTREAM_BLOCK_LEN)):
        blocks.append(block(nonce + counter.to_bytes(8, "big")))
    return b"".join(blocks)[:length]


def keystream(key: bytes, length: int, nonce: bytes = b"", label: bytes | str = b"ks") -> bytes:
    """Return ``length`` keystream bytes bound to ``(key, nonce)``.

    This is the primitive used by the CTR mode of
    :class:`repro.crypto.symmetric.SymmetricCipher`, which keys the PRF once
    and calls :func:`prf_keystream` per message.
    """
    return prf_keystream(Prf(key, label=label).fixed(KEYSTREAM_BLOCK_LEN), length, nonce)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ParameterError(f"xor operands must have equal length ({len(a)} != {len(b)})")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")
