"""Randomized authenticated symmetric encryption.

This is the "secure cipher" of the paper: the scheme with which every tuple
payload is encrypted before being stored at the untrusted server.  It is a
standard encrypt-then-MAC composition:

* confidentiality: CTR keystream derived from a PRF and a fresh random nonce
  (IND-CPA under the PRF assumption);
* integrity: HMAC-SHA256 over ``nonce || ciphertext`` (INT-CTXT).

Ciphertexts are represented by :class:`SymmetricCiphertext` and serialize to
``nonce || tag || body`` via :meth:`SymmetricCiphertext.to_bytes`.

:meth:`SymmetricCipher.open_many` opens a batch (a query result's
payloads) in one call to the native kernel of :mod:`repro.native` when it is
loaded; a caller re-runs :meth:`SymmetricCipher.decrypt_bytes`, the
reference, on every row it left unopened.  :meth:`SymmetricCipher.seal_many`
is its mirror on the encrypt path: a batch of payloads sealed under nonces the
caller drew, in one kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import native
from repro.crypto.errors import DecryptionError, KeyError_, ParameterError
from repro.crypto.kdf import derive_key
from repro.crypto.mac import TAG_LEN, Hmac
from repro.crypto.prf import Prf, hmac_block_key
from repro.crypto.prg import KEYSTREAM_BLOCK_LEN, prf_keystream, xor_bytes
from repro.crypto.rng import RandomSource, SystemRng

#: Nonce length in bytes.
NONCE_LEN = 16


@dataclass(frozen=True)
class SymmetricCiphertext:
    """A ciphertext produced by :class:`SymmetricCipher`."""

    nonce: bytes
    tag: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        """Serialize as ``nonce || tag || body``."""
        return self.nonce + self.tag + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "SymmetricCiphertext":
        """Parse the ``nonce || tag || body`` wire format."""
        if len(raw) < NONCE_LEN + TAG_LEN:
            raise DecryptionError("ciphertext too short")
        return cls(
            nonce=raw[:NONCE_LEN],
            tag=raw[NONCE_LEN: NONCE_LEN + TAG_LEN],
            body=raw[NONCE_LEN + TAG_LEN:],
        )

    def __len__(self) -> int:
        return NONCE_LEN + TAG_LEN + len(self.body)


class SymmetricCipher:
    """Authenticated encryption with associated data (encrypt-then-MAC).

    Both halves are keyed once here: the keystream PRF and the MAC hold
    their absorbed-key hash states, so a message costs no key set-up.
    """

    def __init__(self, key: bytes, rng: RandomSource | None = None) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise KeyError_("symmetric key must be at least 16 bytes")
        stream = Prf(derive_key(bytes(key), "symmetric/enc"), label=b"ks")
        mac_key = derive_key(bytes(key), "symmetric/mac")
        self._stream_block = stream.fixed(KEYSTREAM_BLOCK_LEN)
        self._mac = Hmac(mac_key)
        _, _, stream_suffix, stream_key = stream.single_block(KEYSTREAM_BLOCK_LEN)
        #: The native kernel's key arguments (``open_payloads``,
        #: ``seal_payloads``, ``open_result``): both
        #: HMACs' padded key blocks and the keystream's suffix.
        self.kernel_keys = (stream_key, stream_suffix, hmac_block_key(mac_key))
        self._rng = rng if rng is not None else SystemRng()

    def encrypt(self, plaintext: bytes, associated_data: bytes = b"") -> SymmetricCiphertext:
        """Encrypt and authenticate ``plaintext`` (binding ``associated_data``)."""
        return SymmetricCiphertext.from_bytes(self.encrypt_bytes(plaintext, associated_data))

    def decrypt(self, ciphertext: SymmetricCiphertext, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`~repro.crypto.errors.IntegrityError` on tampering."""
        return self.decrypt_bytes(ciphertext.to_bytes(), associated_data)

    def encrypt_bytes(self, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        """Encrypt and return the serialized ``nonce || tag || body`` wire format."""
        return self._seal(plaintext, associated_data, self._rng.bytes(NONCE_LEN))

    def seal_many(
        self,
        plaintexts: Sequence[bytes],
        associated_data: Sequence[bytes],
        nonces: Sequence[bytes],
    ) -> list[bytes]:
        """Each row's ``nonce || tag || body``, in order: :meth:`encrypt_bytes`
        under the caller's nonces.

        The batch is sealed in one call to the native kernel when it is
        loaded; a row it leaves ``None`` (not plain ``bytes``, or a nonce of
        another length) and every row without it go through the Python
        reference, which raises what ``encrypt_bytes`` would.
        """
        if not len(plaintexts) == len(associated_data) == len(nonces):
            raise ParameterError("plaintexts, associated data and nonces differ in length")
        kernel = native.kernel
        if kernel is None:
            sealed = [None] * len(plaintexts)
        else:
            sealed = kernel.seal_payloads(plaintexts, associated_data, nonces, *self.kernel_keys)
        for index, raw in enumerate(sealed):
            if raw is None:
                sealed[index] = self._seal(
                    plaintexts[index], associated_data[index], nonces[index]
                )
        return sealed

    def _seal(self, plaintext: bytes, associated_data: bytes, nonce: bytes) -> bytes:
        """The reference of ``seal_payloads``: CTR under ``nonce``, then the MAC."""
        if len(nonce) != NONCE_LEN:
            raise ParameterError(f"nonce must be {NONCE_LEN} bytes")
        body = xor_bytes(plaintext, prf_keystream(self._stream_block, len(plaintext), nonce))
        return nonce + self._mac.tag(associated_data + nonce + body) + body

    def decrypt_bytes(self, raw: bytes, associated_data: bytes = b"") -> bytes:
        """Parse the wire format, verify the tag, then decrypt.

        ``raw`` and ``associated_data`` may be any bytes-like objects; their
        bytes are what is read.
        """
        if not isinstance(raw, bytes):
            raw = bytes(memoryview(raw))
        if len(raw) < NONCE_LEN + TAG_LEN:
            raise DecryptionError("ciphertext too short")
        nonce, body = raw[:NONCE_LEN], raw[NONCE_LEN + TAG_LEN:]
        self._mac.verify(
            b"".join((associated_data, nonce, body)), raw[NONCE_LEN: NONCE_LEN + TAG_LEN]
        )
        return xor_bytes(body, prf_keystream(self._stream_block, len(body), nonce))

    def open_many(
        self, raws: Sequence[bytes], associated_data: Sequence[bytes]
    ) -> list[bytes | None]:
        """The native kernel's opening of each ``(raw, associated_data)`` row.

        A row is its plaintext, or ``None`` where :meth:`decrypt_bytes` must
        decide -- too short, forged, not a plain byte buffer, or any row
        when the kernel is not loaded.
        """
        if len(raws) != len(associated_data):
            raise ParameterError("payloads and associated data differ in length")
        kernel = native.kernel
        if kernel is None:
            return [None] * len(raws)
        return kernel.open_payloads(raws, associated_data, *self.kernel_keys)
