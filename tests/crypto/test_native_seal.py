"""``SymmetricCipher.seal_many`` against ``encrypt_bytes``, on both paths.

``SealedPayloadDph.encrypt_tuples`` seals a batch of tuple payloads with
``seal_many`` under nonces it drew itself -- one ``seal_payloads`` call when
:mod:`repro.native` loaded its kernel, the Python reference ``_seal`` per row
otherwise and on every row the kernel leaves ``None``.  The module runs once
per path (the ``match_kernel`` fixture).  On each, a batch sealed under the
nonces a seeded generator gives must equal ``encrypt_bytes`` row by row under
the same generator -- bodies of 0 bytes and around the 32-byte keystream
block, empty and bytes-like associated data -- and every row must open again
through ``open_many`` and through ``decrypt_bytes``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.crypto.errors import ParameterError
from repro.crypto.rng import DeterministicRng
from repro.crypto.symmetric import NONCE_LEN, SymmetricCipher

pytestmark = pytest.mark.usefixtures("match_kernel")

KEY = bytes(range(32))
#: Empty, one byte, and either side of one, two and seven keystream blocks.
BODY_LENGTHS = (0, 1, 31, 32, 33, 63, 64, 65, 200, 224, 225)


def sealed_both_ways(plaintexts, ads, seed=7):
    """``(seal_many, encrypt_bytes per row)`` under one seeded generator each."""
    drawn = DeterministicRng(seed)
    nonces = [drawn.bytes(NONCE_LEN) for _ in plaintexts]
    batch = SymmetricCipher(KEY).seal_many(plaintexts, ads, nonces)
    one_by_one = SymmetricCipher(KEY, rng=DeterministicRng(seed))
    return batch, [one_by_one.encrypt_bytes(p, ad) for p, ad in zip(plaintexts, ads)]


def test_every_body_length_equals_encrypt_bytes_and_opens_again():
    plaintexts = [bytes(range(n % 256)) * (n // 256 + 1) for n in BODY_LENGTHS]
    plaintexts = [p[:n] for p, n in zip(plaintexts, BODY_LENGTHS)]
    ads = [b"", b"id"] * (len(plaintexts) // 2) + [b"x" * 16]
    batch, reference = sealed_both_ways(plaintexts, ads)
    assert batch == reference
    assert [len(raw) for raw in batch] == [48 + n for n in BODY_LENGTHS]
    cipher = SymmetricCipher(KEY)
    opened = cipher.open_many(batch, ads)
    if native.kernel is not None:
        assert opened == plaintexts
    assert [cipher.decrypt_bytes(raw, ad) for raw, ad in zip(batch, ads)] == plaintexts


@given(rows=st.lists(st.tuples(st.binary(max_size=130), st.binary(max_size=24)), max_size=12),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_drawn_batches_equal_encrypt_bytes(rows, seed):
    plaintexts = [plaintext for plaintext, _ in rows]
    ads = [ad for _, ad in rows]
    batch, reference = sealed_both_ways(plaintexts, ads, seed)
    assert batch == reference


def test_bytes_like_rows_seal_as_their_bytes():
    """A row that is not plain ``bytes`` goes to the Python reference, which
    reads a ``bytearray`` by its bytes as ``encrypt_bytes`` does."""
    plaintexts = [bytearray(b"payload"), b"payload", b"payload"]
    ads = [b"id", bytearray(b"id"), b"id"]
    batch, reference = sealed_both_ways(plaintexts, ads)
    assert batch == reference


def test_bad_batches_are_refused():
    cipher = SymmetricCipher(KEY)
    with pytest.raises(ParameterError, match="differ in length"):
        cipher.seal_many([b"a"], [b"id"], [])
    with pytest.raises(ParameterError, match="nonce must be 16 bytes"):
        cipher.seal_many([b"a", b"b"], [b"id", b"id"], [b"n" * 16, b"n" * 15])
    with pytest.raises(TypeError):
        cipher.seal_many(["text"], [b"id"], [b"n" * 16])
    assert cipher.seal_many([], [], []) == []
