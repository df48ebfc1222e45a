"""Tests for authenticated symmetric encryption, MACs and key derivation."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import DecryptionError, IntegrityError, KeyError_, ParameterError
from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract
from repro.crypto.mac import TAG_LEN, Hmac, verify_mac
from repro.crypto.prg import KEYSTREAM_BLOCK_LEN
from repro.crypto.rng import DeterministicRng
from repro.crypto.symmetric import NONCE_LEN, SymmetricCipher, SymmetricCiphertext

KEY = b"k" * 32


class TestHmac:
    def test_tag_length(self):
        assert len(Hmac(KEY).tag(b"m")) == TAG_LEN

    def test_verify_accepts_valid_tag(self):
        mac = Hmac(KEY)
        mac.verify(b"m", mac.tag(b"m"))

    def test_verify_rejects_modified_message(self):
        mac = Hmac(KEY)
        tag = mac.tag(b"m")
        with pytest.raises(IntegrityError):
            mac.verify(b"m2", tag)

    def test_verify_rejects_modified_tag(self):
        mac = Hmac(KEY)
        tag = bytearray(mac.tag(b"m"))
        tag[0] ^= 1
        with pytest.raises(IntegrityError):
            mac.verify(b"m", bytes(tag))

    def test_short_key_rejected(self):
        with pytest.raises(KeyError_):
            Hmac(b"short")

    def test_one_shot_helper(self):
        verify_mac(KEY, b"m", Hmac(KEY).tag(b"m"))


class TestKdf:
    def test_derive_key_is_deterministic(self):
        assert derive_key(KEY, "a") == derive_key(KEY, "a")

    def test_labels_separate_keys(self):
        assert derive_key(KEY, "a") != derive_key(KEY, "b")

    def test_lengths(self):
        assert len(derive_key(KEY, "a", 48)) == 48

    def test_expand_rejects_bad_lengths(self):
        prk = hkdf_extract(b"salt", KEY)
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"info", 0)
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"info", 255 * 32 + 1)

    @pytest.mark.parametrize("length", [32, 33, 255 * 32])
    def test_expand_boundary_lengths_match_rfc5869(self, length):
        import hashlib
        import hmac

        prk = hkdf_extract(b"salt", KEY)
        okm = previous = b""
        for counter in range(1, -(-length // 32) + 1):
            previous = hmac.new(
                prk, previous + b"info" + bytes([counter]), hashlib.sha256
            ).digest()
            okm += previous
        assert hkdf_expand(prk, b"info", length) == okm[:length]

    def test_extract_handles_empty_salt(self):
        assert hkdf_extract(b"", KEY) == hkdf_extract(b"", KEY)


class TestSymmetricCipher:
    def test_roundtrip(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(1))
        message = b"tuple payload bytes"
        assert cipher.decrypt(cipher.encrypt(message)) == message

    def test_randomized_encryption(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(2))
        first = cipher.encrypt(b"same message")
        second = cipher.encrypt(b"same message")
        assert first.body != second.body
        assert first.nonce != second.nonce

    def test_tampered_body_rejected(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(3))
        ciphertext = cipher.encrypt(b"message")
        tampered = SymmetricCiphertext(
            nonce=ciphertext.nonce,
            tag=ciphertext.tag,
            body=bytes([ciphertext.body[0] ^ 1]) + ciphertext.body[1:],
        )
        with pytest.raises(IntegrityError):
            cipher.decrypt(tampered)

    def test_associated_data_is_bound(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(4))
        ciphertext = cipher.encrypt(b"message", associated_data=b"tuple-1")
        with pytest.raises(IntegrityError):
            cipher.decrypt(ciphertext, associated_data=b"tuple-2")
        assert cipher.decrypt(ciphertext, associated_data=b"tuple-1") == b"message"

    def test_wire_format_roundtrip(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(5))
        raw = cipher.encrypt_bytes(b"message", associated_data=b"ad")
        assert cipher.decrypt_bytes(raw, associated_data=b"ad") == b"message"

    def test_wire_format_layout(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(6))
        ciphertext = cipher.encrypt(b"12345")
        raw = ciphertext.to_bytes()
        assert len(raw) == NONCE_LEN + TAG_LEN + 5
        parsed = SymmetricCiphertext.from_bytes(raw)
        assert parsed == ciphertext

    def test_truncated_wire_format_rejected(self):
        with pytest.raises(DecryptionError):
            SymmetricCiphertext.from_bytes(b"too short")

    def test_short_key_rejected(self):
        with pytest.raises(KeyError_):
            SymmetricCipher(b"short")

    def test_wrong_key_fails_integrity(self):
        first = SymmetricCipher(KEY, rng=DeterministicRng(7))
        second = SymmetricCipher(b"q" * 32)
        with pytest.raises(IntegrityError):
            second.decrypt(first.encrypt(b"message"))

    def test_empty_message_roundtrip(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(8))
        raw = cipher.encrypt_bytes(b"", associated_data=b"ad")
        assert len(raw) == NONCE_LEN + TAG_LEN
        assert cipher.decrypt_bytes(raw, associated_data=b"ad") == b""

    def test_different_keys_give_different_ciphertexts(self):
        first = SymmetricCipher(KEY, rng=DeterministicRng(9)).encrypt(b"same message")
        second = SymmetricCipher(b"q" * 32, rng=DeterministicRng(9)).encrypt(b"same message")
        assert first.nonce == second.nonce
        assert first.body != second.body
        assert first.tag != second.tag

    @pytest.mark.parametrize(
        "length",
        [0, 1, KEYSTREAM_BLOCK_LEN - 1, KEYSTREAM_BLOCK_LEN, KEYSTREAM_BLOCK_LEN + 1,
         2 * KEYSTREAM_BLOCK_LEN, 2 * KEYSTREAM_BLOCK_LEN + 1],
    )
    def test_roundtrip_across_keystream_blocks(self, length):
        """The body is exactly as long as the message, on and off block edges."""
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(10))
        message = bytes(range(length))
        raw = cipher.encrypt_bytes(message, associated_data=b"ad")
        assert len(raw) == NONCE_LEN + TAG_LEN + length
        assert raw[NONCE_LEN + TAG_LEN:] != message or length == 0
        assert cipher.decrypt_bytes(raw, associated_data=b"ad") == message

    @pytest.mark.parametrize(
        "start, stop",
        [(0, NONCE_LEN), (NONCE_LEN, NONCE_LEN + TAG_LEN), (NONCE_LEN + TAG_LEN, None)],
        ids=["nonce", "tag", "body"],
    )
    def test_a_flipped_bit_anywhere_is_rejected(self, start, stop):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(11))
        raw = cipher.encrypt_bytes(b"a payload of some length", associated_data=b"ad")
        for position in range(start, len(raw) if stop is None else stop):
            tampered = bytearray(raw)
            tampered[position] ^= 0x80
            with pytest.raises(IntegrityError):
                cipher.decrypt_bytes(bytes(tampered), associated_data=b"ad")

    def test_every_truncation_is_rejected(self):
        cipher = SymmetricCipher(KEY, rng=DeterministicRng(12))
        raw = cipher.encrypt_bytes(b"a payload of some length")
        for cut in range(len(raw)):
            with pytest.raises(DecryptionError):
                cipher.decrypt_bytes(raw[:cut])


@given(message=st.binary(min_size=0, max_size=300), ad=st.binary(min_size=0, max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_symmetric_roundtrip(message, ad):
    cipher = SymmetricCipher(KEY, rng=DeterministicRng(1000))
    assert cipher.decrypt(cipher.encrypt(message, ad), ad) == message


@given(key=st.binary(min_size=16, max_size=200), message=st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_property_prekeyed_hmac_equals_stdlib(key, message):
    """Keying once (also past the 64-byte block, where the key is hashed) changes nothing."""
    mac = Hmac(key)
    expected = hmac.new(key, message, hashlib.sha256).digest()
    assert mac.tag(message) == expected
    assert mac.tag(message) == expected  # the keyed state is copied, never consumed


@given(message=st.binary(max_size=300), ad=st.binary(max_size=30))
@settings(max_examples=60, deadline=None)
def test_property_bytes_and_object_forms_agree(message, ad):
    """``decrypt`` and ``decrypt_bytes`` share one core: each opens the other's output."""
    cipher = SymmetricCipher(KEY, rng=DeterministicRng(1000))
    assert cipher.decrypt_bytes(cipher.encrypt(message, ad).to_bytes(), ad) == message
    wire = cipher.encrypt_bytes(message, ad)
    assert cipher.decrypt(SymmetricCiphertext.from_bytes(wire), ad) == message
    with pytest.raises(IntegrityError):
        cipher.decrypt_bytes(wire, ad + b"x")
