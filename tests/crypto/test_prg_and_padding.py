"""Tests for the pseudorandom generator, keystream helper and '#' padding."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import PaddingError, ParameterError
from repro.crypto.padding import PAD_BYTE, hash_pad, hash_unpad
from repro.crypto.prg import Prg, keystream, xor_bytes

KEY = b"k" * 32


class TestPrg:
    def test_block_size_is_respected(self):
        assert len(Prg(KEY, block_size=24).block_at(0)) == 24

    def test_random_access_matches_sequential(self):
        prg = Prg(KEY, block_size=16)
        sequential = [prg.next_block() for _ in range(5)]
        assert sequential == [prg.block_at(i) for i in range(5)]

    def test_reset_restarts_the_stream(self):
        prg = Prg(KEY)
        first = prg.next_block()
        prg.reset()
        assert prg.next_block() == first

    def test_distinct_labels_give_distinct_streams(self):
        assert Prg(KEY, label=b"a").block_at(0) != Prg(KEY, label=b"b").block_at(0)

    def test_generate_returns_requested_length(self):
        assert len(Prg(KEY).generate(100)) == 100

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            Prg(KEY, block_size=0)
        with pytest.raises(ParameterError):
            Prg(KEY).block_at(-1)
        with pytest.raises(ParameterError):
            Prg(KEY).generate(-1)


class TestKeystream:
    def test_length(self):
        assert len(keystream(KEY, 77)) == 77

    def test_nonce_separates_streams(self):
        assert keystream(KEY, 32, nonce=b"a") != keystream(KEY, 32, nonce=b"b")

    def test_deterministic(self):
        assert keystream(KEY, 64, nonce=b"n") == keystream(KEY, 64, nonce=b"n")

    def test_xor_bytes_roundtrip(self):
        data = b"hello world"
        mask = keystream(KEY, len(data))
        assert xor_bytes(xor_bytes(data, mask), mask) == data

    def test_xor_bytes_length_mismatch(self):
        with pytest.raises(ParameterError):
            xor_bytes(b"ab", b"abc")


class TestHashPadding:
    """The paper's '#' padding for fixed-width attribute values."""

    def test_pads_to_width_with_hash(self):
        assert hash_pad(b"HR", 10) == b"HR########"

    def test_roundtrip(self):
        assert hash_unpad(hash_pad(b"7500", 10)) == b"7500"

    def test_value_equal_to_width(self):
        assert hash_pad(b"Montgomery", 10) == b"Montgomery"

    def test_too_long_value_rejected(self):
        with pytest.raises(PaddingError):
            hash_pad(b"Montgomery", 5)

    def test_value_containing_pad_byte_rejected(self):
        with pytest.raises(PaddingError):
            hash_pad(b"a#b", 10)

    def test_interior_pad_byte_detected_on_unpad(self):
        with pytest.raises(PaddingError):
            hash_unpad(b"a#b#")

    def test_pad_byte_constant_is_hash(self):
        assert PAD_BYTE == b"#"


@given(value=st.binary(min_size=0, max_size=20).filter(lambda v: b"#" not in v),
       extra=st.integers(min_value=0, max_value=20))
@settings(max_examples=80, deadline=None)
def test_property_hash_pad_roundtrip(value, extra):
    width = len(value) + extra
    if width == 0:
        width = 1
    assert hash_unpad(hash_pad(value, width)) == value
