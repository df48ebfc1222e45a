"""Tests for the pseudorandom permutations (Feistel, unbalanced Feistel, integer)."""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import ParameterError
from repro.crypto.prp import FeistelPrp, IntegerPrp, UnbalancedFeistelPrp

KEY = b"k" * 32


class TestFeistelPrp:
    def test_roundtrip(self):
        prp = FeistelPrp(KEY, 16)
        block = bytes(range(16))
        assert prp.invert(prp.permute(block)) == block

    def test_permutation_changes_input(self):
        prp = FeistelPrp(KEY, 16)
        assert prp.permute(b"\x00" * 16) != b"\x00" * 16

    def test_is_injective_on_sample(self):
        prp = FeistelPrp(KEY, 2)
        images = {prp.permute(bytes([a, b])) for a in range(32) for b in range(32)}
        assert len(images) == 32 * 32

    def test_tweak_separates_domains(self):
        prp = FeistelPrp(KEY, 16)
        block = bytes(16)
        assert prp.permute(block, tweak=b"a") != prp.permute(block, tweak=b"b")

    def test_tweak_roundtrip(self):
        prp = FeistelPrp(KEY, 16)
        block = bytes(range(16))
        assert prp.invert(prp.permute(block, tweak=b"t"), tweak=b"t") == block

    def test_rejects_odd_or_tiny_blocks(self):
        with pytest.raises(ParameterError):
            FeistelPrp(KEY, 15)
        with pytest.raises(ParameterError):
            FeistelPrp(KEY, 0)

    def test_rejects_too_few_rounds(self):
        with pytest.raises(ParameterError):
            FeistelPrp(KEY, 16, rounds=2)

    def test_rejects_wrong_block_length(self):
        prp = FeistelPrp(KEY, 16)
        with pytest.raises(ParameterError):
            prp.permute(b"short")
        with pytest.raises(ParameterError):
            prp.invert(b"short")


class TestUnbalancedFeistelPrp:
    @pytest.mark.parametrize("length", [2, 3, 5, 7, 10, 11, 17, 33])
    def test_roundtrip_any_length(self, length):
        prp = UnbalancedFeistelPrp(KEY, length)
        block = bytes(i % 256 for i in range(length))
        assert prp.invert(prp.permute(block)) == block

    def test_injective_on_small_domain(self):
        prp = UnbalancedFeistelPrp(KEY, 3)
        inputs = [bytes([a, b, 7]) for a in range(64) for b in range(64)]
        images = {prp.permute(i) for i in inputs}
        assert len(images) == len(inputs)

    def test_different_keys_differ(self):
        block = b"wordword"
        assert (
            UnbalancedFeistelPrp(KEY, 8).permute(block)
            != UnbalancedFeistelPrp(b"q" * 32, 8).permute(block)
        )

    def test_rejects_length_one(self):
        with pytest.raises(ParameterError):
            UnbalancedFeistelPrp(KEY, 1)

    def test_rejects_wrong_length_input(self):
        prp = UnbalancedFeistelPrp(KEY, 11)
        with pytest.raises(ParameterError):
            prp.permute(b"x" * 10)


class TestIntegerPrp:
    @pytest.mark.parametrize("domain", [1, 2, 3, 10, 16, 100, 1000])
    def test_is_a_bijection(self, domain):
        prp = IntegerPrp(KEY, domain)
        images = [prp.permute(i) for i in range(domain)]
        assert sorted(images) == list(range(domain))

    @pytest.mark.parametrize("domain", [1, 2, 17, 64, 257])
    def test_invert_recovers_input(self, domain):
        prp = IntegerPrp(KEY, domain)
        for value in range(domain):
            assert prp.invert(prp.permute(value)) == value

    def test_out_of_domain_rejected(self):
        prp = IntegerPrp(KEY, 10)
        with pytest.raises(ParameterError):
            prp.permute(10)
        with pytest.raises(ParameterError):
            prp.invert(-1)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ParameterError):
            IntegerPrp(KEY, 0)

    def test_different_keys_give_different_permutations(self):
        domain = 64
        first = [IntegerPrp(KEY, domain).permute(i) for i in range(domain)]
        second = [IntegerPrp(b"q" * 32, domain).permute(i) for i in range(domain)]
        assert first != second


@given(length=st.integers(min_value=2, max_value=24), data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_unbalanced_feistel_roundtrip(length, data):
    block = data.draw(st.binary(min_size=length, max_size=length))
    prp = UnbalancedFeistelPrp(KEY, length)
    assert prp.invert(prp.permute(block)) == block


@given(domain=st.integers(min_value=1, max_value=300), data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_integer_prp_roundtrip(domain, data):
    value = data.draw(st.integers(min_value=0, max_value=domain - 1))
    prp = IntegerPrp(KEY, domain)
    assert prp.invert(prp.permute(value)) == value


# --------------------------------------------------------------------------- #
# Differential: the compiled round loop against the textbook networks, written
# round by round over stdlib ``hmac`` only (none of the library's PRF code).
# --------------------------------------------------------------------------- #


def textbook_prf(key: bytes, label: str, message: bytes, out_len: int) -> bytes:
    info = message + b"|" + out_len.to_bytes(4, "big")
    out = previous = b""
    counter = 1
    while len(out) < out_len:
        previous = hmac.new(
            key + b"|" + label.encode(), previous + info + bytes([counter]), hashlib.sha256
        ).digest()
        out += previous
        counter += 1
    return out[:out_len]


def textbook_xor(a: bytes, b: bytes) -> bytes:
    assert len(a) == len(b)
    return bytes(x ^ y for x, y in zip(a, b))


def textbook_balanced(key: bytes, block: bytes, tweak: bytes, rounds: int) -> bytes:
    half = len(block) // 2
    left, right = block[:half], block[half:]
    for index in range(rounds):
        mask = textbook_prf(key, f"feistel-round-{index}", tweak + b"|" + right, half)
        left, right = right, textbook_xor(left, mask)
    return left + right


def textbook_unbalanced(key: bytes, block: bytes, tweak: bytes, rounds: int) -> bytes:
    split = (len(block) + 1) // 2
    left, right = block[:split], block[split:]
    for index in range(rounds):
        label = f"ufeistel-round-{index}"
        if index % 2 == 0:
            left = textbook_xor(left, textbook_prf(key, label, tweak + b"|" + right, len(left)))
        else:
            right = textbook_xor(right, textbook_prf(key, label, tweak + b"|" + left, len(right)))
    return left + right


def textbook_integer(key: bytes, value: int, domain: int, rounds: int) -> int:
    bits = max(2, max(domain - 1, 1).bit_length())
    bits += bits % 2
    half_bits, half_mask = bits // 2, (1 << bits // 2) - 1
    while True:
        left, right = value >> half_bits, value & half_mask
        for index in range(rounds):
            digest = textbook_prf(key, f"intprp-round-{index}", right.to_bytes(8, "big"), 8)
            left, right = right, left ^ (int.from_bytes(digest, "big") & half_mask)
        value = (left << half_bits) | right
        if value < domain:
            return value


@pytest.mark.parametrize("rounds", [4, 5, 8])
@pytest.mark.parametrize("block_len", range(2, 81))
def test_byte_permutations_equal_the_textbook_networks(block_len, rounds):
    rng = random.Random(f"{block_len}/{rounds}")
    block = rng.randbytes(block_len)
    cases = [(UnbalancedFeistelPrp, textbook_unbalanced)]
    if block_len % 2 == 0:
        cases.append((FeistelPrp, textbook_balanced))
    for tweak in (b"", rng.randbytes(rng.randint(1, 24))):
        for prp_class, textbook in cases:
            prp = prp_class(KEY, block_len, rounds=rounds)
            image = prp.permute(block, tweak=tweak)
            assert image == textbook(KEY, block, tweak, rounds)
            assert prp.invert(image, tweak=tweak) == block
            assert prp.permute(prp.invert(block, tweak=tweak), tweak=tweak) == block


@pytest.mark.parametrize("rounds", [4, 5, 8])
@pytest.mark.parametrize("domain", [1, 2, 3, 4, 5, 16, 17, 255, 256, 257, 1000, 2**20 + 7, 10**12])
def test_integer_permutation_equals_the_textbook_network(domain, rounds):
    rng = random.Random(f"{domain}/{rounds}")
    prp = IntegerPrp(KEY, domain, rounds=rounds)
    for value in {0, domain - 1, *(rng.randrange(domain) for _ in range(6))}:
        image = prp.permute(value)
        assert image == (0 if domain == 1 else textbook_integer(KEY, value, domain, rounds))
        assert prp.invert(image) == value
