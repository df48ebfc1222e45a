"""Tests for the pseudorandom function."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import KeyError_, ParameterError
from repro.crypto.prf import MAX_BLOCKS, MIN_KEY_LEN, Prf, prf_once

KEY = b"k" * 32
OTHER_KEY = b"q" * 32


class TestPrfConstruction:
    def test_rejects_short_keys(self):
        with pytest.raises(KeyError_):
            Prf(b"short")

    def test_rejects_non_bytes_keys(self):
        with pytest.raises(KeyError_):
            Prf("not-bytes" * 10)  # type: ignore[arg-type]

    def test_accepts_minimum_length_key(self):
        Prf(b"x" * MIN_KEY_LEN)


class TestPrfEvaluation:
    def test_deterministic(self):
        prf = Prf(KEY)
        assert prf.evaluate(b"message") == prf.evaluate(b"message")

    def test_different_inputs_differ(self):
        prf = Prf(KEY)
        assert prf.evaluate(b"a") != prf.evaluate(b"b")

    def test_different_keys_differ(self):
        assert Prf(KEY).evaluate(b"a") != Prf(OTHER_KEY).evaluate(b"a")

    def test_different_labels_differ(self):
        assert Prf(KEY, label=b"x").evaluate(b"a") != Prf(KEY, label=b"y").evaluate(b"a")

    def test_requested_length_is_honoured(self):
        prf = Prf(KEY)
        for length in (1, 16, 32, 33, 64, 100, 1000):
            assert len(prf.evaluate(b"m", length)) == length

    def test_outputs_of_different_lengths_are_independent(self):
        prf = Prf(KEY)
        assert prf.evaluate(b"m", 16) != prf.evaluate(b"m", 32)[:16]

    def test_zero_or_negative_length_rejected(self):
        prf = Prf(KEY)
        with pytest.raises(ParameterError):
            prf.evaluate(b"m", 0)
        with pytest.raises(ParameterError):
            prf.evaluate(b"m", -1)

    def test_non_bytes_input_rejected(self):
        with pytest.raises(ParameterError):
            Prf(KEY).evaluate("text")  # type: ignore[arg-type]

    def test_callable_shorthand(self):
        prf = Prf(KEY)
        assert prf(b"m") == prf.evaluate(b"m")

    def test_prf_once_matches_instance(self):
        assert prf_once(KEY, b"m", 48) == Prf(KEY).evaluate(b"m", 48)


def reference_prf(key: bytes, label: bytes, message: bytes, out_len: int) -> bytes:
    """The definition, transcribed: a fresh ``hmac.new`` per chained block."""
    info = message + b"|" + out_len.to_bytes(4, "big")
    out = previous = b""
    counter = 1
    while len(out) < out_len:
        previous = hmac.new(
            key + b"|" + label, previous + info + bytes([counter]), hashlib.sha256
        ).digest()
        out += previous
        counter += 1
    return out[:out_len]


class TestPrfOutputLengthBounds:
    LONGEST = MAX_BLOCKS * 32

    @pytest.mark.parametrize("out_len", [32, 33, LONGEST])
    def test_boundary_lengths_match_the_definition(self, out_len):
        assert Prf(KEY).evaluate(b"m", out_len) == reference_prf(KEY, b"", b"m", out_len)

    def test_too_long_is_rejected_before_any_hashing(self, monkeypatch):
        calls = []
        real = Prf._hmac
        monkeypatch.setattr(
            Prf, "_hmac", lambda self, data: calls.append(data) or real(self, data)
        )
        with pytest.raises(ParameterError, match="too long"):
            Prf(KEY).evaluate(b"m", self.LONGEST + 1)
        assert calls == []
        assert len(Prf(KEY).evaluate(b"m", 33)) == 33 and len(calls) == 2


class TestPrfIntegers:
    def test_within_modulus(self):
        prf = Prf(KEY)
        for modulus in (1, 2, 7, 100, 2**32):
            value = prf.evaluate_int(b"m", modulus)
            assert 0 <= value < modulus

    def test_deterministic(self):
        prf = Prf(KEY)
        assert prf.evaluate_int(b"m", 1000) == prf.evaluate_int(b"m", 1000)

    def test_invalid_modulus(self):
        with pytest.raises(ParameterError):
            Prf(KEY).evaluate_int(b"m", 0)

    def test_reasonably_uniform(self):
        prf = Prf(KEY)
        samples = [prf.evaluate_int(i.to_bytes(4, "big"), 2) for i in range(400)]
        ones = sum(samples)
        assert 130 < ones < 270  # extremely loose two-sided bound


class TestPrfDerivation:
    def test_derived_prfs_are_independent(self):
        prf = Prf(KEY)
        assert prf.derive("a").evaluate(b"m") != prf.derive("b").evaluate(b"m")

    def test_derivation_is_deterministic(self):
        assert Prf(KEY).derive("a").evaluate(b"m") == Prf(KEY).derive("a").evaluate(b"m")


@given(message=st.binary(min_size=0, max_size=200), out_len=st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_property_output_length_and_determinism(message, out_len):
    prf = Prf(KEY)
    first = prf.evaluate(message, out_len)
    second = prf.evaluate(message, out_len)
    assert len(first) == out_len
    assert first == second


@given(a=st.binary(min_size=0, max_size=64), b=st.binary(min_size=0, max_size=64))
@settings(max_examples=60, deadline=None)
def test_property_distinct_inputs_rarely_collide(a, b):
    prf = Prf(KEY)
    if a != b:
        assert prf.evaluate(a, 32) != prf.evaluate(b, 32)


@given(
    key=st.binary(min_size=MIN_KEY_LEN, max_size=100),  # past SHA-256's 64-byte block
    label=st.binary(max_size=40),
    message=st.binary(max_size=80),
    out_len=st.integers(min_value=1, max_value=130),
)
@settings(max_examples=120, deadline=None)
def test_property_pre_keyed_state_equals_fresh_hmac(key, label, message, out_len):
    assert Prf(key, label).evaluate(message, out_len) == reference_prf(
        key, label, message, out_len
    )


class TestFixedLengthEvaluators:
    """``Prf.fixed`` and ``prf_once``: the definition at every length, checks kept."""

    @pytest.mark.parametrize("out_len", [1, 6, 31, 32, 33, 34, 64, 65, 100])
    def test_fixed_and_once_match_the_definition(self, out_len):
        evaluate = Prf(KEY, b"lbl").fixed(out_len)
        for message in (b"", b"m", b"x" * 90):
            assert evaluate(message) == reference_prf(KEY, b"lbl", message, out_len)
            assert prf_once(KEY, message, out_len) == reference_prf(KEY, b"", message, out_len)

    def test_an_evaluator_is_reusable_and_independent_of_its_siblings(self):
        prf = Prf(KEY)
        short, long = prf.fixed(6), prf.fixed(40)
        assert short(b"a") == short(b"a") == prf.evaluate(b"a", 6)
        assert long(b"a") == prf.evaluate(b"a", 40)
        assert short(b"a") != long(b"a")[:6]

    def test_bad_lengths_are_refused_when_the_evaluator_is_made(self):
        prf = Prf(KEY)
        for out_len in (0, -1, MAX_BLOCKS * 32 + 1):
            with pytest.raises(ParameterError):
                prf.fixed(out_len)
            with pytest.raises(ParameterError):
                prf_once(KEY, b"m", out_len)

    def test_once_keeps_the_key_and_input_checks(self):
        with pytest.raises(KeyError_):
            prf_once(b"short", b"m")
        with pytest.raises(KeyError_):
            prf_once("k" * 32, b"m")  # type: ignore[arg-type]
        with pytest.raises(ParameterError):
            prf_once(KEY, "text")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            Prf(KEY).fixed(6)("text")  # type: ignore[arg-type]
        long_key = bytes(range(100))  # past SHA-256's block: hashed first, as HMAC says
        assert prf_once(long_key, b"m", 6) == reference_prf(long_key, b"", b"m", 6)
