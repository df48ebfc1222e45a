"""Tests for the secure-index searchable encryption backend."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import DecryptionError, ParameterError
from repro.crypto.rng import DeterministicRng
from repro.searchable.index_sse import IndexSseScheme, index_search
from repro.searchable.interfaces import EncryptedDocument
from repro.searchable.tokens import IndexToken
from repro.searchable.words import Word

KEY = b"k" * 32
WORD_LENGTH = 10


def make_scheme(entry_length: int = 8, seed: int = 1) -> IndexSseScheme:
    return IndexSseScheme(KEY, WORD_LENGTH, entry_length=entry_length, rng=DeterministicRng(seed))


def words(*texts: str) -> list[Word]:
    return [Word(t.encode().ljust(WORD_LENGTH, b"_")) for t in texts]


class TestIndexSseParameters:
    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            IndexSseScheme(KEY, 0)
        with pytest.raises(ParameterError):
            IndexSseScheme(KEY, WORD_LENGTH, entry_length=0)
        with pytest.raises(ParameterError):
            IndexSseScheme(KEY, WORD_LENGTH, entry_length=33)

    def test_false_positive_rate_scales_with_entry_length(self):
        assert make_scheme(entry_length=2).false_positive_rate() > make_scheme(
            entry_length=8
        ).false_positive_rate()


class TestIndexSseRoundtrip:
    def test_decrypt_recovers_words(self):
        scheme = make_scheme()
        document_words = words("alpha", "beta", "gamma")
        document = scheme.encrypt_document(document_words)
        assert scheme.decrypt_document(document) == document_words

    def test_index_size(self):
        scheme = make_scheme(entry_length=8)
        document = scheme.encrypt_document(words("a", "b", "c"))
        assert len(document.index) == 3 * 8

    def test_index_is_salted_per_document(self):
        scheme = make_scheme()
        first = scheme.encrypt_document(words("alpha"))
        second = scheme.encrypt_document(words("alpha"))
        assert first.index != second.index

    def test_wrong_word_length_rejected(self):
        scheme = make_scheme()
        with pytest.raises(ParameterError):
            scheme.encrypt_document([Word(b"x")])
        with pytest.raises(ParameterError):
            scheme.trapdoor(Word(b"x"))

    @pytest.mark.parametrize("bad", [WORD_LENGTH, "x" * WORD_LENGTH, None])
    def test_a_word_that_is_not_bytes_like_is_rejected(self, bad):
        """``bytes(10)`` would be ten zero bytes: an int is refused, not converted."""
        scheme = make_scheme()
        with pytest.raises(ParameterError, match="a word is a Word or bytes-like"):
            scheme.trapdoor(bad)
        with pytest.raises(ParameterError, match="a word is a Word or bytes-like"):
            scheme.encrypt_document([*words("ok"), bad])
        assert scheme.encrypt_document(words("ok")) == make_scheme().encrypt_document(words("ok"))

    def test_decrypt_rejects_malformed_documents(self):
        scheme = make_scheme()
        document = scheme.encrypt_document(words("alpha"))
        broken = EncryptedDocument(
            document_id=document.document_id,
            encrypted_words=(),
            index=document.index,
        )
        with pytest.raises(DecryptionError):
            scheme.decrypt_document(broken)


class TestIndexSseSearch:
    def test_finds_present_word(self):
        scheme = make_scheme()
        document = scheme.encrypt_document(words("alpha", "beta"))
        assert scheme.search(document, scheme.trapdoor(words("alpha")[0])).matched

    def test_does_not_find_absent_word(self):
        scheme = make_scheme()
        document = scheme.encrypt_document(words("alpha", "beta"))
        assert not scheme.search(document, scheme.trapdoor(words("delta")[0])).matched

    def test_no_false_negatives_over_many_documents(self):
        scheme = make_scheme()
        token = scheme.trapdoor(words("needle")[0])
        for index in range(50):
            document = scheme.encrypt_document(words("needle", f"filler{index}"))
            assert scheme.search(document, token).matched

    def test_keyless_search_function(self):
        scheme = make_scheme(entry_length=8)
        document = scheme.encrypt_document(words("alpha"))
        token = scheme.trapdoor(words("alpha")[0])
        assert index_search(document, token, 8).matched
        assert not index_search(document, scheme.trapdoor(words("beta")[0]), 8).matched

    def test_search_rejects_malformed_index(self):
        token = IndexToken(label=b"\x00" * 32)
        broken = EncryptedDocument(document_id=b"d" * 16, index=b"odd-length!")
        with pytest.raises(DecryptionError):
            index_search(broken, token, 8)

    def test_token_serialization_roundtrip(self):
        scheme = make_scheme()
        token = scheme.trapdoor(words("alpha")[0])
        assert IndexToken.from_bytes(token.to_bytes()) == token

    def test_wrong_key_token_finds_nothing(self):
        scheme = make_scheme()
        other = IndexSseScheme(b"q" * 32, WORD_LENGTH, rng=DeterministicRng(9))
        document = scheme.encrypt_document(words("alpha"))
        assert not scheme.search(document, other.trapdoor(words("alpha")[0])).matched


@given(texts=st.lists(st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_property_search_matches_plaintext_membership(texts):
    scheme = make_scheme(seed=5)
    document_words = words(*texts)
    document = scheme.encrypt_document(document_words)
    for probe in ["alpha", "bead", "fade"] + texts:
        word = words(probe)[0]
        expected = word in document_words
        assert scheme.search(document, scheme.trapdoor(word)).matched == expected
