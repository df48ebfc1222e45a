"""Tests for the shared searchable-encryption data model."""

from __future__ import annotations

from repro.searchable.interfaces import EncryptedDocument, SearchMatch


class TestEncryptedDocument:
    def test_size_in_bytes_counts_all_components(self):
        document = EncryptedDocument(
            document_id=b"1234",
            encrypted_words=(b"abcd", b"efgh"),
            index=b"xy",
            payload=b"zz",
        )
        assert document.size_in_bytes() == 4 + 8 + 2 + 2

    def test_defaults(self):
        document = EncryptedDocument(document_id=b"d")
        assert document.encrypted_words == ()
        assert document.index == b""
        assert document.payload == b""


class TestSearchMatch:
    def test_defaults(self):
        match = SearchMatch(matched=False)
        assert match.positions == ()

    def test_value_semantics(self):
        assert SearchMatch(True, (1, 2)) == SearchMatch(True, (1, 2))
        assert SearchMatch(True, (1,)) != SearchMatch(True, (2,))
