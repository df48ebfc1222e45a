"""Index-based searchable encryption (Goh-style secure index).

The paper notes that its construction works with *any* secure searchable
encryption scheme, and the full version mentions "straight-forward
optimizations".  This module provides such an optimization: instead of the SWP
per-word linear scan, every document carries a small *secure index* and the
server answers a trapdoor with a constant number of hash evaluations per
document.

Construction (a set-based variant of Goh's Z-IDX):

* per word ``W``: label ``ell = F_{k_label}(W)`` (computable only with the key);
* per document with public nonce ``nid``: the index stores, for every word,
  the truncated hash ``H(ell || nid)[:entry_len]``, sorted to hide word order;
* trapdoor for ``W``: the label ``ell``;
* server-side search: recompute ``H(ell || nid)[:entry_len]`` and test set
  membership.

Because each entry is salted with the per-document nonce, identical values in
different documents produce unrelated index entries -- the at-rest ciphertext
therefore leaks nothing beyond sizes, exactly like SWP.  False positives occur
only through ``entry_len``-byte hash collisions, with probability about
``words_per_document * 2^{-8 * entry_len}`` per document.

Word recovery (needed by the database PH for decryption) is provided by an
authenticated encryption of the concatenated words stored alongside the index.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from repro.crypto.errors import DecryptionError, ParameterError
from repro.crypto.kdf import derive_key
from repro.crypto.prf import Prf
from repro.crypto.rng import RandomSource, SystemRng
from repro.crypto.symmetric import NONCE_LEN, SymmetricCipher
from repro.searchable.interfaces import (
    EncryptedDocument,
    SearchableEncryptionScheme,
    SearchMatch,
)
from repro.searchable.tokens import IndexToken
from repro.searchable.words import Word, word_bytes

#: Length in bytes of the public per-document nonce.
DOCUMENT_ID_LEN = 16

#: Length in bytes of each per-word label (PRF output).
LABEL_LEN = 32

#: Default length in bytes of each truncated index entry.
DEFAULT_ENTRY_LEN = 8


def index_contains(index: bytes, document_id: bytes, label: bytes, entry_length: int) -> bool:
    """Salted-hash membership test of one word label in one document's index."""
    if entry_length < 1:
        raise ParameterError("entry length must be at least 1 byte")
    if len(index) % entry_length != 0:
        raise DecryptionError("index length is not a multiple of the entry length")
    entry = hashlib.sha256(label + document_id).digest()[:entry_length]
    return entry in {
        index[i: i + entry_length] for i in range(0, len(index), entry_length)
    }


def index_search(
    document: EncryptedDocument, token: IndexToken, entry_length: int
) -> SearchMatch:
    """Server-side index search: salted-hash membership test, no key needed."""
    return SearchMatch(
        matched=index_contains(
            document.index, document.document_id, token.label, entry_length
        )
    )


class IndexSseScheme(SearchableEncryptionScheme):
    """Secure-index searchable encryption with per-document salted entries."""

    def __init__(
        self,
        key: bytes,
        word_length: int,
        entry_length: int = DEFAULT_ENTRY_LEN,
        rng: RandomSource | None = None,
    ) -> None:
        if word_length < 1:
            raise ParameterError("word length must be at least 1 byte")
        if not 1 <= entry_length <= 32:
            raise ParameterError("entry length must be between 1 and 32 bytes")
        self._word_length = word_length
        self._entry_length = entry_length
        self._label = Prf(derive_key(key, "idx/label")).fixed(LABEL_LEN)
        self._payload_cipher = SymmetricCipher(derive_key(key, "idx/payload"), rng=rng)
        self._rng = rng if rng is not None else SystemRng()
        self._typical_words_per_document = 8  # refined per call in false_positive_rate()

    # ------------------------------------------------------------------ #
    # SearchableEncryptionScheme interface
    # ------------------------------------------------------------------ #

    @property
    def word_length(self) -> int:
        """Length in bytes of every word."""
        return self._word_length

    @property
    def entry_length(self) -> int:
        """Length in bytes of each truncated index entry."""
        return self._entry_length

    def encrypt_document(self, words: Sequence[Word]) -> EncryptedDocument:
        """Build the salted index and the recoverable word payload."""
        return self.encrypt_documents([words])[0]

    def encrypt_documents(
        self,
        documents: Sequence[Sequence[Word]],
        draws: Sequence[tuple[bytes, bytes]] | None = None,
    ) -> list[EncryptedDocument]:
        """:meth:`encrypt_document` of each document, in order.

        ``draws`` holds each document's ``(document_id, payload nonce)``;
        ``None`` draws them fresh, document by document, the id first.  The
        word payloads are sealed in one
        :meth:`~repro.crypto.symmetric.SymmetricCipher.seal_many`.
        """
        length = self._word_length
        documents = [[word_bytes(word, length) for word in words] for words in documents]
        if draws is None:
            draw = self._rng.bytes
            draws = [(draw(DOCUMENT_ID_LEN), draw(NONCE_LEN)) for _ in documents]
        document_ids = [document_id for document_id, _ in draws]
        payloads = self._payload_cipher.seal_many(
            [b"".join(words) for words in documents],
            document_ids,
            [nonce for _, nonce in draws],
        )
        if documents:
            self._typical_words_per_document = max(1, len(documents[-1]))
        return [
            EncryptedDocument(
                document_id=document_id,
                encrypted_words=(payload,),
                index=b"".join(
                    sorted(self._index_entry(self._label(word), document_id) for word in words)
                ),
            )
            for words, document_id, payload in zip(documents, document_ids, payloads)
        ]

    def decrypt_document(self, document: EncryptedDocument) -> list[Word]:
        """Decrypt the word payload and split it into fixed-length words."""
        if len(document.encrypted_words) != 1:
            raise DecryptionError("index-SSE documents carry exactly one word payload")
        raw = self._payload_cipher.decrypt_bytes(
            document.encrypted_words[0], associated_data=document.document_id
        )
        if len(raw) % self._word_length != 0:
            raise DecryptionError("word payload length is not a multiple of the word length")
        return [
            Word(raw[i: i + self._word_length])
            for i in range(0, len(raw), self._word_length)
        ]

    def trapdoor(self, word: Word) -> IndexToken:
        """Produce the per-word label token."""
        return IndexToken(label=self._label(word_bytes(word, self._word_length)))

    def search(self, document: EncryptedDocument, token: IndexToken) -> SearchMatch:
        """Constant-work membership test against the document's index."""
        return index_search(document, token, self._entry_length)

    def false_positive_rate(self) -> float:
        """Union bound over index entries of the truncation collision probability."""
        per_entry = 2.0 ** (-8 * self._entry_length)
        return min(1.0, self._typical_words_per_document * per_entry)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _index_entry(self, label: bytes, document_id: bytes) -> bytes:
        return hashlib.sha256(label + document_id).digest()[: self._entry_length]
