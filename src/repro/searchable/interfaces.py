"""Abstract interface every searchable encryption scheme implements.

The database-PH construction (:mod:`repro.core.construction`) is generic over
this interface -- which is the precise sense in which the paper's construction
is "general": any scheme offering (document encryption, trapdoor generation,
ciphertext-only search, document decryption) can be plugged in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

from repro.searchable.words import Word


@dataclass(frozen=True)
class EncryptedDocument:
    """An encrypted document as stored on the untrusted server.

    Attributes
    ----------
    document_id:
        A public, per-document nonce.  It plays the role of the stream
        position in SWP (so that identical words in different documents
        encrypt differently) and of the index salt in the index-based scheme.
    encrypted_words:
        The per-word ciphertexts (SWP) -- empty for pure index schemes.
    index:
        Opaque per-document search index bytes (index scheme) -- empty for SWP.
    payload:
        Optional additional opaque payload attached by higher layers (the
        database-PH construction stores the authenticated tuple ciphertext
        here so that decryption does not depend on word recovery alone).
    """

    document_id: bytes
    encrypted_words: tuple[bytes, ...] = ()
    index: bytes = b""
    payload: bytes = b""

    def size_in_bytes(self) -> int:
        """Total storage footprint of the encrypted document."""
        return (
            len(self.document_id)
            + sum(len(w) for w in self.encrypted_words)
            + len(self.index)
            + len(self.payload)
        )


@dataclass(frozen=True)
class SearchMatch:
    """The result of testing one encrypted document against one trapdoor."""

    matched: bool
    #: Word positions inside the document that matched (empty for index schemes).
    positions: tuple[int, ...] = field(default_factory=tuple)


class SearchableEncryptionScheme(ABC):
    """Interface of a searchable symmetric encryption scheme.

    Implementations must guarantee:

    * **Correctness** -- a trapdoor for word ``w`` matches every document that
      contains ``w`` (no false negatives).
    * **Controlled false positives** -- a trapdoor for ``w`` may match a
      document not containing ``w`` only with small, quantified probability
      (see :meth:`false_positive_rate`).
    * **Decryptability** -- the key holder can recover the exact multiset of
      words from an encrypted document.
    """

    @property
    @abstractmethod
    def word_length(self) -> int:
        """Length in bytes of the fixed-size words this instance handles."""

    @abstractmethod
    def encrypt_document(self, words: Sequence[Word]) -> EncryptedDocument:
        """Encrypt an (ordered) sequence of words into one document."""

    @abstractmethod
    def decrypt_document(self, document: EncryptedDocument) -> list[Word]:
        """Recover the plaintext words of a document."""

    @abstractmethod
    def trapdoor(self, word: Word):
        """Produce the search token for ``word`` (requires the secret key)."""

    @abstractmethod
    def search(self, document: EncryptedDocument, token) -> SearchMatch:
        """Test a document against a token using public information only."""

    @abstractmethod
    def false_positive_rate(self) -> float:
        """Upper bound on the per-word false positive probability of :meth:`search`."""
