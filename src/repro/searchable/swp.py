"""The Song--Wagner--Perrig searchable encryption scheme ("hidden search").

This is the scheme the paper instantiates its construction with ([7] in the
paper: Song, Wagner, Perrig, *Practical Techniques for Searches on Encrypted
Data*, IEEE S&P 2000).  For a fixed word length ``w`` and check length ``m``:

**Encryption** of the ``i``-th word ``W`` of a document with public nonce
``nid``::

    X   = P_{k_word}(W)                       # deterministic pre-encryption
    L,R = X[:w-m], X[w-m:]
    S_i = G_{k_stream}(nid, i)                # w-m pseudorandom bytes
    k_i = f_{k_check}(L)                      # per-word check key
    C_i = X  XOR  ( S_i || F_{k_i}(S_i) )     # F outputs m bytes

**Trapdoor** for a word ``W``: the pair ``(X, k)`` with ``X = P_{k_word}(W)``
and ``k = f_{k_check}(X[:w-m])``.

**Search** (server side, no key): for every stored ``C_i`` compute
``T = C_i XOR X`` and accept iff ``F_k(T[:w-m]) == T[w-m:]``.  For words other
than ``W`` the check succeeds only by accident, with probability about
``2^{-8m}`` -- these are the *false positives* the paper says the client must
filter out.

**Decryption**: the key holder regenerates ``S_i``, recovers ``L``, derives
``k_i``, recovers ``R`` and inverts the pre-encryption.

The per-document nonce replaces SWP's global stream position so that the
scheme composes with the tuple-by-tuple encryption required by Definition 1.1:
two tuples containing the same value still produce independent-looking
ciphertexts.
"""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

from repro import native
from repro.crypto.errors import DecryptionError, ParameterError
from repro.crypto.kdf import derive_key
from repro.crypto.prf import Prf, one_block_suffix, prf_once
from repro.crypto.prg import xor_bytes
from repro.crypto.prp import UnbalancedFeistelPrp
from repro.crypto.rng import RandomSource, SystemRng
from repro.searchable.interfaces import (
    EncryptedDocument,
    SearchableEncryptionScheme,
    SearchMatch,
)
from repro.searchable.tokens import SwpToken
from repro.searchable.words import Word, word_bytes

#: Length in bytes of the public per-document nonce.
DOCUMENT_ID_LEN = 16

#: Default check length in bytes (false positive probability ~ 2^-48 per word).
DEFAULT_CHECK_LEN = 6

#: Length in bytes of the per-word check key ``k = f_{k_check}(X[:w-m])``.
CHECK_KEY_LEN = 32

#: Most words whose deterministic half ``(X, k)`` one :class:`SwpScheme`
#: remembers.  Full means cleared, not LRU: a hit stays one dict probe with no
#: reordering, and what a clear costs is one recomputation per word still in
#: use.  About 0.25 MB per scheme at this bound (15-byte words).
PRE_ENCRYPT_MEMO_WORDS = 1024

T = TypeVar("T")


class SwpMatcher:
    """One trapdoor ``(X, k)`` compiled for a scan: what the server runs, keyless.

    The trapdoor is validated once here (a malformed one raises
    :class:`~repro.crypto.errors.CryptoError` whatever the relation holds),
    ``X`` is kept as an integer and the check PRF ``F_k`` is keyed once.
    :meth:`select` is the one check: when the check is one HMAC (``m <= 32``)
    and :mod:`repro.native` loaded its kernel, the loop runs in C over the
    same trapdoor; otherwise it is one Python loop over many items' words in
    which testing a word ciphertext is one integer XOR, a shift and a mask
    around the two hash-state copies and finalisations of a single HMAC, with
    no function call of its own.  That loop is the reference the C one is
    tested against.  It holds nothing but the trapdoor and the public
    word/check lengths -- no code path on the server touches key material.
    """

    def __init__(self, token: SwpToken, word_length: int, check_length: int) -> None:
        if not 1 <= check_length < word_length:
            raise ParameterError(
                "check length must satisfy 1 <= m < word_length "
                f"(got m={check_length}, w={word_length})"
            )
        if len(token.pre_encrypted_word) != word_length:
            raise ParameterError(
                f"trapdoor word must be exactly {word_length} bytes, "
                f"got {len(token.pre_encrypted_word)}"
            )
        self._word_length = word_length
        self._left_length = word_length - check_length
        self._check_length = check_length
        self._check_bits = 8 * check_length
        self._check_mask = (1 << self._check_bits) - 1
        self._pre_encrypted_word = bytes(token.pre_encrypted_word)
        self._pre_encrypted = int.from_bytes(token.pre_encrypted_word, "big")
        prf = Prf(token.check_key)
        # One HMAC per word in practice (m <= 32); a longer check chains blocks.
        self._one_block = prf.single_block(check_length)
        self._chained = None if self._one_block else prf.fixed(check_length)

    def select(self, items: Iterable[T], words: Iterable[Iterable[bytes]]) -> list[T]:
        """The ``items`` with a word that passes the check, in order.

        ``words`` runs beside ``items``: the word ciphertexts of each.  Per
        word ``C``: ``T = C XOR X``, accept iff ``F_k(T[:w-m]) == T[w-m:]``;
        a word of the wrong length never matches, and an item is kept at its
        first hit.
        """
        check_length = self._check_length
        chained = self._chained
        if chained is None:
            copy_inner, copy_outer, suffix, block_key = self._one_block
            kernel = native.kernel
            if kernel is not None:
                return kernel.swp_select(
                    items, words, self._pre_encrypted_word, block_key, suffix, check_length
                )
        word_length = self._word_length
        left_length = self._left_length
        check_bits = self._check_bits
        check_mask = self._check_mask
        pre_encrypted = self._pre_encrypted
        from_bytes = int.from_bytes
        hits = []
        for item, item_words in zip(items, words):
            for ciphertext in item_words:
                if len(ciphertext) != word_length:
                    continue
                masked = from_bytes(ciphertext, "big") ^ pre_encrypted
                stream_part = (masked >> check_bits).to_bytes(left_length, "big")
                if chained is None:
                    inner = copy_inner()
                    inner.update(stream_part + suffix)
                    outer = copy_outer()
                    outer.update(inner.digest())
                    tag = outer.digest()[:check_length]
                else:
                    tag = chained(stream_part)
                if from_bytes(tag, "big") == masked & check_mask:
                    hits.append(item)
                    break
        return hits

    def matches(self, ciphertext: bytes) -> bool:
        """Whether one word ciphertext passes the check (:meth:`select` of one item)."""
        return bool(self.select((True,), ((ciphertext,),)))


def swp_search(
    document: EncryptedDocument,
    token: SwpToken,
    word_length: int,
    check_length: int,
) -> SearchMatch:
    """Server-side SWP search: requires only the trapdoor and public parameters.

    This free function is deliberately independent of :class:`SwpScheme` so
    that no code path on the server side ever has access to key material.
    Each word is its own item, so the hits are the matching positions.
    """
    words = document.encrypted_words
    positions = tuple(
        SwpMatcher(token, word_length, check_length).select(range(len(words)), zip(words))
    )
    return SearchMatch(matched=bool(positions), positions=positions)


class SwpScheme(SearchableEncryptionScheme):
    """Song--Wagner--Perrig searchable encryption over fixed-length words.

    Parameters
    ----------
    key:
        Master secret; sub-keys for the pre-encryption permutation, the
        keystream and the check PRF are derived from it.
    word_length:
        Length ``w`` in bytes of every word.
    check_length:
        Length ``m`` in bytes of the embedded check value (``1 <= m < w``).
        Smaller values are faster and smaller but raise the false-positive
        rate to ``~2^{-8m}`` -- experiment E7 sweeps this parameter.
    rng:
        Randomness source for document nonces.
    """

    def __init__(
        self,
        key: bytes,
        word_length: int,
        check_length: int = DEFAULT_CHECK_LEN,
        rng: RandomSource | None = None,
    ) -> None:
        if word_length < 2:
            raise ParameterError("word length must be at least 2 bytes")
        if not 1 <= check_length < word_length:
            raise ParameterError(
                "check length must satisfy 1 <= m < word_length "
                f"(got m={check_length}, w={word_length})"
            )
        self._word_length = word_length
        self._check_length = check_length
        self._left_length = word_length - check_length
        self._pre_prp = UnbalancedFeistelPrp(derive_key(key, "swp/word"), word_length)
        stream = Prf(derive_key(key, "swp/stream"))
        check_key = Prf(derive_key(key, "swp/check"))
        self._stream = stream.fixed(self._left_length)
        self._check_key = check_key.fixed(CHECK_KEY_LEN)
        #: This scheme's keys in the native kernel (``swp_sealer``) when it
        #: is loaded and every HMAC of a word is one digest (``w - m <= 32``
        #: and ``m <= 32``, so halves of at most 32 bytes); else ``None``,
        #: and the scheme runs the Python references.
        self._sealer = None
        stream_block = stream.single_block(self._left_length)
        value_suffix = one_block_suffix(check_length)
        if native.kernel is not None and stream_block is not None and value_suffix is not None:
            _, _, stream_suffix, stream_key = stream_block
            _, _, check_suffix, check_block_key = check_key.single_block(CHECK_KEY_LEN)
            self._sealer = native.kernel.swp_sealer(
                self._pre_prp.round_keys,
                (check_block_key, check_suffix),
                (stream_key, stream_suffix),
                value_suffix,
                word_length,
                check_length,
            )
        # W -> (X, k), client memory only; see _pre_encrypt.
        self._memo: dict[bytes, tuple[bytes, bytes]] = {}
        self._rng = rng if rng is not None else SystemRng()

    # ------------------------------------------------------------------ #
    # SearchableEncryptionScheme interface
    # ------------------------------------------------------------------ #

    @property
    def word_length(self) -> int:
        """Length ``w`` in bytes of every word."""
        return self._word_length

    @property
    def check_length(self) -> int:
        """Length ``m`` in bytes of the embedded check value."""
        return self._check_length

    def encrypt_document(
        self, words: Sequence[Word | bytes], document_id: bytes | None = None
    ) -> EncryptedDocument:
        """Encrypt a sequence of words under a fresh (or caller-supplied) document nonce.

        Passing ``document_id`` explicitly is safe as long as the caller never
        reuses a nonce *under the same key*; the variable-width construction
        uses it to share one nonce across its independently keyed
        per-attribute schemes.  :meth:`encrypt_documents` of one document.
        """
        return self.encrypt_documents(
            [words], None if document_id is None else [document_id]
        )[0]

    def encrypt_documents(
        self,
        documents: Sequence[Sequence[Word | bytes]],
        document_ids: Sequence[bytes] | None = None,
    ) -> list[EncryptedDocument]:
        """Encrypt each document, in order, under its id (drawn fresh when ``None``).

        Every word is validated first -- a :class:`Word` or a bytes-like
        object of exactly the word length, else :class:`ParameterError` --
        so a refused batch draws no randomness and pre-encrypts nothing.
        """
        length = self._word_length
        documents = [[word_bytes(word, length) for word in words] for words in documents]
        if document_ids is None:
            document_ids = [self._rng.bytes(DOCUMENT_ID_LEN) for _ in documents]
        elif len(document_ids) != len(documents):
            raise ParameterError("documents and document ids differ in length")
        sealed = self.seal_documents(documents, document_ids)
        return [
            EncryptedDocument(document_id=document_id, encrypted_words=words)
            for document_id, words in zip(document_ids, sealed)
        ]

    def seal_documents(
        self, documents: Sequence[Sequence[bytes]], document_ids: Sequence[bytes]
    ) -> list[tuple[bytes, ...]]:
        """The word ciphertexts of each document of word bytes, in order.

        :meth:`encrypt_documents` without the wrapping, for a caller that
        built the words itself (the construction's words come out of its
        :class:`~repro.searchable.words.WordCodec`).  The native kernel
        seals the whole batch in one call, probing and filling the
        ``(X, k)`` memo as :meth:`_pre_encrypt` does; without it, and for
        any document it leaves ``None``, the Python reference runs.
        """
        for document_id in document_ids:
            if len(document_id) != DOCUMENT_ID_LEN:
                raise ParameterError(f"document id must be {DOCUMENT_ID_LEN} bytes")
        kernel = native.kernel
        if kernel is None or self._sealer is None:
            sealed = [None] * len(documents)
        else:
            sealed = kernel.swp_encrypt_words(
                documents, document_ids, self._sealer, self._memo, PRE_ENCRYPT_MEMO_WORDS
            )
        for index, words in enumerate(sealed):
            if words is None:
                document_id = document_ids[index]
                sealed[index] = tuple(
                    self._encrypt_word(word, document_id, position)
                    for position, word in enumerate(documents[index])
                )
        return sealed

    def decrypt_document(self, document: EncryptedDocument) -> list[Word]:
        """Recover the plaintext words of a document."""
        return [
            Word(self._decrypt_word(ciphertext, document.document_id, index))
            for index, ciphertext in enumerate(document.encrypted_words)
        ]

    def trapdoor(self, word: Word | bytes) -> SwpToken:
        """Produce the search token ``(X, k)`` for ``word``: :meth:`trapdoors` of one."""
        return self.trapdoors([word])[0]

    def trapdoors(self, words: Sequence[Word | bytes]) -> list[SwpToken]:
        """The search token ``(X, k)`` of each word, in order (validated as in
        :meth:`encrypt_documents`): one native call, :meth:`_pre_encrypt` per
        word without the kernel and for any word it leaves ``None``."""
        words = [word_bytes(word, self._word_length) for word in words]
        kernel = native.kernel
        if kernel is None or self._sealer is None:
            pairs = [None] * len(words)
        else:
            pairs = kernel.swp_encrypt_words(
                words, None, self._sealer, self._memo, PRE_ENCRYPT_MEMO_WORDS
            )
        return [
            SwpToken(*(self._pre_encrypt(word) if pair is None else pair))
            for word, pair in zip(words, pairs)
        ]

    def search(self, document: EncryptedDocument, token: SwpToken) -> SearchMatch:
        """Linear scan of the document's word ciphertexts (server-side, keyless)."""
        return swp_search(document, token, self._word_length, self._check_length)

    def false_positive_rate(self) -> float:
        """Per-word false positive probability, ``2^{-8m}``."""
        return 2.0 ** (-8 * self._check_length)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _pre_encrypt(self, word: bytes) -> tuple[bytes, bytes]:
        """The deterministic half of SWP: ``X = P_{k_word}(W)`` and ``k``.

        Both the word ciphertext and the trapdoor start here.  The pair is a
        pure function of ``W`` under this scheme's key, so it is remembered
        per instance (a fresh scheme starts cold) for at most
        :data:`PRE_ENCRYPT_MEMO_WORDS` words: a repeated word costs its
        stream block and check value, not the eight Feistel rounds.  Threads
        sharing a scheme need no lock, a lost update is a recomputation.
        This is the reference the native kernel's memo and Feistel loop
        follow.
        """
        known = self._memo.get(word)
        if known is None:
            permuted = self._pre_prp.permute(word)
            known = (permuted, self._check_key(permuted[: self._left_length]))
            if len(self._memo) >= PRE_ENCRYPT_MEMO_WORDS:
                self._memo.clear()
            self._memo[word] = known
        return known

    def _stream_block(self, document_id: bytes, index: int) -> bytes:
        return self._stream(document_id + index.to_bytes(4, "big"))

    def _encrypt_word(self, word: bytes, document_id: bytes, index: int) -> bytes:
        """``C_i = X XOR (S_i || F_k(S_i))`` in Python: the reference of the native sealer."""
        pre_encrypted, check_key = self._pre_encrypt(word)
        stream = self._stream_block(document_id, index)
        pad = stream + prf_once(check_key, stream, self._check_length)
        return (int.from_bytes(pre_encrypted, "big") ^ int.from_bytes(pad, "big")).to_bytes(
            self._word_length, "big"
        )

    def _decrypt_word(self, ciphertext: bytes, document_id: bytes, index: int) -> bytes:
        if len(ciphertext) != self._word_length:
            raise DecryptionError(
                f"word ciphertext must be {self._word_length} bytes, got {len(ciphertext)}"
            )
        stream = self._stream_block(document_id, index)
        left = xor_bytes(ciphertext[: self._left_length], stream)
        check_value = prf_once(self._check_key(left), stream, self._check_length)
        right = xor_bytes(ciphertext[self._left_length:], check_value)
        return self._pre_prp.invert(left + right)
