"""SWP word encryption and trapdoors against a literal transcription, on both paths.

``SwpScheme.seal_documents`` (under ``encrypt_documents`` / ``encrypt_document``)
and ``trapdoors`` (under ``trapdoor``) hand a scheme whose every HMAC is one
digest -- ``w - m <= 32`` and ``m <= 32`` -- to the native kernel's
``swp_encrypt_words``; every other scheme, and every host without the kernel,
runs the Python reference.  The module runs once per path (the
``match_kernel`` fixture).  On each, seeded documents and trapdoors must equal
the specification below -- ``X = P(W)`` by an alternating unbalanced Feistel
network, ``k = f(X[:w-m])``, ``C_i = X XOR (S_i || F_k(S_i))`` -- written with
a fresh ``hmac.new`` per evaluation, for every ``w`` from 2 to 80 and every
``m`` from 1 to ``w - 1``: halves past 32 bytes and chained checks
(``m > 32``) included, where the kernel must hand the scheme back to Python.
(``tests/searchable/test_native_kernel.py`` checks the kernel alone, as the
composition would hide a kernel that leaves everything to Python.)
A word is a :class:`Word` or a bytes-like object of exactly ``w`` bytes on
both paths; anything else is a :class:`ParameterError`.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest

from repro import native
from repro.crypto.errors import ParameterError
from repro.crypto.kdf import derive_key
from repro.crypto.rng import DeterministicRng
from repro.searchable.swp import CHECK_KEY_LEN, PRE_ENCRYPT_MEMO_WORDS, SwpScheme
from repro.searchable.words import Word

both_paths = pytest.mark.usefixtures("match_kernel")

KEY = bytes(range(32))
ROUNDS = 8


def prf(key: bytes, message: bytes, out_len: int, label: bytes = b"") -> bytes:
    """``Prf(key, label).evaluate(message, out_len)``: fresh HMACs, chained past one digest."""
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


def xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


def feistel(key: bytes, word: bytes) -> bytes:
    """The alternating unbalanced Feistel network: round ``r`` masks half ``r % 2``."""
    halves = [word[: (len(word) + 1) // 2], word[(len(word) + 1) // 2:]]
    for r in range(ROUNDS):
        target = r % 2
        mask = prf(key, b"|" + halves[1 - target], len(halves[target]),
                   f"ufeistel-round-{r}".encode())
        halves[target] = xor(halves[target], mask)
    return halves[0] + halves[1]


def trapdoor_of(word: bytes, w: int, m: int) -> tuple[bytes, bytes]:
    pre_encrypted = feistel(derive_key(KEY, "swp/word"), word)
    return pre_encrypted, prf(derive_key(KEY, "swp/check"), pre_encrypted[: w - m], CHECK_KEY_LEN)


def ciphertext_of(word: bytes, document_id: bytes, position: int, w: int, m: int) -> bytes:
    pre_encrypted, check_key = trapdoor_of(word, w, m)
    stream = prf(derive_key(KEY, "swp/stream"), document_id + position.to_bytes(4, "big"), w - m)
    return xor(pre_encrypted, stream + prf(check_key, stream, m))


def words_of(w: int) -> tuple[bytes, bytes, bytes]:
    return bytes((7 * i + 1) % 256 for i in range(w)), b"#" * w, bytes(range(w))[::-1]


@pytest.mark.parametrize("w", range(2, 81))
def test_documents_and_trapdoors_equal_the_transcription(w, match_kernel):
    a, b, c = words_of(w)
    for m in range(1, w):
        swp = SwpScheme(KEY, word_length=w, check_length=m, rng=DeterministicRng(w * 100 + m))
        one_digest = w - m <= 32 and m <= 32
        assert (swp._sealer is not None) == (match_kernel == "native" and one_digest)
        # ``a`` repeats within the first document and across both.
        documents = swp.encrypt_documents([[a, b, a], [Word(c), bytearray(a)]])
        for words, document in zip(([a, b, a], [c, a]), documents):
            assert document.encrypted_words == tuple(
                ciphertext_of(word, document.document_id, position, w, m)
                for position, word in enumerate(words)
            ), (w, m)
        tokens = swp.trapdoors([a, memoryview(c)])
        assert [(t.pre_encrypted_word, t.check_key) for t in tokens] == [
            trapdoor_of(a, w, m), trapdoor_of(c, w, m)
        ], (w, m)


def test_both_paths_draw_the_same_ids_and_fill_the_same_memo(match_kernel, monkeypatch):
    words = [[b"HR########D", b"MontgomeryN", b"HR########D"], [b"7500######S"]]
    swp = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(5))
    documents = swp.encrypt_documents(words)
    tokens = swp.trapdoors([b"Smith#####N", b"HR########D"])
    monkeypatch.setattr(native, "kernel", None)
    reference = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(5))
    assert reference.encrypt_documents(words) == documents
    assert reference.trapdoors([b"Smith#####N", b"HR########D"]) == tokens
    assert reference._memo == swp._memo and len(swp._memo) == 4


def test_the_kernel_keeps_the_memo_bound(match_kernel):
    swp = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(5))
    words = [b"%011d" % number for number in range(3 * PRE_ENCRYPT_MEMO_WORDS + 7)]
    swp.encrypt_documents([words[:PRE_ENCRYPT_MEMO_WORDS + 5]])
    assert len(swp._memo) <= PRE_ENCRYPT_MEMO_WORDS
    swp.trapdoors(words)
    assert 0 < len(swp._memo) <= PRE_ENCRYPT_MEMO_WORDS


#: Words that are neither a Word nor bytes-like: ``bytes(15)`` would be 15 zero bytes.
NOT_WORDS = {"int": 15, "str": "HR########D", "None": None, "list of bytes": [b"HR"]}


@both_paths
@pytest.mark.parametrize("what", NOT_WORDS)
def test_a_word_that_is_not_bytes_like_is_a_parameter_error(what):
    swp = SwpScheme(KEY, word_length=15, check_length=6, rng=DeterministicRng(5))
    bad = NOT_WORDS[what]
    with pytest.raises(ParameterError, match="a word is a Word or bytes-like"):
        swp.trapdoor(bad)
    with pytest.raises(ParameterError, match="a word is a Word or bytes-like"):
        swp.encrypt_document([b"x" * 15, bad])
    with pytest.raises(ParameterError, match="a word is a Word or bytes-like"):
        swp.encrypt_documents([[b"x" * 15], [bad]])
    # Nothing was drawn or remembered: the next document is a fresh scheme's.
    assert swp._memo == {}
    fresh = SwpScheme(KEY, word_length=15, check_length=6, rng=DeterministicRng(5))
    assert swp.encrypt_document([b"x" * 15]) == fresh.encrypt_document([b"x" * 15])


class Bytes(bytes):
    """A bytes subclass: a word the kernel would leave to Python, read as its bytes."""


@both_paths
def test_bytes_like_words_encrypt_as_their_bytes():
    word = b"MontgomeryN####"
    forms = [word, Word(word), bytearray(word), memoryview(word), Bytes(word)]
    tokens = {
        SwpScheme(KEY, word_length=15, check_length=6).trapdoor(form) for form in forms
    }
    assert len(tokens) == 1
    documents = {
        SwpScheme(KEY, word_length=15, check_length=6, rng=DeterministicRng(1))
        .encrypt_document([form]) for form in forms
    }
    assert len(documents) == 1


@both_paths
def test_ids_of_the_wrong_length_or_count_are_refused():
    swp = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(5))
    with pytest.raises(ParameterError, match="document id must be 16 bytes"):
        swp.encrypt_document([b"HR########D"], document_id=b"short")
    with pytest.raises(ParameterError, match="differ in length"):
        swp.encrypt_documents([[b"HR########D"]], [b"n" * 16] * 2)
