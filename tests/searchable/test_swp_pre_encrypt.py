"""The memo of SWP's deterministic half ``W -> (X, k)``: invisible in the bytes, bounded, private.

``SwpScheme._pre_encrypt`` remembers the pre-encryption and check key of the
words it has seen.  These tests hold it to its contract: a scheme that has
seen a word and one that has not produce the same ciphertexts and trapdoors,
the memo never outgrows its bound, it belongs to one scheme instance and
starts empty, and nothing the provider runs can reach it -- on both paths
(the ``match_kernel`` fixture): the native kernel's ``swp_encrypt_words``
probes and fills the same dict.
"""

from __future__ import annotations

import pathlib

import pytest

import repro
from repro.core.construction import SearchableSelectDph
from repro.crypto.errors import ParameterError
from repro.crypto.rng import DeterministicRng
from repro.relational import RelationSchema
from repro.relational.tuples import RelationTuple
from repro.searchable.swp import PRE_ENCRYPT_MEMO_WORDS, SwpMatcher, SwpScheme
from repro.searchable.words import Word

pytestmark = pytest.mark.usefixtures("match_kernel")

KEY = bytes(range(32))
WORD_LENGTH = 11
#: Three documents over a small vocabulary: words repeat within and across them.
DOCUMENTS = (
    (b"HR########D", b"MontgomeryN", b"HR########D"),
    (b"HR########D", b"Smith#####N", b"7500######S"),
    (b"7500######S", b"MontgomeryN", b"IT########D"),
)


def scheme(rng) -> SwpScheme:
    return SwpScheme(KEY, word_length=WORD_LENGTH, check_length=4, rng=rng)


def memo(swp: SwpScheme) -> dict:
    return swp._memo


def test_a_warm_scheme_and_cold_schemes_produce_identical_bytes():
    warm_rng, cold_rng = DeterministicRng(3), DeterministicRng(3)
    warm = scheme(warm_rng)
    for words in DOCUMENTS:
        cold = scheme(cold_rng)  # sees every word for the first time
        assert warm.encrypt_document(words) == cold.encrypt_document(words)
        for word in words:
            assert warm.trapdoor(Word(word)) == scheme(cold_rng).trapdoor(Word(word))
    assert 0 < len(memo(warm)) == len({word for words in DOCUMENTS for word in words})


def test_trapdoor_after_encrypting_the_word_equals_a_cold_trapdoor():
    warm = scheme(DeterministicRng(3))
    word = Word(DOCUMENTS[0][0])
    document = warm.encrypt_document([word])
    assert bytes(word) in memo(warm)  # the trapdoor below is a hit
    token = warm.trapdoor(word)
    assert token == scheme(DeterministicRng(9)).trapdoor(word)
    assert warm.search(document, token).positions == (0,)
    assert warm.decrypt_document(document) == [word]


def test_the_memo_is_empty_at_construction_and_per_instance():
    one, two = scheme(DeterministicRng(3)), scheme(DeterministicRng(3))
    assert memo(one) == {} and memo(two) == {}
    one.encrypt_document(DOCUMENTS[0])
    assert len(memo(one)) == 2 and memo(two) == {}
    assert memo(one) is not memo(two)
    # Same words under another key: entries are per scheme, not per word.
    other = SwpScheme(bytes(32), word_length=WORD_LENGTH, check_length=4)
    other.trapdoor(Word(DOCUMENTS[0][0]))
    assert memo(other)[DOCUMENTS[0][0]] != memo(one)[DOCUMENTS[0][0]]


def test_the_memo_never_outgrows_its_bound():
    warm = scheme(DeterministicRng(3))
    cold = scheme(DeterministicRng(3))
    probe = Word(b"%011d" % 0)
    expected = cold.trapdoor(probe)
    for number in range(10 * PRE_ENCRYPT_MEMO_WORDS):
        warm.trapdoor(Word(b"%011d" % number))
        assert len(memo(warm)) <= PRE_ENCRYPT_MEMO_WORDS
    assert 0 < len(memo(warm))
    assert warm.trapdoor(probe) == expected  # evicted long ago, recomputed the same


def test_a_word_of_the_wrong_length_is_rejected_and_not_remembered():
    """Every word is validated before any is pre-encrypted or an id is drawn:
    a refused document leaves nothing behind, its good words included."""
    swp = scheme(DeterministicRng(3))
    for bad in (b"short", b"x" * (WORD_LENGTH + 1)):
        with pytest.raises(ParameterError, match="word must be exactly 11 bytes"):
            swp.trapdoor(Word(bad))
        with pytest.raises(ParameterError, match="word must be exactly 11 bytes"):
            swp.encrypt_document([Word(DOCUMENTS[0][0]), Word(bad)])
    assert memo(swp) == {}
    assert swp.encrypt_document(DOCUMENTS[0]) == scheme(DeterministicRng(3)).encrypt_document(
        DOCUMENTS[0]
    )


def test_a_table_bound_twice_starts_cold_each_time():
    """What ``_bind_table`` does per ``create_table``: a fresh scheme, an empty memo."""
    schema = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")
    first = SearchableSelectDph(schema, KEY, rng=DeterministicRng(3))
    first.encrypt_tuple(
        RelationTuple(schema, {"name": "Montgomery", "dept": "HR", "salary": 7500})
    )
    second = SearchableSelectDph(schema, KEY, rng=DeterministicRng(3))
    assert len(memo(first._scheme)) == 3 and memo(second._scheme) == {}


def test_nothing_the_provider_runs_can_reach_the_memo():
    swp = scheme(DeterministicRng(3))
    document = swp.encrypt_document(DOCUMENTS[0])
    matcher = SwpMatcher(swp.trapdoor(Word(DOCUMENTS[0][0])), WORD_LENGTH, 4)
    assert matcher.matches(document.encrypted_words[0])
    held = vars(matcher).values()
    assert not any(isinstance(value, (dict, SwpScheme)) for value in held)
    package = pathlib.Path(repro.__file__).parent
    provider_side = [
        *package.glob("outsourcing/*.py"),
        *package.glob("net/*.py"),
        package / "searchable" / "tokens.py",
    ]
    assert len(provider_side) > 10
    for path in provider_side:
        source = path.read_text(encoding="utf-8")
        for name in ("_pre_encrypt", "PRE_ENCRYPT_MEMO_WORDS", "SwpScheme"):
            assert name not in source, f"{path.name} mentions {name}"
