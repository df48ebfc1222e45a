"""``SwpMatcher`` against a literal transcription of the paper's check.

The transcription below is the specification (Section 3: ``T = C_i XOR X``,
accept iff ``F_k(T[:w-m]) == T[w-m:]``) written with a byte-wise XOR and a
fresh ``hmac.new`` per evaluation.  It lives here, not in ``src/``: the
product has one reference, the Python loop, and one native twin, the C
kernel of :mod:`repro.native`, and every test below runs against each of the
two (the ``match_kernel`` fixture) -- over random documents and tokens,
wrong-length word ciphertexts, planted matches at every position and
multi-token conjunctions.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from provider_calls import store_relation
from repro.core.construction import SearchableSelectDph
from repro.core.dph import EncryptedQuery, EncryptedRelation
from repro.core.variable_length import VariableWidthSelectDph
from repro.crypto.errors import CryptoError
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.audit import AuditEventKind
from repro.relational import Relation, RelationSchema
from repro.relational.query import ConjunctiveSelection, Selection
from repro.searchable.interfaces import EncryptedDocument
from repro.searchable.swp import SwpMatcher, SwpScheme, swp_search
from repro.searchable.tokens import SwpToken
from repro.searchable.words import Word

pytestmark = pytest.mark.usefixtures("match_kernel")

KEY = bytes(range(32))


def paper_prf(key: bytes, message: bytes, out_len: int) -> bytes:
    """``F_key(message)`` to ``out_len`` bytes: fresh HMACs, chained past one digest."""
    info = message + b"|" + out_len.to_bytes(4, "big")
    out = previous = b""
    counter = 1
    while len(out) < out_len:
        previous = hmac.new(
            key + b"|", previous + info + bytes([counter]), hashlib.sha256
        ).digest()
        out += previous
        counter += 1
    return out[:out_len]


def paper_check(ciphertext: bytes, token: SwpToken, w: int, m: int) -> bool:
    """The paper's test of one word ciphertext; other lengths are skipped."""
    if len(ciphertext) != w:
        return False
    masked = bytes(c ^ x for c, x in zip(ciphertext, token.pre_encrypted_word))
    return paper_prf(token.check_key, masked[: w - m], m) == masked[w - m:]


def paper_positions(words, token: SwpToken, w: int, m: int) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(words) if paper_check(c, token, w, m))


@st.composite
def parameters(draw):
    # Up to 40 bytes so the check length can exceed one SHA-256 digest.
    w = draw(st.integers(min_value=2, max_value=40))
    m = draw(st.integers(min_value=1, max_value=w - 1))
    return w, m


@st.composite
def random_case(draw):
    w, m = draw(parameters())
    token = SwpToken(
        pre_encrypted_word=draw(st.binary(min_size=w, max_size=w)),
        check_key=draw(st.binary(min_size=16, max_size=40)),
    )
    word = st.one_of(
        st.binary(min_size=w, max_size=w),
        st.binary(max_size=w + 3),  # mostly wrong lengths, incl. empty
    )
    return w, m, token, tuple(draw(st.lists(word, max_size=6)))


@given(case=random_case())
@settings(max_examples=150, deadline=None)
def test_random_documents_and_tokens(case):
    w, m, token, words = case
    matcher = SwpMatcher(token, w, m)
    assert tuple(matcher.matches(c) for c in words) == tuple(
        paper_check(c, token, w, m) for c in words
    )
    document = EncryptedDocument(document_id=b"\x00" * 16, encrypted_words=words)
    found = swp_search(document, token, w, m)
    assert found.positions == paper_positions(words, token, w, m)
    assert found.matched == bool(found.positions)


@given(
    params=parameters(),
    count=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_planted_match_at_every_position(params, count, seed, data):
    w, m = params
    scheme = SwpScheme(KEY, w, check_length=m, rng=DeterministicRng(seed))
    plain = [
        Word(data.draw(st.binary(min_size=w, max_size=w))) for _ in range(count)
    ]
    stored = list(scheme.encrypt_document(plain).encrypted_words)
    junk_at = data.draw(st.integers(min_value=0, max_value=count))
    stored.insert(junk_at, b"wrong length" * 5)  # skipped, as a stored oddity is today
    for position, word in enumerate(plain):
        token = scheme.trapdoor(word)
        expected = paper_positions(stored, token, w, m)
        assert position + (position >= junk_at) in expected
        document = EncryptedDocument(document_id=b"", encrypted_words=tuple(stored))
        assert swp_search(document, token, w, m).positions == expected
        assert scheme.search(document, token).positions == expected


@given(case=random_case(), cut=st.integers(min_value=0, max_value=15))
@settings(max_examples=60, deadline=None)
def test_malformed_tokens_never_compile(case, cut):
    w, m, token, _ = case
    with pytest.raises(CryptoError):
        SwpMatcher(SwpToken(token.pre_encrypted_word, token.check_key[:cut]), w, m)
    with pytest.raises(CryptoError):
        SwpMatcher(SwpToken(token.pre_encrypted_word + b"\x00", token.check_key), w, m)
    with pytest.raises(CryptoError):
        SwpMatcher(SwpToken(token.pre_encrypted_word[:-1], token.check_key), w, m)
    for bad_m in (0, w, w + 1):
        with pytest.raises(CryptoError):
            SwpMatcher(token, w, bad_m)


# --------------------------------------------------------------------------- #
# Conjunctions through the two evaluators
# --------------------------------------------------------------------------- #

SCHEMA = RelationSchema.parse("Emp(name:string[14], dept:string[5], salary:int[6])")
NAMES = ("Adams", "Brown", "Jones", "Smith")
DEPTS = ("HR", "IT", "SALES")
SALARIES = (4100, 5200, 7500)

rows = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(DEPTS), st.sampled_from(SALARIES)),
    max_size=12,
)
predicates = st.lists(
    st.one_of(
        st.tuples(st.just("name"), st.sampled_from(NAMES)),
        st.tuples(st.just("dept"), st.sampled_from(DEPTS)),
        st.tuples(st.just("salary"), st.sampled_from(SALARIES)),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda p: p[0],
)


def make_dph(kind: str, seed: int = 11):
    if kind == "variable":
        return VariableWidthSelectDph(SCHEMA, KEY, rng=DeterministicRng(seed))
    return SearchableSelectDph(SCHEMA, KEY, backend="swp", rng=DeterministicRng(seed))


def paper_conjunction(kind: str, evaluator, query: EncryptedQuery, relation: EncryptedRelation):
    """The scan, transcribed: every token against every tuple until one fails."""
    description = evaluator.describe()
    matching, evaluations = [], 0
    for encrypted_tuple in relation.encrypted_tuples:
        for raw in query.tokens:
            evaluations += 1
            if kind == "variable":
                position = int.from_bytes(raw[:2], "big")
                w, m = description["attribute_parameters"][position]
                fields = encrypted_tuple.search_fields[position: position + 1]
                token = SwpToken.from_bytes(raw[2:])
            else:
                w, m = description["word_length"], description["check_length"]
                fields = encrypted_tuple.search_fields
                token = SwpToken.from_bytes(raw)
            if not paper_positions(fields, token, w, m):
                break
        else:
            matching.append(encrypted_tuple.tuple_id)
    return matching, evaluations


@pytest.mark.parametrize("kind", ["fixed", "variable"])
@given(rows=rows, predicates=predicates)
@settings(max_examples=60, deadline=None)
def test_conjunctions_equal_the_transcribed_scan(kind, rows, predicates):
    dph = make_dph(kind)
    evaluator = dph.server_evaluator()
    relation = dph.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    query = dph.encrypt_query(ConjunctiveSelection.of(*predicates))
    result = evaluator.evaluate(query, relation)
    matching, evaluations = paper_conjunction(kind, evaluator, query, relation)
    assert [t.tuple_id for t in result.matching] == matching
    assert result.token_evaluations == evaluations
    assert result.examined == len(rows)
    plain = {p[0]: p[1] for p in predicates}
    expected = [r for r in rows if all(r[SCHEMA.attribute_names.index(a)] == v
                                       for a, v in plain.items())]
    assert len(matching) == len(expected)  # false positives need a 2^-48 accident


# --------------------------------------------------------------------------- #
# Counters and audit fields: the values the parent commit (6771732) reports
# --------------------------------------------------------------------------- #

FIXED_ROWS = [
    ("Montgomery", "HR", 7500),
    ("Smith", "IT", 5200),
    ("Jones", "HR", 7500),
    ("Brown", "SALES", 4100),
    ("Adams", "IT", 6100),
    ("Clark", "HR", 5200),
    ("Davis", "SALES", 7500),
    ("Evans", "HR", 4100),
]
FIXED_QUERIES = {
    "point": Selection.equals("name", "Jones"),
    "department": Selection.equals("dept", "HR"),
    "miss": Selection.equals("name", "Nobody"),
    "conjunction": ConjunctiveSelection.of(("dept", "HR"), ("salary", 7500)),
    "triple": ConjunctiveSelection.of(("dept", "HR"), ("salary", 7500), ("name", "Jones")),
}
#: (result_size, examined, token_evaluations, token_count), same for both evaluators.
PARENT_COUNTERS = {
    "point": (1, 8, 8, 1),
    "department": (4, 8, 8, 1),
    "miss": (0, 8, 8, 1),
    "conjunction": (2, 8, 12, 2),
    "triple": (1, 8, 14, 3),
}


@pytest.mark.parametrize("kind", ["fixed", "variable"])
def test_counters_and_audit_fields_equal_the_parent_commit(kind):
    dph = make_dph(kind)
    server = OutsourcedDatabaseServer()
    store_relation(
        server, "Emp", dph.encrypt_relation(Relation.from_rows(SCHEMA, FIXED_ROWS)),
        dph.server_evaluator(),
    )
    observed = {}
    for name, query in FIXED_QUERIES.items():
        result = server.execute_query("Emp", dph.encrypt_query(query))
        detail = server.audit_log.events_of_kind(AuditEventKind.QUERY_EXECUTED)[-1].detail
        assert detail == {
            "result_size": len(result.matching),
            "examined": result.examined,
            "token_evaluations": result.token_evaluations,
            "token_count": len(dph.encrypt_query(query).tokens),
        }
        observed[name] = tuple(detail.values())
    assert observed == PARENT_COUNTERS
