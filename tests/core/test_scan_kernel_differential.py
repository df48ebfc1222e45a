"""The compiled scan against verbatim copies of the per-tuple scan it replaced.

Every evaluator now compiles each query token into a filter over a sequence
of tuple ciphertexts, and :func:`repro.core.dph.evaluate_conjunction` runs
each filter once over the survivors of the one before it; the SWP check is
one loop in :meth:`repro.searchable.swp.SwpMatcher.select`.  The reference
below is the code that did the same job one tuple and one callable at a
time: ``evaluate_conjunction``, ``FieldMatchEvaluator.evaluate``, the
searchable and variable-width ``_compile`` and ``SwpMatcher.matches``,
copied unchanged (``self`` becomes the public parameters the evaluator
describes).

For every registered scheme and the variable-width construction, over
Hypothesis-drawn relations -- planted matches, word ciphertexts one byte
too long or too short that carry a valid check (a leading zero byte added
or dropped: the same integer), tuples with fewer search fields, conjunctions
of one to three tokens, the empty relation, malformed or foreign tokens and
malformed stored index metadata -- both must return the same tuple ids in
the same order with equal ``examined`` and ``token_evaluations``, or raise
the same exception class with the same message.  Each test runs twice, once
over the native SWP kernel and once over the Python loop (the
``match_kernel`` fixture).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dph import (
    DphError,
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
    EvaluationResult,
)
from repro.core.variable_length import VariableWidthSelectDph
from repro.crypto.errors import CryptoError, ParameterError
from repro.crypto.prf import Prf
from repro.crypto.rng import DeterministicRng
from repro.relational import Relation, RelationSchema
from repro.relational.query import ConjunctiveSelection
from repro.schemes.base import decode_field_token
from repro.schemes.registry import available_schemes, create
from repro.searchable.index_sse import index_contains
from repro.searchable.tokens import IndexToken, SwpToken

pytestmark = pytest.mark.usefixtures("match_kernel")

KEY = bytes(range(32))
SCHEMA = RelationSchema.parse("Emp(name:string[6], dept:string[4], salary:int[4])")
POOL = {"name": ("ann", "bob", "cyd"), "dept": ("HR", "IT"), "salary": (1, 2, 3)}
KINDS = (*available_schemes(), "variable")


# --------------------------------------------------------------------------- #
# The reference: the per-tuple scan, copied unchanged
# --------------------------------------------------------------------------- #


def evaluate_conjunction(
    encrypted_relation: EncryptedRelation,
    conditions: Sequence[Callable[[EncryptedTuple], bool]],
) -> EvaluationResult:
    matching = []
    token_evaluations = 0
    for encrypted_tuple in encrypted_relation.encrypted_tuples:
        for condition in conditions:
            token_evaluations += 1
            if not condition(encrypted_tuple):
                break
        else:
            matching.append(encrypted_tuple)
    return EvaluationResult(
        matching=EncryptedRelation(
            schema=encrypted_relation.schema, encrypted_tuples=tuple(matching)
        ),
        examined=len(encrypted_relation),
        token_evaluations=token_evaluations,
    )


class SwpMatcher:
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
        self._check_bits = 8 * check_length
        self._check_mask = (1 << self._check_bits) - 1
        self._pre_encrypted = int.from_bytes(token.pre_encrypted_word, "big")
        self._check = Prf(token.check_key).fixed(check_length)

    def matches(self, ciphertext: bytes) -> bool:
        if len(ciphertext) != self._word_length:
            return False
        masked = int.from_bytes(ciphertext, "big") ^ self._pre_encrypted
        stream_part = (masked >> self._check_bits).to_bytes(self._left_length, "big")
        return int.from_bytes(self._check(stream_part), "big") == masked & self._check_mask


def compile_swp_token(
    raw_token: bytes, word_length: int, check_length: int
) -> Callable[[bytes], bool]:
    try:
        token = SwpToken.from_bytes(raw_token)
        return SwpMatcher(token, word_length, check_length).matches
    except (CryptoError, ValueError) as exc:
        raise DphError(f"malformed SWP trapdoor: {exc}") from exc


class Parameters:
    """An evaluator's public parameters under the attribute names its code used."""

    def __init__(self, description: dict) -> None:
        self._scheme_name = description.get("scheme_name")
        self._backend = description.get("backend")
        self._word_length = description.get("word_length")
        self._check_length = description.get("check_length")
        self._entry_length = description.get("entry_length")
        self._parameters = tuple(
            tuple(pair) for pair in description.get("attribute_parameters", ())
        )


class SearchableReference(Parameters):
    def evaluate(self, encrypted_query, encrypted_relation):
        if encrypted_query.scheme_name != self._backend:
            raise DphError(
                f"query was encrypted for {encrypted_query.scheme_name!r}, "
                f"this evaluator handles {self._backend!r}"
            )
        conditions = [self._compile(raw) for raw in encrypted_query.tokens]
        return evaluate_conjunction(encrypted_relation, conditions)

    def _compile(self, raw_token: bytes) -> Callable[[EncryptedTuple], bool]:
        if self._backend == "dph-swp":
            matches = compile_swp_token(raw_token, self._word_length, self._check_length)
            return lambda t: any(map(matches, t.search_fields))
        label = IndexToken.from_bytes(raw_token).label
        return lambda t: index_contains(t.metadata, t.tuple_id, label, self._entry_length)


class VariableReference(Parameters):
    def evaluate(self, encrypted_query, encrypted_relation):
        if encrypted_query.scheme_name != "dph-swp-variable":
            raise DphError(
                f"query was encrypted for {encrypted_query.scheme_name!r}, "
                f"this evaluator handles {'dph-swp-variable'!r}"
            )
        conditions = [self._compile(raw) for raw in encrypted_query.tokens]
        return evaluate_conjunction(encrypted_relation, conditions)

    def _compile(self, raw: bytes) -> Callable[[EncryptedTuple], bool]:
        if len(raw) < 2:
            raise DphError("malformed variable-width query token")
        index = int.from_bytes(raw[:2], "big")
        if index >= len(self._parameters):
            raise DphError(f"token refers to unknown attribute position {index}")
        matches = compile_swp_token(raw[2:], *self._parameters[index])
        return lambda t: index < len(t.search_fields) and matches(t.search_fields[index])


class FieldMatchReference(Parameters):
    def evaluate(self, encrypted_query, encrypted_relation):
        if encrypted_query.scheme_name != self._scheme_name:
            raise DphError(
                f"query was encrypted for {encrypted_query.scheme_name!r}, "
                f"this evaluator handles {self._scheme_name!r}"
            )
        conditions = [decode_field_token(t) for t in encrypted_query.tokens]
        matching = []
        token_evaluations = 0
        for encrypted_tuple in encrypted_relation.encrypted_tuples:
            matched_all = True
            for attribute_index, field in conditions:
                token_evaluations += 1
                if attribute_index >= len(encrypted_tuple.search_fields):
                    matched_all = False
                    break
                if encrypted_tuple.search_fields[attribute_index] != field:
                    matched_all = False
                    break
            if matched_all:
                matching.append(encrypted_tuple)
        return EvaluationResult(
            matching=EncryptedRelation(
                schema=encrypted_relation.schema, encrypted_tuples=tuple(matching)
            ),
            examined=len(encrypted_relation),
            token_evaluations=token_evaluations,
        )


REFERENCES = {
    "searchable": SearchableReference,
    "variable-width": VariableReference,
    "field-match": FieldMatchReference,
}


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #


def make_dph(kind: str):
    if kind == "variable":
        return VariableWidthSelectDph(SCHEMA, KEY, rng=DeterministicRng(7))
    return create(kind, SCHEMA, KEY, rng=DeterministicRng(7))


def forged_word(raw_swp_token: bytes, word_length: int, check_length: int) -> bytes:
    """A ``word_length``-byte ciphertext that passes the token's check and starts
    with a zero byte, so dropping it (or adding another) changes only its length."""
    token = SwpToken.from_bytes(raw_swp_token)
    stream = token.pre_encrypted_word[:1] + b"\x5a" * (word_length - check_length - 1)
    plain = stream + Prf(token.check_key).fixed(check_length)(stream)
    forged = bytes(a ^ b for a, b in zip(plain, token.pre_encrypted_word))
    assert forged[0] == 0
    return forged


def swp_parameters(kind: str, description: dict, raw: bytes):
    """``(position or None, swp token bytes, w, m)`` of a well-formed SWP token."""
    if kind == "variable":
        position = int.from_bytes(raw[:2], "big")
        return (position, raw[2:], *description["attribute_parameters"][position])
    return None, raw, description["word_length"], description["check_length"]


rows = st.lists(st.tuples(*(st.sampled_from(v) for v in POOL.values())), max_size=7)
predicates = st.lists(
    st.sampled_from([(a, v) for a, values in POOL.items() for v in values]),
    min_size=1,
    max_size=3,
    unique_by=lambda p: p[0],
)
#: Per tuple: leave it, drop search fields, plant a wrong-length word with a
#: valid check (or a right-length one), or break its stored index.
tuple_edits = st.lists(
    st.sampled_from(["keep", "keep", "short", "too-long", "too-short", "forged", "bad-index"]),
    min_size=7,
    max_size=7,
)
token_edits = st.lists(
    st.one_of(st.none(), st.binary(max_size=24)), min_size=3, max_size=3
)


def build_case(kind, rows, predicates, edits, junk, foreign, short_to):
    dph = make_dph(kind)
    evaluator = dph.server_evaluator()
    description = evaluator.describe()
    relation = dph.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    query = dph.encrypt_query(ConjunctiveSelection.of(*predicates))
    raw_first = query.tokens[0]
    tuples = []
    for encrypted_tuple, edit in zip(relation.encrypted_tuples, edits):
        fields = list(encrypted_tuple.search_fields)
        metadata = encrypted_tuple.metadata
        if edit == "short":
            fields = fields[:short_to]
        elif edit in ("too-long", "too-short", "forged") and description.get(
            "backend", "dph-swp"
        ) == "dph-swp" and description["type"] != "field-match":
            position, raw, w, m = swp_parameters(kind, description, raw_first)
            word = forged_word(raw, w, m)
            word = {"too-long": b"\x00" + word, "too-short": word[1:], "forged": word}[edit]
            if position is None:
                fields.insert(short_to % (len(fields) + 1), word)
            elif position < len(fields):
                fields[position] = word
        elif edit == "bad-index" and metadata:
            metadata = metadata + b"\x01"
        tuples.append(
            dataclasses.replace(encrypted_tuple, search_fields=tuple(fields), metadata=metadata)
        )
    relation = EncryptedRelation(schema=relation.schema, encrypted_tuples=tuple(tuples))
    tokens = tuple(
        raw if replacement is None else replacement
        for raw, replacement in zip(query.tokens, junk)
    )
    scheme_name = "someone-else" if foreign else query.scheme_name
    return evaluator, description, EncryptedQuery(scheme_name, tokens), relation


def outcome(evaluate):
    try:
        result = evaluate()
    except Exception as exc:  # noqa: BLE001 -- the class and message are compared
        return type(exc), str(exc)
    return (
        [t.tuple_id for t in result.matching],
        result.examined,
        result.token_evaluations,
    )


@pytest.mark.parametrize("kind", KINDS)
@given(
    rows=rows,
    predicates=predicates,
    edits=tuple_edits,
    junk=token_edits,
    malformed=st.booleans(),
    foreign=st.integers(0, 9),
    short_to=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_the_compiled_scan_equals_the_per_tuple_scan(
    kind, rows, predicates, edits, junk, malformed, foreign, short_to
):
    if not malformed:
        junk = [None] * 3
    evaluator, description, query, relation = build_case(
        kind, rows, predicates, edits, junk, foreign == 0, short_to
    )
    reference = REFERENCES[description["type"]](description)
    expected = outcome(lambda: reference.evaluate(query, relation))
    assert outcome(lambda: evaluator.evaluate(query, relation)) == expected


def test_the_inputs_reach_every_branch():
    """The planted words decide matches, and the reference can fail."""
    for kind in ("swp", "variable"):
        dph = make_dph(kind)
        description = dph.server_evaluator().describe()
        query = dph.encrypt_query(ConjunctiveSelection.of(("dept", "HR")))
        position, raw, w, m = swp_parameters(kind, description, query.tokens[0])
        word = forged_word(raw, w, m)
        assert SwpMatcher(SwpToken.from_bytes(raw), w, m).matches(word)
        assert not SwpMatcher(SwpToken.from_bytes(raw), w, m).matches(word[1:])
    evaluator, description, query, relation = build_case(
        "index", [("ann", "HR", 1)], [("name", "ann")], ["bad-index"] * 7, [None] * 3, False, 0
    )
    error_class, message = outcome(lambda: evaluator.evaluate(query, relation))
    assert isinstance(error_class, type) and "entry length" in message
