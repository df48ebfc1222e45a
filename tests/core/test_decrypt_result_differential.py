"""One-pass ``decrypt_result`` against a transcription of the two-pass one.

``reference_decrypt_result`` below is what the parent commit (360279c) did:
decrypt the whole server result into a relation, then run the plaintext
engine's selection over it into a second relation.  The base-class rewrite
decrypts, tests the predicates and keeps or counts each tuple in one pass; for
every scheme it must hand back the same multiset of tuples (in the same
order) and the same ``returned`` / ``false_positives`` / ``kept``.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VariableWidthSelectDph
from repro.core.dph import DatabasePrivacyHomomorphism, EvaluationResult
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational import (
    ConjunctiveSelection,
    Projection,
    Relation,
    RelationSchema,
    Selection,
)
from repro.relational.engine import PlaintextEngine
from repro.relational.errors import QueryError
from repro.schemes import BucketizationConfig, registry

SCHEMA = RelationSchema.parse("Emp(name:string[12], dept:string[5], salary:int[5])")
NAMES = ("ada", "bob", "cy", "dee")
DEPARTMENTS = ("HR", "IT", "OPS")
SALARIES = (0, 1, 4999, 5000, 9999)

#: Every registered scheme, the variable-width construction, and two
#: configurations whose servers return false positives by design.
SCHEMES = (*registry.available_schemes(), "variable", "swp/check_length=1", "bucketization/2")


def build_scheme(name: str) -> DatabasePrivacyHomomorphism:
    key = SecretKey.generate(rng=DeterministicRng(99))
    rng = DeterministicRng(100)
    if name == "variable":
        return VariableWidthSelectDph(SCHEMA, key, rng=rng)
    if name == "swp/check_length=1":
        return registry.create("swp", SCHEMA, key, rng=rng, check_length=1)
    if name == "bucketization/2":
        config = BucketizationConfig.uniform(SCHEMA, num_buckets=2, minimum=0, maximum=9999)
        return registry.create("bucketization", SCHEMA, key, rng=rng, config=config)
    return registry.create(name, SCHEMA, key, rng=rng)


def reference_decrypt_result(dph, result, query):
    """The parent commit's ``decrypt_result`` + ``filter_decrypted_result``."""
    encrypted = result.matching if isinstance(result, EvaluationResult) else result
    decrypted = dph.decrypt_relation(encrypted)
    if query is None:
        return decrypted, len(decrypted), 0, len(decrypted)
    selection = query.inner if isinstance(query, Projection) else query
    filtered = PlaintextEngine().execute(selection, decrypted)
    assert isinstance(filtered, Relation)
    return filtered, len(decrypted), len(decrypted) - len(filtered), len(filtered)


def assert_same_report(dph, result, query) -> None:
    relation, returned, false_positives, kept = reference_decrypt_result(dph, result, query)
    report = dph.decrypt_result(result, query)
    assert report.relation.tuples == relation.tuples  # same tuples, same order
    assert report.relation.schema is dph.schema
    assert (report.returned, report.false_positives, report.kept) == (
        returned, false_positives, kept
    )


rows = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(DEPARTMENTS), st.sampled_from(SALARIES)),
    max_size=12,
)
predicates = st.one_of(
    st.tuples(st.just("name"), st.sampled_from(NAMES)),
    st.tuples(st.just("dept"), st.sampled_from(DEPARTMENTS)),
    st.tuples(st.just("salary"), st.sampled_from(SALARIES)),
)
selections = st.one_of(
    predicates.map(lambda p: Selection.equals(*p)),
    st.lists(predicates, min_size=1, max_size=3, unique_by=lambda p: p[0]).map(
        lambda ps: ConjunctiveSelection.of(*ps)
    ),
)
queries = st.one_of(
    selections,
    selections.map(lambda s: Projection(s, ("name",))),
    selections.map(lambda s: Projection(s, ())),
)


@pytest.mark.parametrize("scheme_name", SCHEMES)
@given(rows=rows, query=queries)
@settings(max_examples=25, deadline=None)
def test_one_pass_equals_decrypt_then_filter(scheme_name, rows, query):
    dph = build_scheme(scheme_name)
    encrypted = dph.encrypt_relation(Relation.from_rows(SCHEMA, rows))
    evaluation = dph.server_evaluator().evaluate(dph.encrypt_query(query), encrypted)
    # What the server returned (with whatever false positives the scheme has) ...
    assert_same_report(dph, evaluation, query)
    assert_same_report(dph, evaluation.matching, query)
    # ... the whole table, where every non-matching tuple is a false positive ...
    assert_same_report(dph, encrypted, query)
    # ... and plain D: no query, nothing filtered.
    assert_same_report(dph, encrypted, None)


@pytest.mark.parametrize("scheme_name", ["swp/check_length=1", "bucketization/2"])
def test_forced_false_positives_are_counted_not_kept(scheme_name):
    dph = build_scheme(scheme_name)
    relation = Relation.from_rows(
        SCHEMA, [(f"n{i}", DEPARTMENTS[i % 3], 10 * i) for i in range(600)]
    )
    encrypted = dph.encrypt_relation(relation)
    query = Selection.equals("salary", 20)
    evaluation = dph.server_evaluator().evaluate(dph.encrypt_query(query), encrypted)
    report = dph.decrypt_result(evaluation, query)
    assert report.false_positives > 0, "the configuration no longer forces false positives"
    assert report.kept == 1 and report.returned == report.kept + report.false_positives
    assert [t.value("name") for t in report.relation] == ["n2"]
    assert_same_report(dph, evaluation, query)


@pytest.mark.parametrize("scheme_name", SCHEMES)
def test_query_is_validated_against_the_schema(scheme_name):
    dph = build_scheme(scheme_name)
    encrypted = dph.encrypt_relation(Relation.from_rows(SCHEMA, [("ada", "HR", 1)]))
    for bad in (Selection.equals("nope", 1), Selection.equals("salary", "not an int")):
        with pytest.raises(QueryError):
            dph.decrypt_result(encrypted, bad)
        with pytest.raises(QueryError):  # also when there is nothing to filter
            dph.decrypt_result(encrypted.restrict_to([]), bad)


def test_decrypt_result_is_defined_once():
    """The base class owns it; no scheme overrides it."""
    for scheme_name in SCHEMES:
        owner = next(
            cls for cls in inspect.getmro(type(build_scheme(scheme_name)))
            if "decrypt_result" in vars(cls)
        )
        assert owner is DatabasePrivacyHomomorphism, scheme_name
