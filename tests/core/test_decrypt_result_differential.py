"""One-pass ``decrypt_result`` against a transcription of the two-pass one.

``reference_decrypt_result`` below is what the parent commit (360279c) did:
decrypt the whole server result into a relation, then run the plaintext
engine's selection over it into a second relation.  The base-class rewrite
decrypts, tests the predicates and keeps or counts each tuple in one pass; for
every scheme it must hand back the same multiset of tuples (in the same
order) and the same ``returned`` / ``false_positives`` / ``kept``.

The last section holds ``filter_tuples`` -- predicates resolved to
positions, one list pass each -- to the per-row filter it replaced, on the
rows it keeps by position and on the rows it hands to the per-row path
(another schema object, mappings); and a session over a lossy scheme keeps
false positives out of ``select``, ``update`` and ``delete`` on both kernel
paths.
"""

from __future__ import annotations

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EncryptedDatabase
from repro.core import VariableWidthSelectDph
from repro.core.dph import DatabasePrivacyHomomorphism, EvaluationResult, filter_tuples
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational import (
    ConjunctiveSelection,
    Projection,
    Relation,
    RelationSchema,
    RelationTuple,
    Selection,
)
from repro.relational.engine import PlaintextEngine
from repro.relational.errors import QueryError, SchemaError
from repro.relational.query import selection_predicates
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


# --------------------------------------------------------------------------- #
# One filter, by position
# --------------------------------------------------------------------------- #

def reference_filter_tuples(schema, tuples, query=None):
    """The parent commit's ``filter_tuples``: per row, per predicate, by name."""
    predicates = () if query is None else selection_predicates(query)
    for predicate in predicates:
        predicate.validate(schema)
    kept = []
    returned = 0
    for relation_tuple in tuples:
        returned += 1
        for predicate in predicates:
            if not predicate.matches(relation_tuple):
                break
        else:
            kept.append(relation_tuple)
    return Relation(schema, kept), returned, returned - len(kept), len(kept)


def filter_outcome(filter_, schema, rows, query):
    """What a filter gives: the kept tuples and the counts, or what it raised."""
    try:
        report = filter_(schema, list(rows), query)
    except Exception as exc:  # noqa: BLE001 -- compared, not swallowed
        return "raised", type(exc), str(exc)
    if isinstance(report, tuple):
        relation, *counts = report
    else:
        relation = report.relation
        counts = [report.returned, report.false_positives, report.kept]
    assert relation.schema is schema
    return "kept", relation.tuples, tuple(counts)


def assert_same_filter(schema, rows, query):
    outcome = filter_outcome(filter_tuples, schema, rows, query)
    assert outcome == filter_outcome(reference_filter_tuples, schema, rows, query)
    return outcome


#: The same declaration parsed again: equal to ``SCHEMA``, not ``SCHEMA`` itself.
TWIN_SCHEMA = RelationSchema.parse("Emp(name:string[12], dept:string[5], salary:int[5])")
OTHER_SCHEMA = RelationSchema.parse("Emp(name:string[12], dept:string[5])")

one_attribute = st.tuples(st.just("dept"), st.sampled_from(DEPARTMENTS)).map(
    lambda p: ConjunctiveSelection.of(p)
)
two_attributes = st.tuples(
    st.sampled_from(DEPARTMENTS), st.sampled_from(SALARIES)
).map(lambda p: ConjunctiveSelection.of(("dept", p[0]), ("salary", p[1])))


@given(rows=rows, query=st.one_of(one_attribute, two_attributes, queries))
@settings(max_examples=200, deadline=None)
def test_conjunctions_filter_as_the_per_row_filter(rows, query):
    tuples = [RelationTuple.from_values(SCHEMA, row) for row in rows]
    assert_same_filter(SCHEMA, tuples, query)


@given(rows=rows, query=st.one_of(st.none(), one_attribute, two_attributes))
@settings(max_examples=100, deadline=None)
def test_rows_of_an_equal_schema_object_filter_as_before(rows, query):
    tuples = [RelationTuple.from_values(TWIN_SCHEMA, row) for row in rows]
    outcome = assert_same_filter(SCHEMA, tuples, query)
    assert outcome[0] == "kept"
    mixed = [
        RelationTuple.from_values(SCHEMA if i % 2 else TWIN_SCHEMA, row)
        for i, row in enumerate(rows)
    ]
    assert_same_filter(SCHEMA, mixed, query)


@given(rows=rows, query=st.one_of(st.none(), one_attribute, two_attributes))
@settings(max_examples=100, deadline=None)
def test_mapping_rows_filter_as_before(rows, query):
    """Mappings take the per-row path: built into tuples with no predicate,
    and whatever the per-row filter raised with one."""
    mappings = [dict(zip(SCHEMA.attribute_names, row)) for row in rows]
    outcome = assert_same_filter(SCHEMA, mappings, query)
    if query is None:
        assert outcome[1] == tuple(RelationTuple.from_values(SCHEMA, row) for row in rows)
    tuples = [RelationTuple.from_values(SCHEMA, row) for row in rows]
    assert_same_filter(SCHEMA, [*tuples, *mappings], query)


def test_rows_of_another_schema_filter_as_before():
    rows = [RelationTuple.from_values(OTHER_SCHEMA, ("ada", "HR"))]
    for query in (None, Selection.equals("dept", "HR"), Selection.equals("salary", 1)):
        outcome = assert_same_filter(SCHEMA, rows, query)
        assert outcome[0] == "raised", query
    # A row the predicates drop is never checked against the schema.
    assert assert_same_filter(SCHEMA, rows, Selection.equals("dept", "IT"))[:2] == ("kept", ())


def test_no_predicate_keeps_a_relation_of_its_own():
    tuples = [RelationTuple.from_values(SCHEMA, row) for row in [("ada", "HR", 1)] * 3]
    report = filter_tuples(SCHEMA, tuples, None)
    assert (report.returned, report.false_positives, report.kept) == (3, 0, 3)
    before = report.relation.tuples
    tuples.clear()
    tuples.append(RelationTuple.from_values(SCHEMA, ("bob", "IT", 2)))
    assert report.relation.tuples == before and len(report.relation) == 3
    report.relation.add(RelationTuple.from_values(SCHEMA, ("cy", "OPS", 3)))
    assert len(tuples) == 1  # and the other way round
    empty = filter_tuples(SCHEMA, [], Selection.equals("dept", "HR"))
    assert (empty.returned, empty.kept, len(empty.relation)) == (0, 0, 0)


def lossy_session() -> EncryptedDatabase:
    """A session whose provider answers every salary select with its whole
    two-bucket range: most returned rows are false positives."""
    config = BucketizationConfig.uniform(SCHEMA, num_buckets=2, minimum=0, maximum=9999)
    db = EncryptedDatabase.open(
        SecretKey.generate(rng=DeterministicRng(7)),
        scheme="bucketization",
        scheme_options={"config": config},
        rng=DeterministicRng(8),
    )
    db.create_table(
        SCHEMA, rows=[(f"n{i}", DEPARTMENTS[i % 3], 10 * i) for i in range(40)]
    )
    return db


def test_a_lossy_session_keeps_false_positives_out(match_kernel):
    db = lossy_session()
    query = Selection.equals("salary", 20)
    outcome = db.select(query, table="Emp")
    assert outcome.report.false_positives > 0, "the buckets no longer force false positives"
    assert [t.value("name") for t in outcome.relation] == ["n2"]
    assert db.update(query, {"dept": "IT"}, table="Emp") == 1
    rows = sorted(t.project(["name", "dept"]) for t in db.retrieve_all("Emp"))
    assert ("n2", "IT") in rows and len(rows) == 40
    assert rows == sorted(
        (f"n{i}", "IT" if i == 2 else DEPARTMENTS[i % 3]) for i in range(40)
    )
    assert db.delete(Selection.equals("salary", 30), table="Emp") == 1
    assert sorted(t.value("name") for t in db.retrieve_all("Emp")) == sorted(
        f"n{i}" for i in range(40) if i != 3
    )
    assert db.delete(Selection.equals("salary", 35), table="Emp") == 0
    assert db.update(Selection.equals("salary", 35), {"dept": "HR"}, table="Emp") == 0
    assert db.count("Emp") == 39
