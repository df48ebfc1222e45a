"""Tests for client-side filtering and the homomorphism checker."""

from __future__ import annotations

import pytest

from repro.core import SearchableSelectDph, check_homomorphism, filter_tuples
from repro.core.homomorphism import HomomorphismReport, QueryCheck
from repro.relational import Projection, Relation, Selection
from repro.schemes import BucketizationConfig, HacigumusDph


class TestFilterTuples:
    """The predicate test ``decrypt_result`` runs, on already decrypted tuples."""

    def test_no_query_keeps_everything(self, employee_relation):
        report = filter_tuples(employee_relation.schema, employee_relation, None)
        assert report.kept == len(employee_relation)
        assert report.false_positives == 0

    def test_filter_removes_non_matching_tuples(self, employee_relation):
        report = filter_tuples(
            employee_relation.schema, employee_relation, Selection.equals("dept", "HR")
        )
        assert report.kept == 2
        assert report.false_positives == len(employee_relation) - 2
        assert report.returned == len(employee_relation)

    def test_projection_wrapper_filters_on_inner_selection(self, employee_relation):
        query = Projection(Selection.equals("dept", "IT"), ("name",))
        report = filter_tuples(employee_relation.schema, iter(employee_relation), query)
        assert report.kept == 2


class TestHomomorphismChecker:
    def test_report_aggregates(self, employee_schema):
        checks = (
            QueryCheck(Selection.equals("dept", "HR"), 2, 3, 2, 1, True, True),
            QueryCheck(Selection.equals("dept", "IT"), 1, 1, 1, 0, True, True),
        )
        report = HomomorphismReport(checks)
        assert report.holds
        assert report.total_false_positives == 1
        assert report.total_returned == 4
        assert report.false_positive_rate() == pytest.approx(0.25)

    def test_empty_report(self):
        report = HomomorphismReport(())
        assert report.holds
        assert report.false_positive_rate() == 0.0

    def test_detects_lossy_scheme_false_positives(self, employee_schema, employee_relation, secret_key, rng):
        """With two buckets over the salary domain, distinct salaries collide."""
        config = BucketizationConfig.uniform(employee_schema, num_buckets=2, minimum=0, maximum=10000)
        dph = HacigumusDph(employee_schema, secret_key, config=config, rng=rng)
        report = check_homomorphism(
            dph, employee_relation, [Selection.equals("salary", 7500)]
        )
        assert report.holds  # filtering repairs the result
        assert report.total_false_positives > 0

    def test_rejects_projection_queries(self, swp_dph, employee_relation):
        with pytest.raises(TypeError):
            check_homomorphism(
                swp_dph,
                employee_relation,
                [Projection(Selection.equals("dept", "HR"), ("name",))],
            )

    def test_per_query_counts(self, swp_dph, employee_relation):
        report = check_homomorphism(
            swp_dph, employee_relation, [Selection.equals("dept", "HR")]
        )
        check = report.checks[0]
        assert check.expected == 2
        assert check.kept == 2
        assert check.complete and check.sound and check.holds
