"""Tests for the workload generators."""

from __future__ import annotations

import pytest

from repro.crypto.rng import DeterministicRng
from repro.relational.schema import Attribute, RelationSchema
from repro.workloads import (
    CategoricalDistribution,
    EmployeeWorkload,
    HospitalWorkload,
    SyntheticRelationGenerator,
    UniformIntDistribution,
    ZipfDistribution,
    hospital_schema,
)
from repro.workloads.hospital import FATAL, HEALTHY


class TestDistributions:
    def test_categorical_respects_support(self):
        dist = CategoricalDistribution(["a", "b"], [0.5, 0.5])
        rng = DeterministicRng(1)
        assert set(dist.sample_many(rng, 100)) == {"a", "b"}

    def test_categorical_zero_probability_category_never_drawn(self):
        dist = CategoricalDistribution(["a", "b", "c"], [0.0, 1.0, 0.0])
        rng = DeterministicRng(2)
        assert set(dist.sample_many(rng, 50)) == {"b"}

    def test_categorical_approximates_probabilities(self):
        dist = CategoricalDistribution([0, 1], [0.2, 0.8])
        rng = DeterministicRng(3)
        samples = dist.sample_many(rng, 2000)
        assert 0.14 < samples.count(0) / 2000 < 0.26

    def test_categorical_validation(self):
        with pytest.raises(ValueError):
            CategoricalDistribution(["a"], [0.5, 0.5])
        with pytest.raises(ValueError):
            CategoricalDistribution([], [])
        with pytest.raises(ValueError):
            CategoricalDistribution(["a", "b"], [0.0, 0.0])
        with pytest.raises(ValueError):
            CategoricalDistribution(["a", "b"], [-1.0, 2.0])

    def test_uniform_int_bounds(self):
        dist = UniformIntDistribution(5, 10)
        rng = DeterministicRng(4)
        samples = dist.sample_many(rng, 300)
        assert min(samples) >= 5 and max(samples) <= 10
        with pytest.raises(ValueError):
            UniformIntDistribution(10, 5)

    def test_zipf_prefers_early_values(self):
        dist = ZipfDistribution(["hot", "warm", "cold"], exponent=1.5)
        rng = DeterministicRng(5)
        samples = dist.sample_many(rng, 1000)
        assert samples.count("hot") > samples.count("cold")

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            ZipfDistribution([])
        with pytest.raises(ValueError):
            ZipfDistribution(["a"], exponent=-1)

    def test_sample_many_validation(self):
        with pytest.raises(ValueError):
            UniformIntDistribution(0, 1).sample_many(DeterministicRng(1), -1)


class TestHospitalWorkload:
    def test_size_and_schema(self):
        workload = HospitalWorkload.generate(200, seed=1)
        assert workload.size == 200
        assert workload.schema == hospital_schema()
        assert workload.hospitals == (1, 2, 3)

    def test_marginals_are_roughly_right(self):
        workload = HospitalWorkload.generate(3000, seed=2)
        h3 = len(workload.relation.select_equal("hospital", 3)) / workload.size
        fatal = len(workload.relation.select_equal("outcome", FATAL)) / workload.size
        assert 0.44 < h3 < 0.56
        assert 0.05 < fatal < 0.12

    def test_target_patient_is_planted(self):
        workload = HospitalWorkload.generate(100, target_name="John", seed=3)
        assert workload.size == 101
        johns = workload.relation.select_equal("name", "John")
        assert len(johns) == 1
        assert johns.tuples[0].value("hospital") == workload.target_hospital
        assert johns.tuples[0].value("outcome") == workload.target_outcome

    def test_alex_queries_are_the_paper_sequence(self):
        workload = HospitalWorkload.generate(50, seed=4)
        queries = workload.alex_queries()
        assert len(queries) == 4
        assert [q.attribute for q in queries] == ["hospital", "hospital", "hospital", "outcome"]
        assert queries[-1].value == FATAL

    def test_true_fatality_ratio(self):
        workload = HospitalWorkload.generate(500, seed=5)
        for hospital in (1, 2, 3):
            ratio = workload.true_fatality_ratio(hospital)
            assert 0.0 <= ratio <= 1.0
        assert workload.true_fatality_ratio(99) == 0.0

    def test_generation_is_reproducible(self):
        assert (
            HospitalWorkload.generate(80, seed=6).relation
            == HospitalWorkload.generate(80, seed=6).relation
        )

    def test_outcomes_are_binary(self):
        workload = HospitalWorkload.generate(150, seed=7)
        assert workload.relation.distinct_values("outcome") <= {FATAL, HEALTHY}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HospitalWorkload.generate(0)
        with pytest.raises(ValueError):
            HospitalWorkload.generate(10, outcome_rates=(0.1, 0.2, 0.7))


class TestEmployeeWorkload:
    def test_size_and_uniqueness_of_names(self):
        workload = EmployeeWorkload.generate(150, seed=1)
        assert workload.size == 150
        assert len(workload.relation.distinct_values("name")) == 150

    def test_salaries_within_range(self):
        workload = EmployeeWorkload.generate(200, seed=2)
        salaries = [t.value("salary") for t in workload.relation]
        assert min(salaries) >= 1000 and max(salaries) <= 9999

    def test_departments_from_configured_set(self):
        workload = EmployeeWorkload.generate(100, departments=("A", "B"), seed=3)
        assert workload.relation.distinct_values("dept") <= {"A", "B"}

    def test_query_helpers(self):
        workload = EmployeeWorkload.generate(10, seed=4)
        assert workload.department_query().attribute == "dept"
        assert workload.name_query(3).value == "emp3"

    def test_empty_workload(self):
        assert EmployeeWorkload.generate(0, seed=5).size == 0


class TestSyntheticGenerator:
    def test_generates_valid_tuples(self):
        schema = RelationSchema(
            "T", [Attribute.string("label", 6), Attribute.integer("count", 4)]
        )
        generator = SyntheticRelationGenerator(schema)
        relation = generator.generate(50, seed=1)
        assert len(relation) == 50
        for t in relation:
            assert isinstance(t.value("label"), str)
            assert isinstance(t.value("count"), int)

    def test_custom_distribution_is_used(self):
        schema = RelationSchema("T", [Attribute.string("label", 6)])
        generator = SyntheticRelationGenerator(
            schema, {"label": CategoricalDistribution(["x"], [1.0])}
        )
        relation = generator.generate(20, seed=2)
        assert relation.distinct_values("label") == {"x"}

    def test_unknown_attribute_distribution_rejected(self):
        schema = RelationSchema("T", [Attribute.string("label", 6)])
        with pytest.raises(Exception):
            SyntheticRelationGenerator(schema, {"nope": CategoricalDistribution(["x"], [1.0])})

    def test_invalid_size(self):
        schema = RelationSchema("T", [Attribute.string("label", 6)])
        with pytest.raises(ValueError):
            SyntheticRelationGenerator(schema).generate(-1)
