"""Integration tests: the full paper narrative, end to end.

These tests tie all subsystems together in the order the paper presents them:
outsource an employee database with the Section-3 construction, run SQL exact
selects through the untrusted server, confirm Definition 1.1's homomorphism
property, and confirm the security landscape (secure at q = 0, broken at
q > 0, baselines broken even at q = 0).
"""

from __future__ import annotations

import pytest

from repro import EncryptedDatabase, SearchableSelectDph, SecretKey
from repro.core import check_homomorphism
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer
from repro.relational import Relation, RelationSchema, Selection, parse_sql
from repro.schemes import BucketizationConfig, HacigumusDph
from repro.security import (
    AdversaryModel,
    DphIndistinguishabilityGame,
    GenericActiveAdversary,
    IndistinguishabilityGame,
)
from repro.security.attacks import (
    SalaryPairAdversary,
    run_active_query_attack,
    run_hospital_inference,
)
from repro.workloads import EmployeeWorkload, HospitalWorkload


class TestPaperSection3Example:
    """The worked example of Section 3: Emp(name, dept, salary)."""

    def test_montgomery_example_end_to_end(self):
        rows = [("Montgomery", "HR", 7500), ("Smith", "IT", 5200), ("Weaver", "HR", 6800)]
        server = OutsourcedDatabaseServer()
        db = EncryptedDatabase.open(
            SecretKey.generate(rng=DeterministicRng(1)),
            server=server,
            scheme="swp",
            rng=DeterministicRng(2),
        )
        table = db.create_table(
            "Emp(name:string[10], dept:string[5], salary:int[6])", rows=rows
        )
        assert isinstance(table.scheme, SearchableSelectDph)

        # sigma_{name:"Montgomery"}  |->  phi_{"MontgomeryN"}
        outcome = db.select("SELECT * FROM Emp WHERE name = 'Montgomery'")
        assert len(outcome.relation) == 1
        assert outcome.relation.tuples[0].value("salary") == 7500
        assert db.retrieve_all("Emp") == Relation.from_rows(table.schema, rows)

        # The provider never sees plaintext.
        stored = server.stored_relation("Emp")
        leaked = b"".join(
            t.tuple_id + t.payload + b"".join(t.search_fields) + t.metadata
            for t in stored
        )
        assert b"Montgomery" not in leaked and b"HR" not in leaked
        assert b"7500" not in leaked

    def test_word_length_matches_paper_rule(self):
        """Word length = longest attribute value + attribute identifier length."""
        schema = RelationSchema.parse("Emp(name:string[9], dept:string[5], salary:int[6])")
        dph = SearchableSelectDph(schema, SecretKey.generate())
        assert dph.word_length == 9 + 1


class TestDefinitionOneHomomorphism:
    """Definition 1.1's property over a realistic workload, for every scheme."""

    def test_all_schemes_satisfy_the_property(self, all_schemes):
        workload = EmployeeWorkload.generate(60, seed=9)
        queries = [Selection.equals("dept", d) for d in workload.departments[:4]]
        queries += [workload.name_query(i) for i in (0, 17, 59)]
        for scheme in all_schemes:
            report = check_homomorphism(scheme, workload.relation, queries)
            assert report.holds, f"homomorphism failed for {scheme.name}"


class TestSecurityLandscape:
    """The paper's overall message, reproduced as one test per claim."""

    @staticmethod
    def _swp_factory(schema, rng):
        return SearchableSelectDph(schema, SecretKey.generate(rng=rng), rng=rng)

    @staticmethod
    def _bucket_factory(schema, rng):
        config = BucketizationConfig.uniform(schema, num_buckets=16, minimum=0, maximum=10000)
        return HacigumusDph(schema, SecretKey.generate(rng=rng), config=config, rng=rng)

    def test_baselines_lose_even_at_q_zero(self):
        result = IndistinguishabilityGame(self._bucket_factory).run(
            SalaryPairAdversary(), trials=50, seed=31
        )
        assert result.success_rate >= 0.95

    def test_construction_wins_at_q_zero(self):
        result = IndistinguishabilityGame(self._swp_factory).run(
            SalaryPairAdversary(), trials=60, seed=32
        )
        assert result.secure_against(threshold=0.35)

    def test_everything_loses_at_q_positive(self):
        game = DphIndistinguishabilityGame(
            self._swp_factory, query_budget=1, adversary_model=AdversaryModel.ACTIVE
        )
        result = game.run(GenericActiveAdversary(table_size=8), trials=30, seed=33)
        assert result.success_rate >= 0.95

    def test_inference_attacks_extract_sensitive_facts(self):
        workload = HospitalWorkload.generate(500, target_name="John", seed=34)
        dph = SearchableSelectDph(workload.schema, SecretKey.generate(), backend="index")
        inference = run_hospital_inference(dph, workload)
        assert inference.identification_correct
        assert inference.max_absolute_error < 0.02
        john = run_active_query_attack(dph, workload)
        assert john.fully_successful


class TestSqlFrontendIntegration:
    def test_sql_and_ast_paths_agree(self, secret_key, employee_schema, employee_relation):
        db = EncryptedDatabase.open(secret_key, scheme="swp")
        db.create_table(
            employee_schema, rows=[tuple(row.values()) for row in employee_relation]
        )
        via_sql = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        via_ast = db.select(Selection.equals("dept", "HR"))
        assert via_sql.relation == via_ast.relation == employee_relation.select_equal(
            "dept", "HR"
        )

    def test_parse_sql_result_round_trips_through_scheme(self, swp_dph):
        parsed = parse_sql("SELECT * FROM Emp WHERE salary = 7500", swp_dph.schema)
        encrypted = swp_dph.encrypt_query(parsed.query)
        assert len(encrypted.tokens) == 1
