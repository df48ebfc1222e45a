"""Ablation A1: variable-length attribute words vs the poster's fixed global width.

The word layout is the one ablation beside the paper experiments of
:mod:`repro.experiments.registry` (the claim -> experiment map).  The
full-version optimization gives every attribute its own word width; on a
schema with one wide attribute and several narrow ones it should cut ciphertext
size substantially while leaving correctness and q = 0 security untouched.
"""

from __future__ import annotations

import time

from conftest import run_once

from repro.analysis.reporting import ExperimentTable
from repro.core import SearchableSelectDph, VariableWidthSelectDph, check_homomorphism
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational import Relation, RelationSchema, Selection
from repro.workloads.distributions import CategoricalDistribution, UniformIntDistribution
from repro.workloads.generator import SyntheticRelationGenerator

SIZES = (500, 2000)


def _document_schema() -> RelationSchema:
    return RelationSchema.parse("Doc(title:string[40], category:string[6], year:int[4])")


def _document_relation(size: int, seed: int) -> Relation:
    schema = _document_schema()
    generator = SyntheticRelationGenerator(
        schema,
        {
            "category": CategoricalDistribution(
                ["DB", "CRYPTO", "OS", "NET"], [0.4, 0.3, 0.2, 0.1]
            ),
            "year": UniformIntDistribution(1995, 2006),
        },
    )
    return generator.generate(size, seed=seed)


def run_ablation(sizes=SIZES, seed: int = 11):
    """Compare storage and end-to-end cost of the two word layouts."""
    rows = []
    for size in sizes:
        relation = _document_relation(size, seed)
        schema = relation.schema
        query = Selection.equals("category", "DB")
        for label, dph in (
            ("fixed-width", SearchableSelectDph(
                schema, SecretKey.generate(rng=DeterministicRng(seed)), backend="swp",
                rng=DeterministicRng(seed + 1))),
            ("variable-width", VariableWidthSelectDph(
                schema, SecretKey.generate(rng=DeterministicRng(seed)),
                rng=DeterministicRng(seed + 2))),
        ):
            start = time.perf_counter()
            encrypted = dph.encrypt_relation(relation)
            encrypt_ms = (time.perf_counter() - start) * 1000

            evaluator = dph.server_evaluator()
            encrypted_query = dph.encrypt_query(query)
            start = time.perf_counter()
            evaluation = evaluator.evaluate(encrypted_query, encrypted)
            server_ms = (time.perf_counter() - start) * 1000

            report = check_homomorphism(dph, relation, [query])
            rows.append(
                {
                    "layout": label,
                    "n": size,
                    "bytes": encrypted.size_in_bytes(),
                    "encrypt_ms": encrypt_ms,
                    "server_ms": server_ms,
                    "holds": report.holds,
                }
            )
    return rows


def _to_table(rows) -> ExperimentTable:
    table = ExperimentTable(
        "A1: fixed vs variable word layout",
        ["layout", "n", "ciphertext bytes", "encrypt ms", "server ms", "homomorphism"],
    )
    for row in rows:
        table.add_row(
            row["layout"], row["n"], row["bytes"], row["encrypt_ms"], row["server_ms"], row["holds"]
        )
    return table


def test_a1_variable_length(benchmark, record_table):
    rows = run_once(benchmark, run_ablation, sizes=SIZES)
    record_table("a1_variable_length", _to_table(rows))

    by_key = {(r["layout"], r["n"]): r for r in rows}
    for size in SIZES:
        fixed = by_key[("fixed-width", size)]
        variable = by_key[("variable-width", size)]
        # Both layouts preserve the homomorphism property ...
        assert fixed["holds"] and variable["holds"]
        # ... and the variable layout stores meaningfully fewer bytes (>= 20% saving
        # on this schema, where two of three attributes are much narrower than the widest).
        assert variable["bytes"] <= fixed["bytes"] * 0.8
