"""Experiments E7-E9: false positives, throughput, storage.

* **E7** -- false-positive rate of the SWP searchable scheme as a function of
  the check length ``m`` (predicted ``2^{-8m}`` vs observed), and the cost of
  the client-side filter that removes them.
* **E8** -- end-to-end throughput of every scheme (encrypt, query-encrypt,
  server evaluation, decrypt+filter) as the relation grows.
* **E9** -- ciphertext expansion: stored bytes per scheme relative to the
  plaintext serialization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.reporting import ExperimentTable
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.relational.encoding import TupleCodec
from repro.schemes.registry import available_schemes, create as create_scheme
from repro.searchable.swp import SwpScheme
from repro.searchable.words import Word
from repro.workloads import EmployeeWorkload


def _scheme_instances(schema, seed: int = 0):
    """One instance of every registered scheme over ``schema`` (deterministic keys)."""
    rng = DeterministicRng(seed)
    key = SecretKey.generate(rng=rng)
    return [
        create_scheme(name, schema, key, rng=rng) for name in available_schemes()
    ]


# --------------------------------------------------------------------------- #
# E7: false positives of the searchable scheme
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class FalsePositiveRow:
    """One row of E7."""

    check_length_bytes: int
    predicted_rate: float
    observed_rate: float
    words_tested: int
    false_positives: int


@dataclass(frozen=True)
class FalsePositiveExperiment:
    """E7 result."""

    rows: tuple[FalsePositiveRow, ...]

    def to_table(self) -> ExperimentTable:
        """Render the E7 table."""
        table = ExperimentTable(
            "E7: SWP false-positive rate vs check length m",
            ["m (bytes)", "predicted 2^-8m", "observed", "words tested", "false positives"],
        )
        for row in self.rows:
            table.add_row(
                row.check_length_bytes,
                row.predicted_rate,
                row.observed_rate,
                row.words_tested,
                row.false_positives,
            )
        return table


def run_e7_false_positives(
    check_lengths: Sequence[int] = (1, 2, 3),
    words_per_setting: int = 20000,
    word_length: int = 12,
    seed: int = 7,
) -> FalsePositiveExperiment:
    """E7: measure how often a trapdoor matches a word it should not."""
    rows = []
    for check_length in check_lengths:
        scheme = SwpScheme(
            SecretKey.generate(rng=DeterministicRng(seed)).material,
            word_length=word_length,
            check_length=check_length,
            rng=DeterministicRng(seed + check_length),
        )
        needle = Word(b"needle".ljust(word_length, b"_"))
        token = scheme.trapdoor(needle)
        false_positives = 0
        # Batch unrelated words into documents to amortize the per-document nonce.
        batch = 50
        for start in range(0, words_per_setting, batch):
            words = [
                Word(f"w{start + i}".encode().ljust(word_length, b"_"))
                for i in range(min(batch, words_per_setting - start))
            ]
            document = scheme.encrypt_document(words)
            false_positives += len(scheme.search(document, token).positions)
        rows.append(
            FalsePositiveRow(
                check_length_bytes=check_length,
                predicted_rate=2.0 ** (-8 * check_length),
                observed_rate=false_positives / words_per_setting,
                words_tested=words_per_setting,
                false_positives=false_positives,
            )
        )
    return FalsePositiveExperiment(tuple(rows))


# --------------------------------------------------------------------------- #
# E8: throughput
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class ThroughputRow:
    """One row of E8 (times in milliseconds)."""

    scheme: str
    relation_size: int
    encrypt_ms: float
    query_encrypt_ms: float
    server_eval_ms: float
    decrypt_filter_ms: float
    result_size: int
    false_positives: int


@dataclass(frozen=True)
class ThroughputExperiment:
    """E8 result."""

    rows: tuple[ThroughputRow, ...]

    def to_table(self) -> ExperimentTable:
        """Render the E8 table."""
        table = ExperimentTable(
            "E8: end-to-end cost of an outsourced exact select",
            ["scheme", "n", "encrypt ms", "Eq ms", "server ms", "decrypt+filter ms", "hits", "fps"],
        )
        for row in self.rows:
            table.add_row(
                row.scheme,
                row.relation_size,
                row.encrypt_ms,
                row.query_encrypt_ms,
                row.server_eval_ms,
                row.decrypt_filter_ms,
                row.result_size,
                row.false_positives,
            )
        return table


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def run_e8_throughput(
    sizes: Sequence[int] = (100, 1000, 5000),
    seed: int = 8,
) -> ThroughputExperiment:
    """E8: time every phase of an outsourced query for every scheme."""
    rows = []
    for size in sizes:
        workload = EmployeeWorkload.generate(size, seed=seed)
        query = workload.department_query()
        for scheme in _scheme_instances(workload.schema, seed=seed):
            start = time.perf_counter()
            encrypted = scheme.encrypt_relation(workload.relation)
            encrypt_ms = _ms(start)

            start = time.perf_counter()
            encrypted_query = scheme.encrypt_query(query)
            query_ms = _ms(start)

            evaluator = scheme.server_evaluator()
            start = time.perf_counter()
            evaluation = evaluator.evaluate(encrypted_query, encrypted)
            server_ms = _ms(start)

            start = time.perf_counter()
            report = scheme.decrypt_result(evaluation, query)
            decrypt_ms = _ms(start)

            rows.append(
                ThroughputRow(
                    scheme=scheme.name,
                    relation_size=size,
                    encrypt_ms=encrypt_ms,
                    query_encrypt_ms=query_ms,
                    server_eval_ms=server_ms,
                    decrypt_filter_ms=decrypt_ms,
                    result_size=report.kept,
                    false_positives=report.false_positives,
                )
            )
    return ThroughputExperiment(tuple(rows))


# --------------------------------------------------------------------------- #
# E9: storage overhead
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class StorageRow:
    """One row of E9."""

    scheme: str
    relation_size: int
    plaintext_bytes: int
    ciphertext_bytes: int
    expansion: float


@dataclass(frozen=True)
class StorageExperiment:
    """E9 result."""

    rows: tuple[StorageRow, ...]

    def to_table(self) -> ExperimentTable:
        """Render the E9 table."""
        table = ExperimentTable(
            "E9: ciphertext expansion",
            ["scheme", "n", "plaintext bytes", "ciphertext bytes", "expansion"],
        )
        for row in self.rows:
            table.add_row(
                row.scheme, row.relation_size, row.plaintext_bytes, row.ciphertext_bytes, row.expansion
            )
        return table


def run_e9_storage_overhead(
    sizes: Sequence[int] = (1000,),
    seed: int = 9,
) -> StorageExperiment:
    """E9: stored bytes per scheme relative to the plaintext serialization."""
    rows = []
    for size in sizes:
        workload = EmployeeWorkload.generate(size, seed=seed)
        codec = TupleCodec(workload.schema)
        plaintext_bytes = sum(len(codec.encode(t)) for t in workload.relation)
        for scheme in _scheme_instances(workload.schema, seed=seed):
            encrypted = scheme.encrypt_relation(workload.relation)
            ciphertext_bytes = encrypted.size_in_bytes()
            rows.append(
                StorageRow(
                    scheme=scheme.name,
                    relation_size=size,
                    plaintext_bytes=plaintext_bytes,
                    ciphertext_bytes=ciphertext_bytes,
                    expansion=ciphertext_bytes / max(1, plaintext_bytes),
                )
            )
    return StorageExperiment(tuple(rows))

