"""Experiment registry: the index mapping experiment ids to runners.

``EXPERIMENTS`` is the claim -> experiment map: every entry names the paper
claim being checked, the benchmark module that regenerates it and the callable
that produces the table.  The ``examples/reproduce_paper.py`` script iterates
over it to print every table in one run (with reduced parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.attacks import (
    run_e1_bucketization_attack,
    run_e2_damiani_attack,
    run_e3_dph_indistinguishability,
    run_e4_theorem21,
)
from repro.experiments.inference import (
    run_e5_hospital_inference,
    run_e6_active_adversary,
)
from repro.experiments.performance import (
    run_e7_false_positives,
    run_e8_throughput,
    run_e9_storage_overhead,
)


@dataclass(frozen=True)
class ExperimentSpec:
    """One entry of the experiment index."""

    identifier: str
    claim: str
    benchmark: str
    runner: Callable
    quick_parameters: dict

    def run_quick(self):
        """Run the experiment with reduced parameters (seconds, not minutes)."""
        return self.runner(**self.quick_parameters)


EXPERIMENTS: tuple[ExperimentSpec, ...] = (
    ExperimentSpec(
        "E1",
        "The salary-pair adversary breaks bucketization with probability ~1 (Sec. 1)",
        "benchmarks/bench_e1_bucketization_attack.py",
        run_e1_bucketization_attack,
        {"trials": 60, "bucket_counts": (4, 16, 64)},
    ),
    ExperimentSpec(
        "E2",
        "The same attack breaks the Damiani hashed-index scheme (Sec. 1)",
        "benchmarks/bench_e2_damiani_attack.py",
        run_e2_damiani_attack,
        {"trials": 60, "hash_value_counts": (16, 256)},
    ),
    ExperimentSpec(
        "E3",
        "The construction is indistinguishable at q = 0: advantage ~0 (Sec. 3)",
        "benchmarks/bench_e3_dph_indistinguishability.py",
        run_e3_dph_indistinguishability,
        {"trials": 60},
    ),
    ExperimentSpec(
        "E4",
        "Theorem 2.1: every database PH loses the game once q > 0",
        "benchmarks/bench_e4_theorem21.py",
        run_e4_theorem21,
        {"trials": 30},
    ),
    ExperimentSpec(
        "E5",
        "Result sizes + intersections reveal per-hospital fatality ratios (Sec. 2)",
        "benchmarks/bench_e5_hospital_inference.py",
        run_e5_hospital_inference,
        {"sizes": (500, 2000), "trials": 3},
    ),
    ExperimentSpec(
        "E6",
        "An active adversary locates a known patient with ~4-6 oracle queries (Sec. 2)",
        "benchmarks/bench_e6_active_adversary.py",
        run_e6_active_adversary,
        {"sizes": (500, 2000), "trials": 3},
    ),
    ExperimentSpec(
        "E7",
        "False positives are rare (~2^-8m) and filtered client-side (Sec. 3)",
        "benchmarks/bench_e7_false_positives.py",
        run_e7_false_positives,
        {"check_lengths": (1, 2), "words_per_setting": 5000},
    ),
    ExperimentSpec(
        "E8",
        "Encryption, query encryption, search and decryption scale linearly",
        "benchmarks/bench_e8_throughput.py",
        run_e8_throughput,
        {"sizes": (100, 1000)},
    ),
    ExperimentSpec(
        "E9",
        "Storage expansion of every scheme relative to plaintext",
        "benchmarks/bench_e9_storage_overhead.py",
        run_e9_storage_overhead,
        {"sizes": (500,)},
    ),
)
