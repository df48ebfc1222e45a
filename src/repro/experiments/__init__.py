"""Experiment harness: one entry point per experiment (E1-E9).

The ICDE 2006 poster has no numbered tables or figures; the experiments here
quantify each of its claims (see :mod:`repro.experiments.registry` for the
claim -> experiment mapping).
Every ``run_*`` function returns a result object whose ``to_table()`` method
renders the rows recorded in ``EXPERIMENTS.md``; the modules under
``benchmarks/`` call the same functions so the published numbers can be
regenerated with ``pytest benchmarks/ --benchmark-only``.

* :mod:`repro.experiments.attacks` -- E1-E4: distinguishing attacks and the
  Theorem 2.1 adversaries.
* :mod:`repro.experiments.inference` -- E5-E6: the hospital inference and
  active "John" attacks.
* :mod:`repro.experiments.performance` -- E7-E9: false positives, throughput
  and storage overhead.
* :mod:`repro.experiments.registry` -- the experiment index used by the
  documentation generator and the quickcheck example.
"""

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
from repro.experiments.registry import EXPERIMENTS, ExperimentSpec

__all__ = [
    "run_e1_bucketization_attack",
    "run_e2_damiani_attack",
    "run_e3_dph_indistinguishability",
    "run_e4_theorem21",
    "run_e5_hospital_inference",
    "run_e6_active_adversary",
    "run_e7_false_positives",
    "run_e8_throughput",
    "run_e9_storage_overhead",
    "EXPERIMENTS",
    "ExperimentSpec",
]
