"""Synthetic workload generators driving the experiments.

* :mod:`repro.workloads.distributions` -- categorical / uniform / Zipf
  samplers over a shared :class:`~repro.crypto.rng.RandomSource`.
* :mod:`repro.workloads.hospital` -- the paper's hospital statistics database
  (Section 2): three hospitals with patient flows 0.2 / 0.3 / 0.5 and fatal
  vs. healthy outcomes 0.08 / 0.92.
* :mod:`repro.workloads.employees` -- an employee relation in the spirit of
  the paper's ``Emp(name, dept, salary)`` example, used by the throughput and
  storage experiments.
* :mod:`repro.workloads.generator` -- a generic schema-driven synthetic
  relation generator.
"""

from repro.workloads.distributions import (
    CategoricalDistribution,
    UniformIntDistribution,
    ZipfDistribution,
)
from repro.workloads.employees import EmployeeWorkload, employee_schema
from repro.workloads.generator import SyntheticRelationGenerator
from repro.workloads.hospital import HospitalWorkload, hospital_schema

__all__ = [
    "CategoricalDistribution",
    "UniformIntDistribution",
    "ZipfDistribution",
    "EmployeeWorkload",
    "employee_schema",
    "SyntheticRelationGenerator",
    "HospitalWorkload",
    "hospital_schema",
]
