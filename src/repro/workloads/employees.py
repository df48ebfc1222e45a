"""Employee relation workload.

The paper's running construction example uses ``Emp(name:string[9],
dept:string[5], salary:int)``; this module generates arbitrarily large
relations over a compatible (slightly widened) schema for the throughput and
storage-overhead experiments (E8, E9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.rng import DeterministicRng, RandomSource
from repro.relational.query import Query, Selection
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.workloads.distributions import UniformIntDistribution, ZipfDistribution

#: Department names used by the generator (Zipf-skewed popularity).
DEFAULT_DEPARTMENTS = ("HR", "IT", "SALES", "LEGAL", "R&D", "OPS", "PR", "FIN")

#: Salary range used by the generator.
DEFAULT_SALARY_RANGE = (1000, 9999)


def employee_schema() -> RelationSchema:
    """``Emp(name:string[14], dept:string[5], salary:int[6])``."""
    return RelationSchema(
        "Emp",
        [
            Attribute.string("name", 14),
            Attribute.string("dept", 5),
            Attribute.integer("salary", 6),
        ],
    )


@dataclass
class EmployeeWorkload:
    """A generated employee relation plus its generation parameters."""

    relation: Relation
    departments: tuple[str, ...] = DEFAULT_DEPARTMENTS
    salary_range: tuple[int, int] = DEFAULT_SALARY_RANGE

    @property
    def schema(self) -> RelationSchema:
        """The employee schema."""
        return self.relation.schema

    @property
    def size(self) -> int:
        """Number of employees."""
        return len(self.relation)

    def department_query(self, department: str | None = None) -> Query:
        """An exact select on a department (the most popular one by default)."""
        return Selection.equals("dept", department or self.departments[0])

    def name_query(self, index: int = 0) -> Query:
        """An exact select on one specific employee name (selectivity ~1 tuple)."""
        return Selection.equals("name", f"emp{index}")

    @classmethod
    def generate(
        cls,
        size: int,
        rng: RandomSource | None = None,
        departments: tuple[str, ...] = DEFAULT_DEPARTMENTS,
        salary_range: tuple[int, int] = DEFAULT_SALARY_RANGE,
        department_skew: float = 1.0,
        seed: int = 0,
    ) -> "EmployeeWorkload":
        """Generate ``size`` employees with Zipf-skewed departments."""
        if size < 0:
            raise ValueError("size must be non-negative")
        rng = rng if rng is not None else DeterministicRng(seed)
        dept_dist = ZipfDistribution(list(departments), exponent=department_skew)
        salary_dist = UniformIntDistribution(*salary_range)
        relation = Relation(employee_schema())
        for index in range(size):
            relation.add(
                {
                    "name": f"emp{index}",
                    "dept": dept_dist.sample(rng),
                    "salary": salary_dist.sample(rng),
                }
            )
        return cls(
            relation=relation,
            departments=tuple(departments),
            salary_range=tuple(salary_range),
        )
