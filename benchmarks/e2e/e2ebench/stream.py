"""Seeded inputs: the table, the operation stream, and the plaintext oracle.

Everything here is a function of the seed alone.  The stream keeps the
oracle -- a plaintext dict of the rows that are live after the operations
generated so far -- and stamps each operation with the answer the product
must give, so a closed-loop driver that executes operations in generation
order can check every reply.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from repro.workloads.employees import (
    DEFAULT_DEPARTMENTS,
    DEFAULT_SALARY_RANGE,
    employee_schema,
)

SCHEMA = employee_schema()
TABLE = SCHEMA.name
ATTRIBUTES = list(SCHEMA.attribute_names)
#: Skew of the hot-key selects.  With an insert (which empties the cache)
#: every 100th operation it gives a hit ratio of 0.65: the median select is
#: a hit and the 95th percentile a miss.  At a ratio near one half the median
#: would flip between the two with the seed.
ZIPF_KEY_EXPONENT = 1.4


def make_rows(seed: int, count: int) -> list[tuple]:
    """``count`` employee rows with distinct names and Zipf-skewed departments.

    Department sizes are exact Zipf(1) quotas (only *which* rows land in a
    department depends on the seed), so the rows a department select returns
    -- and with them the cost of the large-result workload -- do not move
    from seed to seed.
    """
    rng = random.Random(f"rows/{seed}")
    weights = [1.0 / (rank + 1) for rank in range(len(DEFAULT_DEPARTMENTS))]
    quotas = [int(count * weight / sum(weights)) for weight in weights]
    quotas[0] += count - sum(quotas)
    departments = [
        dept for dept, quota in zip(DEFAULT_DEPARTMENTS, quotas) for _ in range(quota)
    ]
    rng.shuffle(departments)
    return [
        (f"emp{number:08d}", dept, rng.randint(*DEFAULT_SALARY_RANGE))
        for number, dept in zip(rng.sample(range(10**8), count), departments)
    ]


def plaintext_bytes(rows: list[tuple]) -> int:
    """UTF-8 size of the rows' values, the base of the expansion ratio."""
    return sum(len(str(value).encode("utf-8")) for row in rows for value in row)


@dataclass(frozen=True)
class Op:
    """One session operation and the reply the oracle expects."""

    kind: str
    sql: str | None = None
    row: tuple | None = None
    changes: dict | None = None
    #: select: the frozenset of rows; update/delete: the count; insert: None.
    expected: object = None

    def to_json(self) -> str:
        expected = self.expected
        if isinstance(expected, frozenset):
            expected = sorted(expected)
        return json.dumps(
            [self.kind, self.sql, self.row, self.changes, expected], sort_keys=True
        )


def select_sql(attribute: str, value: str) -> str:
    return f"SELECT * FROM {TABLE} WHERE {attribute} = '{value}'"


class OpStream:
    """The deterministic operation stream of one workload over one table.

    Which *kind* of operation comes when is a fixed, evenly spaced pattern
    (an insert every fourth operation, say), the same for every seed, so
    that every segment of a run and every run has the same mix and only the
    keys and values are drawn from the seed.
    """

    def __init__(self, spec, rows: list[tuple], seed: int):
        self._rng = random.Random(f"ops/{spec.name}/{seed}")
        self._keys = keys = spec.keys
        self._shares = {kind: Fraction(str(share)) for kind, share in spec.mix.items()}
        self._credit = dict.fromkeys(self._shares, Fraction(0))
        # The oracle: live rows by name, names in a list for O(1) uniform draws.
        self._by_name = {row[0]: row for row in rows}
        self._live = list(self._by_name)
        self._position = {name_: i for i, name_ in enumerate(self._live)}
        self._by_dept: dict[str, set] = {dept: set() for dept in DEFAULT_DEPARTMENTS}
        for row in rows:
            self._by_dept[row[1]].add(row)
        self._cycle = 0
        if keys == "zipf":
            ranked = list(self._live)
            self._rng.shuffle(ranked)
            self._zipf_names = ranked
            self._zipf_cumulative = []
            running = 0.0
            for rank in range(len(ranked)):
                running += 1.0 / (rank + 1) ** ZIPF_KEY_EXPONENT
                self._zipf_cumulative.append(running)

    @property
    def live_count(self) -> int:
        """Rows the table holds after every operation generated so far."""
        return len(self._by_name)

    def take(self, count: int) -> list[Op]:
        """The next ``count`` operations (and the oracle's state moves on)."""
        return [self._next() for _ in range(count)]

    def _next(self) -> Op:
        # Each kind earns its share per operation and is due at a whole one.
        credit = self._credit
        for kind, share in self._shares.items():
            credit[kind] += share
        due = max(credit, key=credit.get, default=None)
        if due is None or credit[due] < 1:
            return self._select()
        credit[due] -= 1
        return getattr(self, f"_{due}")()

    def _select(self) -> Op:
        if self._keys == "dept_cycle":
            dept = DEFAULT_DEPARTMENTS[self._cycle % len(DEFAULT_DEPARTMENTS)]
            self._cycle += 1
            return Op("select", select_sql("dept", dept),
                      expected=frozenset(self._by_dept[dept]))
        name = self._pick_name()
        return Op("select", select_sql("name", name),
                  expected=frozenset([self._by_name[name]]))

    def _pick_name(self) -> str:
        if self._keys == "zipf":
            point = self._rng.random() * self._zipf_cumulative[-1]
            return self._zipf_names[bisect.bisect_left(self._zipf_cumulative, point)]
        return self._live[self._rng.randrange(len(self._live))]

    def _insert(self) -> Op:
        while True:
            name = f"new{self._rng.randrange(10**8):08d}"
            if name not in self._by_name:
                break
        row = (
            name,
            self._rng.choice(DEFAULT_DEPARTMENTS),
            self._rng.randint(*DEFAULT_SALARY_RANGE),
        )
        self._add(row)
        return Op("insert", row=row)

    def _update(self) -> Op:
        name = self._pick_name()
        old = self._by_name[name]
        new = (name, old[1], self._rng.randint(*DEFAULT_SALARY_RANGE))
        self._by_dept[old[1]].discard(old)
        self._by_dept[new[1]].add(new)
        self._by_name[name] = new
        return Op("update", select_sql("name", name),
                  changes={"salary": new[2]}, expected=1)

    def _delete(self) -> Op:
        name = self._pick_name()
        row = self._by_name.pop(name)
        self._by_dept[row[1]].discard(row)
        # Swap-remove keeps uniform draws over live names O(1).
        index = self._position.pop(name)
        last = self._live.pop()
        if last != name:
            self._live[index] = last
            self._position[last] = index
        return Op("delete", select_sql("name", name), expected=1)

    def _add(self, row: tuple) -> None:
        self._by_name[row[0]] = row
        self._by_dept[row[1]].add(row)
        self._position[row[0]] = len(self._live)
        self._live.append(row[0])


def check(op: Op, reply) -> bool:
    """Does the product's reply to ``op`` equal the oracle's answer?"""
    if op.kind == "insert":
        return reply is None
    if op.kind == "select":
        relation = reply.relation
        return len(relation) == len(op.expected) and op.expected == {
            row.project(ATTRIBUTES) for row in relation
        }
    return reply == op.expected
