"""Relations with multiset semantics.

The paper encrypts whole relations tuple-by-tuple; a :class:`Relation` is the
plaintext object being outsourced.  Equality between relations is *multiset*
equality (order-insensitive, multiplicity-sensitive), which is the right
notion both for SQL bag semantics and for stating the homomorphism property.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Mapping

from repro.relational.errors import SchemaError
from repro.relational.schema import RelationSchema
from repro.relational.tuples import RelationTuple


class Relation:
    """A named multiset of tuples over a fixed schema."""

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[RelationTuple | Mapping[str, object]] = (),
    ) -> None:
        self._schema = schema
        self._tuples: list[RelationTuple] = []
        for item in tuples:
            self.add(item)

    @classmethod
    def _of_checked(cls, schema: RelationSchema, rows: Iterable[RelationTuple]) -> "Relation":
        """A relation of ``rows`` known to be tuples of ``schema``, unchecked;
        it copies them into a list of its own."""
        relation = cls.__new__(cls)
        relation._schema = schema
        relation._tuples = list(rows)
        return relation

    @property
    def schema(self) -> RelationSchema:
        """The relation's schema."""
        return self._schema

    @property
    def tuples(self) -> tuple[RelationTuple, ...]:
        """The tuples in insertion order."""
        return tuple(self._tuples)

    def add(self, item: RelationTuple | Mapping[str, object]) -> RelationTuple:
        """Insert a tuple (given directly or as a plain mapping) and return it."""
        if isinstance(item, RelationTuple):
            if item.schema is not self._schema and item.schema != self._schema:
                raise SchemaError(
                    f"tuple schema {item.schema.name!r} does not match relation "
                    f"schema {self._schema.name!r}"
                )
            relation_tuple = item
        else:
            relation_tuple = RelationTuple(self._schema, item)
        self._tuples.append(relation_tuple)
        return relation_tuple

    def extend(self, items: Iterable[RelationTuple | Mapping[str, object]]) -> None:
        """Insert several tuples."""
        for item in items:
            self.add(item)

    def select_equal(self, attribute_name: str, value) -> "Relation":
        """Return the sub-relation with ``attribute_name == value`` (exact select)."""
        self._schema.attribute(attribute_name)  # raises on unknown attribute
        matching = [t for t in self._tuples if t.value(attribute_name) == value]
        return Relation(self._schema, matching)

    def project(self, attribute_names: list[str]) -> list[tuple]:
        """Return the projection of every tuple onto the named attributes."""
        for name in attribute_names:
            self._schema.attribute(name)
        return [t.project(attribute_names) for t in self._tuples]

    def distinct_values(self, attribute_name: str) -> set:
        """Return the set of distinct values of one attribute."""
        self._schema.attribute(attribute_name)
        return {t.value(attribute_name) for t in self._tuples}

    def as_multiset(self) -> Counter:
        """Return the tuples as a :class:`collections.Counter` (multiset view)."""
        return Counter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[RelationTuple]:
        return iter(self._tuples)

    def __contains__(self, item: RelationTuple) -> bool:
        return item in self._tuples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self.as_multiset() == other.as_multiset()

    def __hash__(self) -> int:  # relations are mutable containers
        raise TypeError("Relation objects are not hashable")

    def __repr__(self) -> str:
        return f"Relation({self._schema.name}, {len(self._tuples)} tuples)"

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Iterable[tuple]
    ) -> "Relation":
        """Build a relation from positional rows following the schema order."""
        return cls(schema, (RelationTuple.from_values(schema, row) for row in rows))
