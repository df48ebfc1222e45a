"""Relation tuples.

A :class:`RelationTuple` is an immutable mapping from attribute names to typed
values, validated against a :class:`~repro.relational.schema.RelationSchema`.
Tuples are hashable so relations can compare themselves with multiset
semantics, which is what the homomorphism property of Definition 1.1 is stated
over (``E_k(sigma_i(R)) = psi_i(E_k(R))`` as sets of tuple ciphertexts).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.relational.errors import SchemaError
from repro.relational.schema import RelationSchema


class RelationTuple(Mapping):
    """An immutable tuple of a relation, keyed by attribute name."""

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: RelationSchema, values: Mapping[str, object]) -> None:
        names = schema.attribute_names
        missing = set(names) - set(values)
        if missing:
            raise SchemaError(f"missing values for attributes: {sorted(missing)}")
        extra = set(values) - set(names)
        if extra:
            raise SchemaError(f"values for unknown attributes: {sorted(extra)}")
        self._bind(schema, tuple(values[name] for name in names))

    @classmethod
    def from_values(cls, schema: RelationSchema, values: Sequence[object]) -> "RelationTuple":
        """Build a tuple from values in declaration order (validated like ``__init__``)."""
        if len(values) != len(schema):
            raise SchemaError(
                f"row of width {len(values)} does not match schema of width {len(schema)}"
            )
        relation_tuple = cls.__new__(cls)
        relation_tuple._bind(schema, tuple(values))
        return relation_tuple

    @classmethod
    def from_checked_values(cls, schema: RelationSchema, values: tuple) -> "RelationTuple":
        """Build a tuple from declaration-order values the caller has already
        validated against ``schema`` (a decoder that checks each value as it
        parses it: :meth:`repro.relational.encoding.TupleCodec.decode`)."""
        relation_tuple = cls.__new__(cls)
        relation_tuple._schema = schema
        relation_tuple._values = values
        return relation_tuple

    def _bind(self, schema: RelationSchema, values: tuple) -> None:
        for attribute, value in zip(schema.attributes, values):
            attribute.validate_value(value)
        self._schema = schema
        self._values = values

    @property
    def schema(self) -> RelationSchema:
        """The schema this tuple conforms to."""
        return self._schema

    def value(self, attribute_name: str) -> object:
        """Return the value of one attribute."""
        return self._values[self._schema.position(attribute_name)]

    def as_dict(self) -> dict[str, object]:
        """Return a plain ``{attribute: value}`` dictionary."""
        return dict(zip(self._schema.attribute_names, self._values))

    def project(self, attribute_names: list[str]) -> tuple:
        """Return the values of the named attributes, in the requested order."""
        return tuple(self.value(name) for name in attribute_names)

    # Mapping interface -------------------------------------------------- #

    def __getitem__(self, key: str) -> object:
        if not self._schema.has_attribute(key):
            raise KeyError(key)
        return self.value(key)

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema.attribute_names)

    def __len__(self) -> int:
        return len(self._values)

    # Value semantics ---------------------------------------------------- #

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationTuple):
            return NotImplemented
        return self._schema == other._schema and self._values == other._values

    def __hash__(self) -> int:
        return hash((self._schema, self._values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._schema.attribute_names, self._values)
        )
        return f"<{self._schema.name}: {pairs}>"
