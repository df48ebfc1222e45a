"""Attributes and relation schemas.

A :class:`RelationSchema` fixes, for each attribute, a name, a type and a
maximum encoded width.  It also assigns every attribute its short *attribute
identifier* -- the single character the paper appends to padded values to form
searchable words (``"MontgomeryN"``, ``"HR########D"``, ``"7500######S"``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.errors import SchemaError
from repro.relational.types import AttributeType

#: Alphabet used for automatically assigned one-byte attribute identifiers.
_ID_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"


@dataclass(frozen=True)
class Attribute:
    """One attribute (column) of a relation.

    Attributes
    ----------
    name:
        Attribute name, unique within its schema.
    attribute_type:
        :class:`AttributeType` family.
    max_length:
        Maximum encoded width in characters (string length or decimal digits).
    identifier:
        One-character identifier used in word construction.  If empty the
        schema assigns one automatically.
    """

    name: str
    attribute_type: AttributeType
    max_length: int
    identifier: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise SchemaError(f"invalid attribute name {self.name!r}")
        if self.max_length < 1:
            raise SchemaError("attribute max_length must be at least 1")
        if self.identifier and len(self.identifier) != 1:
            raise SchemaError("attribute identifiers must be a single character")

    def validate_value(self, value) -> None:
        """Raise :class:`SchemaError` if ``value`` does not fit this attribute."""
        self.attribute_type.validate(value, self.max_length)

    @classmethod
    def string(cls, name: str, max_length: int, identifier: str = "") -> "Attribute":
        """Shorthand for a ``string[max_length]`` attribute."""
        return cls(name, AttributeType.STRING, max_length, identifier)

    @classmethod
    def integer(cls, name: str, max_digits: int = 12, identifier: str = "") -> "Attribute":
        """Shorthand for an integer attribute with at most ``max_digits`` digits."""
        return cls(name, AttributeType.INTEGER, max_digits, identifier)


class RelationSchema:
    """An ordered collection of uniquely named attributes."""

    def __init__(self, name: str, attributes: list[Attribute]) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        if not attributes:
            raise SchemaError("a relation needs at least one attribute")
        names = [a.name for a in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema {name!r}")
        self._name = name
        self._attributes = self._assign_identifiers(attributes)
        # The schema is immutable: names and positions are computed once.
        self._attribute_names = tuple(names)
        self._positions = {n: i for i, n in enumerate(names)}
        # Hashed per envelope (the protocol's declaration memo); str hashes
        # are per process, and so is this -- schemas travel as declarations.
        self._hash = hash((self._name, self._attributes))

    @staticmethod
    def _assign_identifiers(attributes: list[Attribute]) -> tuple[Attribute, ...]:
        used = {a.identifier for a in attributes if a.identifier}
        if len(used) != len([a for a in attributes if a.identifier]):
            raise SchemaError("attribute identifiers must be unique")
        assigned = []
        pool = iter(c for c in _ID_ALPHABET if c not in used)
        for attribute in attributes:
            if attribute.identifier:
                assigned.append(attribute)
                continue
            preferred = attribute.name[0].upper()
            if preferred not in used and preferred in _ID_ALPHABET:
                identifier = preferred
            else:
                try:
                    identifier = next(pool)
                except StopIteration as exc:  # pragma: no cover - >62 attributes
                    raise SchemaError("too many attributes to assign identifiers") from exc
            used.add(identifier)
            assigned.append(
                Attribute(
                    attribute.name,
                    attribute.attribute_type,
                    attribute.max_length,
                    identifier,
                )
            )
        return tuple(assigned)

    @property
    def name(self) -> str:
        """Relation name."""
        return self._name

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes in declaration order."""
        return self._attributes

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return self._attribute_names

    def attribute(self, name: str) -> Attribute:
        """Look an attribute up by name."""
        return self._attributes[self.position(name)]

    def position(self, name: str) -> int:
        """Index of the named attribute in declaration order."""
        try:
            return self._positions[name]
        except KeyError as exc:
            raise SchemaError(
                f"relation {self._name!r} has no attribute {name!r}"
            ) from exc

    def has_attribute(self, name: str) -> bool:
        """Return whether the schema declares ``name``."""
        return name in self._positions

    def identifier_to_attribute(self, identifier: str | bytes) -> Attribute:
        """Reverse lookup: map a one-character identifier back to its attribute."""
        if isinstance(identifier, bytes):
            identifier = identifier.decode("ascii")
        for attribute in self._attributes:
            if attribute.identifier == identifier:
                return attribute
        raise SchemaError(f"no attribute with identifier {identifier!r}")

    def max_value_length(self) -> int:
        """The paper's "length of the longest attribute value" for word sizing."""
        return max(a.max_length for a in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self._name == other._name and self._attributes == other._attributes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        cols = ", ".join(
            f"{a.name}:{a.attribute_type.value}[{a.max_length}]" for a in self._attributes
        )
        return f"RelationSchema({self._name}({cols}))"

    @classmethod
    def parse(cls, declaration: str) -> "RelationSchema":
        """Parse declarations like ``Emp(name:string[9], dept:string[5], salary:int)``."""
        declaration = declaration.strip()
        if "(" not in declaration or not declaration.endswith(")"):
            raise SchemaError(f"malformed schema declaration {declaration!r}")
        name, _, body = declaration.partition("(")
        attributes = []
        for part in body[:-1].split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise SchemaError(f"malformed attribute declaration {part!r}")
            attr_name, _, type_decl = part.partition(":")
            attr_type, width = AttributeType.from_declaration(type_decl)
            attributes.append(Attribute(attr_name.strip(), attr_type, width))
        return cls(name.strip(), attributes)
