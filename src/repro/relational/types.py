"""Attribute types.

The paper's example relation is ``Emp(name:string[9], dept:string[5],
salary:int)``; the reproduction supports exactly those two families of types:

* fixed-maximum-length strings (``STRING``), and
* integers (``INTEGER``), encoded in decimal as in the paper's
  ``"7500######S"`` example.

Type objects know how to validate Python values and how wide their encoded
representation can be, which is what the word codec of the searchable scheme
needs to choose the globally fixed word length.
"""

from __future__ import annotations

from enum import Enum

from repro.relational.errors import SchemaError

#: The largest number of decimal digits an INTEGER attribute may occupy by default.
DEFAULT_INTEGER_DIGITS = 12


class AttributeType(Enum):
    """The supported attribute type families."""

    STRING = "string"
    INTEGER = "int"

    def validate(self, value, max_length: int) -> None:
        """Raise :class:`SchemaError` if ``value`` is not a valid instance.

        ``max_length`` is the maximum encoded width in characters: the string
        length bound for ``STRING``, the digit bound (including an optional
        sign) for ``INTEGER``.
        """
        if self is AttributeType.STRING:
            if not isinstance(value, str):
                raise SchemaError(f"expected str, got {type(value).__name__}: {value!r}")
            if len(value) > max_length:
                raise SchemaError(
                    f"string {value!r} longer than the declared maximum {max_length}"
                )
            if "#" in value:
                raise SchemaError(
                    "string values must not contain '#', the padding symbol"
                )
            if not value.isascii():
                raise SchemaError(f"string {value!r} is not ASCII")
        elif self is AttributeType.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {type(value).__name__}: {value!r}")
            if len(str(value)) > max_length:
                raise SchemaError(
                    f"integer {value} needs more than {max_length} characters"
                )
        else:  # pragma: no cover - exhaustive enum
            raise SchemaError(f"unsupported attribute type {self}")

    def parse_literal(self, literal: str):
        """Convert a SQL literal string into a Python value of this type."""
        if self is AttributeType.STRING:
            return literal
        if self is AttributeType.INTEGER:
            try:
                return int(literal)
            except ValueError as exc:
                raise SchemaError(f"invalid integer literal {literal!r}") from exc
        raise SchemaError(f"unsupported attribute type {self}")  # pragma: no cover

    @classmethod
    def from_declaration(cls, declaration: str) -> tuple["AttributeType", int]:
        """Parse declarations like ``string[9]`` or ``int`` into (type, width)."""
        declaration = declaration.strip().lower()
        if declaration.startswith("string"):
            width = _bracket_width(declaration, default=None)
            if width is None:
                raise SchemaError("string declarations must specify a width, e.g. string[9]")
            return cls.STRING, width
        if declaration.startswith("int"):
            width = _bracket_width(declaration, default=DEFAULT_INTEGER_DIGITS)
            return cls.INTEGER, width
        raise SchemaError(f"unknown attribute type declaration {declaration!r}")


def _bracket_width(declaration: str, default: int | None) -> int | None:
    """Extract the ``[n]`` width suffix of a type declaration, if present."""
    if "[" not in declaration:
        return default
    if not declaration.endswith("]"):
        raise SchemaError(f"malformed type declaration {declaration!r}")
    inner = declaration[declaration.index("[") + 1: -1]
    try:
        width = int(inner)
    except ValueError as exc:
        raise SchemaError(f"malformed width in declaration {declaration!r}") from exc
    if width < 1:
        raise SchemaError("attribute width must be at least 1")
    return width
