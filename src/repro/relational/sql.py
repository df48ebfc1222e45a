"""A small SQL parser for the paper's query fragment.

The paper writes its example queries in SQL::

    SELECT * FROM table WHERE hospital = 1;
    SELECT * FROM table WHERE outcome = 'fatal';

The supported grammar is::

    SELECT (<attr> [, <attr>]* | *) FROM <relation>
        [WHERE <attr> = <literal> [AND <attr> = <literal>]*] [;]

Literals are single-quoted strings or integers.  The parser produces the query
AST of :mod:`repro.relational.query`; untyped literals are resolved against a
schema when one is supplied (``hospital = 1`` parses to the integer 1 for an
integer attribute and the string ``"1"`` for a string attribute).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from repro.relational.errors import SqlParseError
from repro.relational.query import (
    ConjunctiveSelection,
    EqualityPredicate,
    Projection,
    Query,
    Selection,
)
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType

_SELECT_RE = re.compile(
    r"""^\s*select\s+(?P<columns>\*|[\w\s,]+?)\s+from\s+(?P<relation>\w+)
        (?:\s+where\s+(?P<where>.+?))?\s*;?\s*$""",
    re.IGNORECASE | re.VERBOSE | re.DOTALL,
)

_CONDITION_RE = re.compile(
    r"""^\s*(?P<attribute>\w+)\s*=\s*(?P<literal>'[^']*'|"[^"]*"|-?\d+|\w+)\s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class ParsedSql:
    """The result of parsing a SQL statement."""

    relation_name: str
    query: Query


def _parse_literal(token: str, attribute_name: str, schema: RelationSchema | None):
    token = token.strip()
    if token.startswith("'") or token.startswith('"'):
        return token[1:-1]
    if schema is not None and schema.has_attribute(attribute_name):
        attribute = schema.attribute(attribute_name)
        if attribute.attribute_type is AttributeType.INTEGER:
            try:
                return int(token)
            except ValueError as exc:
                raise SqlParseError(
                    f"literal {token!r} is not a valid integer for {attribute_name}"
                ) from exc
        return token
    if re.fullmatch(r"-?\d+", token):
        return int(token)
    return token


def parse_sql(
    statement: str,
    schema: RelationSchema | Callable[[str], RelationSchema] | None = None,
) -> ParsedSql:
    """Parse a SQL statement of the supported fragment.

    Parameters
    ----------
    statement:
        The SQL text.
    schema:
        Optional schema used to type bare literals and validate attribute
        names; when omitted, bare numeric literals parse as integers.  A
        caller that holds several relations passes a lookup from the
        statement's relation name to its schema instead, so one parse yields
        both the routing name and the typed query; the lookup runs after the
        statement's syntax is accepted and its errors propagate unchanged.
    """
    match = _SELECT_RE.match(statement)
    if match is None:
        raise SqlParseError(f"cannot parse SQL statement: {statement!r}")
    relation_name = match.group("relation")
    columns_text = match.group("columns").strip()
    where_text = match.group("where")

    if where_text is None:
        raise SqlParseError(
            "full-table scans are not expressible as exact selects; "
            "a WHERE clause with at least one equality is required"
        )

    conditions = []
    for part in re.split(r"\s+and\s+", where_text, flags=re.IGNORECASE):
        condition = _CONDITION_RE.match(part)
        if condition is None:
            raise SqlParseError(f"cannot parse WHERE condition {part!r}")
        conditions.append((condition.group("attribute"), condition.group("literal")))
    columns = tuple(c.strip() for c in columns_text.split(",") if c.strip())
    if not columns:
        raise SqlParseError("empty column list")

    if callable(schema):
        schema = schema(relation_name)
    predicates = [
        EqualityPredicate(attribute, _parse_literal(literal, attribute, schema))
        for attribute, literal in conditions
    ]

    query: Query
    if len(predicates) == 1:
        query = Selection(predicates[0])
    else:
        query = ConjunctiveSelection(tuple(predicates))
    if columns != ("*",):
        query = Projection(query, columns)

    if schema is not None:
        validate = getattr(query, "validate", None)
        if validate is not None:
            try:
                validate(schema)
            except Exception as exc:
                raise SqlParseError(str(exc)) from exc

    return ParsedSql(relation_name=relation_name, query=query)
