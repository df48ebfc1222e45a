"""Evaluator deployment by description.

A client deploys its keyless evaluator
(:meth:`~repro.core.dph.DatabasePrivacyHomomorphism.server_evaluator`) with a
``REGISTER_EVALUATOR`` envelope, and an envelope carries bytes, not objects:
it carries the evaluator's *description*.  Because every evaluator in the
reproduction is constructed from public parameters alone (that is the whole
point of the trust boundary -- see :class:`~repro.core.dph.ServerEvaluator`),
a description is a small JSON object: a ``type`` tag plus the constructor
parameters.  The provider rebuilds the evaluator from it, in-process and
behind a socket alike.

The codec is an explicit allowlist, not reflection: the provider will only
instantiate evaluator classes registered here, so a hostile client cannot
name arbitrary importable code.  New evaluator families register themselves
with :func:`register_evaluator_type`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.construction import SearchableServerEvaluator
from repro.core.dph import DphError, ServerEvaluator
from repro.core.variable_length import VariableWidthServerEvaluator
from repro.outsourcing.protocol import ProtocolError
from repro.schemes.base import FieldMatchEvaluator


class EvaluatorDescriptionError(ProtocolError):
    """An evaluator description could not be produced or rebuilt."""


_BUILDERS: dict[str, Callable[[dict], ServerEvaluator]] = {}


def register_evaluator_type(
    type_tag: str, builder: Callable[[dict], ServerEvaluator]
) -> None:
    """Allowlist an evaluator family for remote deployment."""
    _BUILDERS[type_tag] = builder


def describe_evaluator(evaluator: ServerEvaluator) -> dict:
    """The JSON-able description of an evaluator, validated for round-tripping."""
    try:
        description = evaluator.describe()
    except DphError as exc:
        raise EvaluatorDescriptionError(str(exc)) from exc
    type_tag = description.get("type")
    if type_tag not in _BUILDERS:
        raise EvaluatorDescriptionError(
            f"evaluator type {type_tag!r} is not registered for remote deployment"
        )
    return description


def build_evaluator(description: dict) -> ServerEvaluator:
    """Reconstruct an evaluator at the provider from its description."""
    if not isinstance(description, dict):
        raise EvaluatorDescriptionError("evaluator description must be an object")
    type_tag = description.get("type")
    builder = _BUILDERS.get(type_tag)
    if builder is None:
        raise EvaluatorDescriptionError(
            f"evaluator type {type_tag!r} is not registered for remote deployment"
        )
    try:
        return builder(description)
    except EvaluatorDescriptionError:
        raise
    except Exception as exc:
        raise EvaluatorDescriptionError(
            f"malformed {type_tag!r} evaluator description: {exc}"
        ) from exc


def _build_searchable(description: dict) -> SearchableServerEvaluator:
    return SearchableServerEvaluator(
        backend=str(description["backend"]),
        word_length=int(description["word_length"]),
        check_length=int(description["check_length"]),
        entry_length=int(description["entry_length"]),
    )


def _build_field_match(description: dict) -> FieldMatchEvaluator:
    return FieldMatchEvaluator(str(description["scheme_name"]))


def _build_variable_width(description: dict) -> VariableWidthServerEvaluator:
    parameters = tuple(
        (int(word_length), int(check_length))
        for word_length, check_length in description["attribute_parameters"]
    )
    return VariableWidthServerEvaluator(parameters)


register_evaluator_type("searchable", _build_searchable)
register_evaluator_type("field-match", _build_field_match)
register_evaluator_type("variable-width", _build_variable_width)
