"""Evaluator description round trips (the ``REGISTER_EVALUATOR`` body codec)."""

from __future__ import annotations

import json

import pytest

from repro.core.dph import EncryptedQuery, ServerEvaluator
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer
from repro.outsourcing.evaluators import (
    EvaluatorDescriptionError,
    build_evaluator,
    describe_evaluator,
)
from repro.outsourcing.protocol import (
    ProtocolError,
    decode_evaluator_description,
    encode_evaluator_description,
    parse_message,
)
from repro.relational.query import Selection
from repro.schemes.registry import available_schemes, create


class TestRoundTrip:
    @pytest.mark.parametrize("scheme_name", available_schemes())
    def test_every_registered_scheme_describes_and_rebuilds(
        self, scheme_name, employee_schema, secret_key, rng
    ):
        scheme = create(scheme_name, employee_schema, secret_key, rng=rng)
        evaluator = scheme.server_evaluator()
        description = describe_evaluator(evaluator)
        # must survive the envelope body's JSON trip
        body = encode_evaluator_description(description)
        rebuilt = build_evaluator(decode_evaluator_description(body))
        assert rebuilt.scheme_name == evaluator.scheme_name

    def test_rebuilt_evaluator_answers_queries(
        self, employee_schema, secret_key, rng, employee_relation, swp_dph
    ):
        encrypted = swp_dph.encrypt_relation(employee_relation)
        query = swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        original = swp_dph.server_evaluator()
        rebuilt = build_evaluator(describe_evaluator(original))
        assert len(rebuilt.evaluate(query, encrypted).matching) == len(
            original.evaluate(query, encrypted).matching
        )

    def test_variable_width_round_trip(self, employee_schema, secret_key, rng):
        from repro.core.variable_length import VariableWidthSelectDph

        scheme = VariableWidthSelectDph(employee_schema, secret_key, rng=rng)
        description = describe_evaluator(scheme.server_evaluator())
        assert description["type"] == "variable-width"
        rebuilt = build_evaluator(json.loads(json.dumps(description)))
        assert rebuilt.scheme_name == scheme.server_evaluator().scheme_name


class TestRejection:
    def test_unknown_type_rejected(self):
        with pytest.raises(EvaluatorDescriptionError, match="not registered"):
            build_evaluator({"type": "pickled-code", "payload": "gASV..."})

    def test_non_object_rejected(self):
        with pytest.raises(EvaluatorDescriptionError):
            build_evaluator(["searchable"])

    def test_missing_fields_rejected(self):
        with pytest.raises(EvaluatorDescriptionError, match="malformed"):
            build_evaluator({"type": "searchable", "backend": "dph-swp"})

    def test_bad_backend_rejected(self):
        with pytest.raises(EvaluatorDescriptionError, match="malformed"):
            build_evaluator(
                {
                    "type": "searchable",
                    "backend": "no-such-backend",
                    "word_length": 15,
                    "check_length": 6,
                    "entry_length": 8,
                }
            )

    def test_undescribable_evaluator_rejected(self):
        class OpaqueEvaluator(ServerEvaluator):
            @property
            def scheme_name(self) -> str:
                return "opaque"

            def compile_token(self, raw_token):
                return list

        with pytest.raises(EvaluatorDescriptionError, match="does not describe"):
            describe_evaluator(OpaqueEvaluator())


class TestBodyDecoder:
    """The provider parses a peer's bytes: refusals are ProtocolErrors."""

    def test_deeply_nested_json_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="malformed evaluator description"):
            decode_evaluator_description(b"[" * 200_000)

    @pytest.mark.parametrize("body", [b"", b"\xff\xfe", b"{", b"[1, 2]", b'"searchable"'])
    def test_anything_but_one_object_is_a_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            decode_evaluator_description(body)

    def test_the_encoding_is_canonical(self):
        assert encode_evaluator_description({"b": 1, "a": [2, 3]}) == b'{"a":[2,3],"b":1}'

    @pytest.mark.parametrize(
        "body",
        [
            b"[" * 200_000,
            json.dumps({"type": "pickled-code", "payload": "gASV..."}).encode(),
            json.dumps({"type": "searchable", "backend": "dph-swp"}).encode(),
        ],
        ids=["deep", "unknown-type", "missing-fields"],
    )
    def test_the_provider_answers_an_error_envelope(self, body):
        provider = OutsourcedDatabaseServer()
        raw = MessageV2(MessageKind.REGISTER_EVALUATOR, "Emp", body).to_bytes()
        response = parse_message(provider.handle_message(raw))
        assert response.kind is MessageKind.ERROR
        assert provider.metric_relation("Emp") == "(unknown)"  # nothing deployed
