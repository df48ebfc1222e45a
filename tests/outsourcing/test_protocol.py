"""The byte-level wire format: body codecs, the envelope and its trace flag.

An envelope's version byte is ``2`` (untraced) or ``3`` (the same layout
with a 16-byte trace id appended); every other byte, and the retired
unversioned v1 framing, is refused by every reader.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dph import EncryptedQuery, EncryptedTuple, EvaluationResult
from repro.outsourcing import protocol
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    PROTOCOL_V2,
    PROTOCOL_V3,
    ProtocolError,
    TRACE_ID_SIZE,
    V2_MAGIC,
    decode_count,
    decode_encrypted_query,
    decode_encrypted_relation,
    decode_encrypted_tuple,
    decode_evaluation_result,
    decode_query_batch,
    decode_result_batch,
    decode_tuple_ids,
    encode_count,
    encode_encrypted_query,
    encode_encrypted_relation,
    encode_encrypted_tuple,
    encode_evaluation_result,
    encode_query_batch,
    encode_result_batch,
    encode_tuple_ids,
    parse_message,
    peek_envelope,
    peek_version,
)
from repro.relational import Selection

TID = bytes(range(TRACE_ID_SIZE))


def v1_frame(kind: str, relation_name: str, body: bytes = b"") -> bytes:
    """The retired unversioned v1 framing: three length-prefixed fields."""
    return b"".join(
        len(part).to_bytes(4, "big") + part
        for part in (kind.encode(), relation_name.encode(), body)
    )


#: A query in the retired unversioned v1 framing.
V1_QUERY = v1_frame("query", "Emp")


def _v2_frame(body: bytes = b"payload") -> bytes:
    return MessageV2(
        kind=MessageKind.QUERY, relation_name="Emp", body=body
    ).to_bytes()


class TestTupleEncoding:
    def test_roundtrip(self):
        original = EncryptedTuple(
            tuple_id=b"id-bytes",
            payload=b"payload-bytes",
            search_fields=(b"f1", b"", b"field-3"),
            metadata=b"meta",
        )
        decoded, consumed = decode_encrypted_tuple(encode_encrypted_tuple(original))
        assert decoded == original
        assert consumed == len(encode_encrypted_tuple(original))

    def test_truncated_rejected(self):
        raw = encode_encrypted_tuple(EncryptedTuple(tuple_id=b"x", payload=b"y"))
        with pytest.raises(ProtocolError):
            decode_encrypted_tuple(raw[:-1])


class TestRelationEncoding:
    def test_roundtrip(self, swp_dph, employee_relation):
        encrypted = swp_dph.encrypt_relation(employee_relation)
        decoded = decode_encrypted_relation(encode_encrypted_relation(encrypted))
        assert decoded.encrypted_tuples == encrypted.encrypted_tuples
        assert decoded.schema.attribute_names == encrypted.schema.attribute_names
        # the decoded copy is still decryptable by the key holder
        assert swp_dph.decrypt_relation(decoded) == employee_relation

    def test_trailing_bytes_rejected(self, swp_dph, employee_relation):
        raw = encode_encrypted_relation(swp_dph.encrypt_relation(employee_relation))
        with pytest.raises(ProtocolError):
            decode_encrypted_relation(raw + b"extra")


class TestQueryEncoding:
    def test_roundtrip(self, swp_dph):
        query = swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        assert decode_encrypted_query(encode_encrypted_query(query)) == query

    def test_roundtrip_with_metadata(self):
        query = EncryptedQuery(scheme_name="s", tokens=(b"t1", b"t2"), metadata=b"m")
        assert decode_encrypted_query(encode_encrypted_query(query)) == query

    def test_trailing_bytes_rejected(self, swp_dph):
        raw = encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "HR")))
        with pytest.raises(ProtocolError):
            decode_encrypted_query(raw + b"!")

    def test_a_scheme_name_that_is_not_utf8_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="scheme name .* is not valid UTF-8"):
            decode_encrypted_query(query_frame(b"sw\xffp", [b"token"]))

    def test_a_query_without_tokens_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="at least one token"):
            decode_encrypted_query(query_frame(b"swp", []))

    def test_a_batch_holding_a_query_without_tokens_is_a_protocol_error(self):
        good = query_frame(b"swp", [b"token"])
        for bad in (query_frame(b"swp", []), query_frame(b"\xc3", [b"token"])):
            with pytest.raises(ProtocolError):
                decode_query_batch(counted([good, bad]))

    @pytest.mark.parametrize("kind", [MessageKind.QUERY, MessageKind.BATCH_QUERY])
    @pytest.mark.parametrize("name, tokens", [(b"swp", []), (b"\xffswp", [b"t"])],
                             ids=["no tokens", "not UTF-8"])
    def test_the_provider_answers_a_malformed_query_with_error(self, kind, name, tokens):
        from repro.outsourcing import OutsourcedDatabaseServer
        body = query_frame(name, tokens)
        if kind is MessageKind.BATCH_QUERY:
            body = counted([body])
        request = MessageV2(kind=kind, relation_name="Emp", body=body)
        response = parse_message(OutsourcedDatabaseServer().handle_message(request.to_bytes()))
        assert response.kind is MessageKind.ERROR


def counted(parts: list[bytes]) -> bytes:
    """A 4-byte count, then each part behind its 4-byte length."""
    return len(parts).to_bytes(4, "big") + b"".join(
        len(part).to_bytes(4, "big") + part for part in parts
    )


def query_frame(name: bytes, tokens: list[bytes], metadata: bytes = b"") -> bytes:
    """An encrypted query's bytes, whatever its scheme name and token count."""
    return (
        len(name).to_bytes(4, "big") + name + counted(tokens)
        + len(metadata).to_bytes(4, "big") + metadata
    )


class TestMessageEnvelope:
    def test_roundtrip(self):
        message = MessageV2(kind=MessageKind.QUERY, relation_name="emp", body=b"body")
        assert MessageV2.from_bytes(message.to_bytes()) == message

    def test_unknown_kind_rejected(self):
        message = MessageV2(kind=MessageKind.QUERY, relation_name="emp", body=b"")
        raw = message.to_bytes().replace(b"query", b"nosuc")
        with pytest.raises(ProtocolError):
            MessageV2.from_bytes(raw)

    def test_trailing_bytes_rejected(self):
        raw = MessageV2(kind=MessageKind.ERROR, relation_name="emp").to_bytes()
        with pytest.raises(ProtocolError):
            MessageV2.from_bytes(raw + b"x")


@given(
    tuple_id=st.binary(min_size=1, max_size=20),
    payload=st.binary(min_size=0, max_size=60),
    fields=st.lists(st.binary(min_size=0, max_size=20), max_size=6),
    metadata=st.binary(min_size=0, max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_property_tuple_encoding_roundtrip(tuple_id, payload, fields, metadata):
    original = EncryptedTuple(
        tuple_id=tuple_id, payload=payload, search_fields=tuple(fields), metadata=metadata
    )
    decoded, _ = decode_encrypted_tuple(encode_encrypted_tuple(original))
    assert decoded == original


# --------------------------------------------------------------------------- #
# Hypothesis strategies for the new body types
# --------------------------------------------------------------------------- #

tuple_ids_strategy = st.lists(st.binary(min_size=1, max_size=24), max_size=8)

queries_strategy = st.lists(
    st.builds(
        EncryptedQuery,
        scheme_name=st.text(min_size=1, max_size=12),
        tokens=st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=4).map(tuple),
        metadata=st.binary(max_size=12),
    ),
    max_size=5,
)

kinds_strategy = st.sampled_from(list(MessageKind))
names_strategy = st.text(max_size=20)
bodies_strategy = st.binary(max_size=64)


@given(tuple_ids=tuple_ids_strategy)
@settings(max_examples=60, deadline=None)
def test_property_tuple_ids_roundtrip(tuple_ids):
    assert decode_tuple_ids(encode_tuple_ids(tuple_ids)) == tuple(tuple_ids)


@given(queries=queries_strategy)
@settings(max_examples=60, deadline=None)
def test_property_query_batch_roundtrip(queries):
    assert decode_query_batch(encode_query_batch(queries)) == tuple(queries)


@given(kind=kinds_strategy, name=names_strategy, body=bodies_strategy)
@settings(max_examples=60, deadline=None)
def test_property_v2_envelope_roundtrip(kind, name, body):
    message = MessageV2(kind=kind, relation_name=name, body=body)
    assert MessageV2.from_bytes(message.to_bytes()) == message
    assert parse_message(message.to_bytes()) == message


@given(kind=kinds_strategy, name=names_strategy, body=bodies_strategy)
@settings(max_examples=60, deadline=None)
def test_property_v2_envelope_truncation_rejected(kind, name, body):
    raw = MessageV2(kind=kind, relation_name=name, body=body).to_bytes()
    with pytest.raises(ProtocolError):
        MessageV2.from_bytes(raw[:-1])
    with pytest.raises(ProtocolError):
        MessageV2.from_bytes(raw + b"x")


@given(tuple_ids=tuple_ids_strategy)
@settings(max_examples=30, deadline=None)
def test_property_tuple_ids_trailing_bytes_rejected(tuple_ids):
    with pytest.raises(ProtocolError):
        decode_tuple_ids(encode_tuple_ids(tuple_ids) + b"!")


class TestEvaluationResultEncoding:
    def _result(self, swp_dph, employee_relation) -> EvaluationResult:
        encrypted = swp_dph.encrypt_relation(employee_relation)
        query = swp_dph.encrypt_query(Selection.equals("dept", "HR"))
        return swp_dph.server_evaluator().evaluate(query, encrypted)

    def test_roundtrip_preserves_statistics(self, swp_dph, employee_relation):
        result = self._result(swp_dph, employee_relation)
        decoded, consumed = decode_evaluation_result(encode_evaluation_result(result))
        assert consumed == len(encode_evaluation_result(result))
        assert decoded.matching.encrypted_tuples == result.matching.encrypted_tuples
        assert decoded.examined == result.examined
        assert decoded.token_evaluations == result.token_evaluations

    def test_result_batch_roundtrip(self, swp_dph, employee_relation):
        result = self._result(swp_dph, employee_relation)
        decoded = decode_result_batch(encode_result_batch([result, result]))
        assert len(decoded) == 2
        assert decoded[0].examined == result.examined

    def test_truncated_statistics_rejected(self, swp_dph, employee_relation):
        raw = encode_evaluation_result(self._result(swp_dph, employee_relation))
        with pytest.raises(ProtocolError):
            decode_evaluation_result(raw[:-1])

    def test_result_batch_trailing_bytes_rejected(self, swp_dph, employee_relation):
        raw = encode_result_batch([self._result(swp_dph, employee_relation)])
        with pytest.raises(ProtocolError):
            decode_result_batch(raw + b"z")


class TestCounts:
    def test_roundtrip(self):
        assert decode_count(encode_count(0)) == 0
        assert decode_count(encode_count(12345)) == 12345

    def test_negative_rejected(self):
        with pytest.raises(ProtocolError):
            encode_count(-1)

    def test_malformed_rejected(self):
        with pytest.raises(ProtocolError):
            decode_count(b"\x00" * 7)


class TestVersioning:
    def test_peek_distinguishes_versions(self):
        v2 = MessageV2(kind=MessageKind.QUERY, relation_name="emp", body=b"b")
        v3 = MessageV2(kind=MessageKind.QUERY, relation_name="emp", trace_id=b"t" * 16)
        assert peek_version(v2.to_bytes()) == PROTOCOL_V2
        assert peek_version(v3.to_bytes()) == PROTOCOL_V3
        assert v2.version == PROTOCOL_V2
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            peek_version(v1_frame("query", "emp", b"b"))

    @pytest.mark.parametrize("version", [0, 1, 4, 7, 255])
    def test_unknown_future_version_rejected(self, version):
        raw = V2_MAGIC + bytes([version]) + b"\x00" * 12
        assert peek_version(raw) == version
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            MessageV2.from_bytes(raw)
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            parse_message(raw)
        with pytest.raises(ProtocolError, match="unsupported protocol version"):
            peek_envelope(raw)

    def test_a_v1_envelope_is_refused(self):
        for kind in ("store-relation", "insert-tuple", "query", "delete-tuples"):
            with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
                parse_message(v1_frame(kind, "emp"))


class TestWireDispatch:
    """The server's handle_message: every kind, and v1 frames refused."""

    @pytest.fixture
    def loaded_server(self, swp_dph, employee_relation):
        from repro.outsourcing import OutsourcedDatabaseServer
        server = OutsourcedDatabaseServer()
        server.register_evaluator("Emp", swp_dph.server_evaluator())
        store = MessageV2(
            kind=MessageKind.STORE_RELATION,
            relation_name="Emp",
            body=encode_encrypted_relation(swp_dph.encrypt_relation(employee_relation)),
        )
        response = parse_message(server.handle_message(store.to_bytes()))
        assert response.kind is MessageKind.ACK
        assert decode_count(response.body) == len(employee_relation)
        return server

    def test_query_v2_carries_statistics(self, loaded_server, swp_dph):
        query = MessageV2(
            kind=MessageKind.QUERY,
            relation_name="Emp",
            body=encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "HR"))),
        )
        response = parse_message(loaded_server.handle_message(query.to_bytes()))
        assert response.kind is MessageKind.QUERY_RESULT
        assert response.version == PROTOCOL_V2
        result, _ = decode_evaluation_result(response.body)
        assert len(result.matching) == 2
        assert result.examined == 5

    def test_a_v1_query_frame_is_refused(self, loaded_server, swp_dph):
        body = encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "IT")))
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            loaded_server.handle_message(v1_frame("query", "Emp", body))
        assert loaded_server.audit_log.summary()["query-executed"] == 0

    def test_delete_tuples_by_id(self, loaded_server):
        stored = loaded_server.stored_relation("Emp")
        victims = [t.tuple_id for t in stored.encrypted_tuples[:2]]
        delete = MessageV2(
            kind=MessageKind.DELETE_TUPLES,
            relation_name="Emp",
            body=encode_tuple_ids(victims + [b"no-such-id"]),  # and no postings
        )
        response = parse_message(loaded_server.handle_message(delete.to_bytes()))
        assert response.kind is MessageKind.TUPLE_IDS
        assert decode_tuple_ids(response.body) == tuple(victims)
        assert len(loaded_server.stored_relation("Emp")) == 3

    def test_batch_query(self, loaded_server, swp_dph):
        queries = [
            swp_dph.encrypt_query(Selection.equals("dept", "HR")),
            swp_dph.encrypt_query(Selection.equals("dept", "SALES")),
        ]
        batch = MessageV2(
            kind=MessageKind.BATCH_QUERY,
            relation_name="Emp",
            body=encode_query_batch(queries),
        )
        response = parse_message(loaded_server.handle_message(batch.to_bytes()))
        assert response.kind is MessageKind.BATCH_RESULT
        results = decode_result_batch(response.body)
        assert [len(r.matching) for r in results] == [2, 1]

    def test_errors_come_back_as_error_messages(self, loaded_server, swp_dph):
        query = MessageV2(
            kind=MessageKind.QUERY,
            relation_name="missing",
            body=encode_encrypted_query(swp_dph.encrypt_query(Selection.equals("dept", "HR"))),
        )
        response = parse_message(loaded_server.handle_message(query.to_bytes()))
        assert response.kind is MessageKind.ERROR
        assert b"missing" in response.body

    def test_malformed_body_comes_back_as_error(self, loaded_server):
        bad = MessageV2(kind=MessageKind.DELETE_TUPLES, relation_name="Emp", body=b"\x01")
        response = parse_message(loaded_server.handle_message(bad.to_bytes()))
        assert response.kind is MessageKind.ERROR

    def test_list_tuple_ids_returns_ids_without_ciphertexts(self, loaded_server):
        stored = loaded_server.stored_relation("Emp")
        request = MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp")
        response = parse_message(loaded_server.handle_message(request.to_bytes()))
        assert response.kind is MessageKind.TUPLE_IDS
        ids = decode_tuple_ids(response.body)
        assert ids == tuple(t.tuple_id for t in stored.encrypted_tuples)
        # O(ids) on the wire: the response is far smaller than the data.
        assert len(response.body) < stored.size_in_bytes()

    def test_list_tuple_ids_rejects_a_body(self, loaded_server):
        request = MessageV2(
            kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp", body=b"junk"
        )
        response = parse_message(loaded_server.handle_message(request.to_bytes()))
        assert response.kind is MessageKind.ERROR
        assert b"no body" in response.body

    def test_list_tuple_ids_unknown_relation_is_an_error(self, loaded_server):
        request = MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="missing")
        response = parse_message(loaded_server.handle_message(request.to_bytes()))
        assert response.kind is MessageKind.ERROR

    def test_a_v1_list_tuple_ids_frame_is_refused(self):
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            parse_message(v1_frame("list-tuple-ids", "Emp"))

    def test_peek_envelope_matches_the_full_parse(self, loaded_server):
        for envelope in (
            MessageV2(kind=MessageKind.QUERY, relation_name="Emp", body=b"x" * 64),
            MessageV2(
                kind=MessageKind.INSERT_TUPLES, relation_name="Other", body=b"y",
                trace_id=b"t" * 16,
            ),
            MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp"),
        ):
            raw = envelope.to_bytes()
            parsed = parse_message(raw)
            assert peek_envelope(raw) == (
                parsed.version, parsed.kind, parsed.relation_name
            )

    def test_peek_envelope_rejects_what_the_parsers_reject(self):
        good = MessageV2(kind=MessageKind.QUERY, relation_name="Emp", body=b"abc")
        raw = good.to_bytes()
        with pytest.raises(ProtocolError):
            peek_envelope(raw[:-1])  # truncated body
        with pytest.raises(ProtocolError):
            peek_envelope(raw + b"!")  # trailing bytes
        with pytest.raises(ProtocolError):
            peek_envelope(b"\x00\x00\x00\x05junk!")  # unknown kind
        # A v1 envelope is a protocol violation, whatever its kind.
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            peek_envelope(v1_frame("query", "Emp"))

    def test_list_tuple_ids_is_audited(self, loaded_server):
        from repro.outsourcing.audit import AuditEventKind

        loaded_server.list_tuple_ids("Emp")
        events = loaded_server.audit_log.events_of_kind(AuditEventKind.TUPLE_IDS_LISTED)
        assert events and events[-1].detail["id_count"] == 5


class TestMessageV3:
    def test_version_follows_the_trace_id(self):
        untraced = MessageV2(kind=MessageKind.QUERY, relation_name="Emp")
        traced = MessageV2(
            kind=MessageKind.QUERY, relation_name="Emp", trace_id=TID
        )
        assert untraced.version == PROTOCOL_V2
        assert traced.version == PROTOCOL_V3

    def test_round_trip_preserves_the_trace_id(self):
        message = MessageV2(
            kind=MessageKind.INSERT_TUPLES, relation_name="Emp", body=b"x" * 33,
            trace_id=TID,
        )
        parsed = MessageV2.from_bytes(message.to_bytes())
        assert parsed.trace_id == TID
        assert parsed.kind is MessageKind.INSERT_TUPLES
        assert parsed.relation_name == "Emp"
        assert parsed.body == b"x" * 33

    def test_wrong_size_trace_id_is_rejected_at_serialization(self):
        message = MessageV2(
            kind=MessageKind.QUERY, relation_name="Emp", trace_id=b"short"
        )
        with pytest.raises(ProtocolError, match="16 bytes"):
            message.to_bytes()

    def test_truncated_v3_frame_is_rejected(self):
        raw = protocol.attach_trace(_v2_frame(), TID)
        with pytest.raises(ProtocolError):
            MessageV2.from_bytes(raw[: len(raw) - TRACE_ID_SIZE + 3][:12])


class TestRawHelpers:
    def test_attach_flips_the_version_and_appends_the_id(self):
        raw = _v2_frame()
        traced = protocol.attach_trace(raw, TID)
        assert protocol.peek_version(traced) == PROTOCOL_V3
        assert traced[-TRACE_ID_SIZE:] == TID
        # the kind/name/body encoding is reused verbatim
        assert traced[len(protocol.V2_MAGIC) + 1: -TRACE_ID_SIZE] == raw[
            len(protocol.V2_MAGIC) + 1:
        ]

    def test_attach_refuses_a_v1_frame(self):
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            protocol.attach_trace(V1_QUERY, TID)

    def test_attach_twice_is_a_caller_bug(self):
        traced = protocol.attach_trace(_v2_frame(), TID)
        with pytest.raises(ProtocolError, match="v3"):
            protocol.attach_trace(traced, TID)

    def test_attach_validates_the_id_size(self):
        with pytest.raises(ProtocolError, match="16 bytes"):
            protocol.attach_trace(_v2_frame(), b"nope")

    def test_peek_trace_id(self):
        raw = _v2_frame()
        assert protocol.peek_trace_id(raw) is None
        assert protocol.peek_trace_id(protocol.attach_trace(raw, TID)) == TID

    def test_peek_trace_id_reuses_an_already_peeked_version(self):
        for raw in (_v2_frame(), protocol.attach_trace(_v2_frame(), TID)):
            version, _, _ = protocol.peek_envelope(raw)
            assert protocol.peek_trace_id(raw, version) == protocol.peek_trace_id(raw)

    def test_parse_message_reads_v2_and_v3_and_refuses_v1(self):
        v2 = _v2_frame()
        v3 = protocol.attach_trace(v2, TID)
        assert protocol.parse_message(v2).trace_id is None
        assert protocol.parse_message(v3).trace_id == TID
        with pytest.raises(ProtocolError, match="not a versioned protocol envelope"):
            protocol.parse_message(V1_QUERY)

    def test_peek_envelope_accepts_v3(self):
        version, kind, relation = protocol.peek_envelope(
            protocol.attach_trace(_v2_frame(), TID)
        )
        assert version == PROTOCOL_V3
        assert kind is MessageKind.QUERY
        assert relation == "Emp"


class _RecordingShard:
    """An in-process provider that logs every ``(request, answer)`` it sees."""

    def __init__(self, log: list) -> None:
        from repro.outsourcing import OutsourcedDatabaseServer

        self._provider = OutsourcedDatabaseServer()
        self._log = log

    def handle_message(self, raw: bytes) -> bytes:
        answer = self._provider.handle_message(raw)
        self._log.append((parse_message(raw), parse_message(answer)))
        return answer


@pytest.fixture(scope="module")
def provider_answers():
    """Every envelope an in-process provider answered under a session workload.

    A plain and an indexed session, on one provider and behind a router
    (which counts by ``LIST_TUPLE_IDS``), send every request kind there is,
    so each shows up here with real, well-formed bodies.
    """
    from repro.api import EncryptedDatabase
    from repro.cluster import ShardRouter
    from repro.crypto.keys import SecretKey
    from repro.crypto.rng import DeterministicRng

    log: list = []
    router = ShardRouter([_RecordingShard(log), _RecordingShard(log)])
    providers = (_RecordingShard(log), router)
    for provider, index in itertools.product(providers, (False, True)):
        rng = DeterministicRng(7)
        key = SecretKey.generate(rng=rng)
        db = EncryptedDatabase(key, provider, "swp", index=index, rng=rng)
        db.create_table(
            "Emp(name:string[14], dept:string[5], salary:int[6])",
            rows=[("Montgomery", "HR", 7500), ("Smith", "IT", 5200)],
        )
        db.insert("Emp", ("Jones", "HR", 7500))
        db.select("SELECT * FROM Emp WHERE dept = 'HR'")
        db.select_many(["SELECT * FROM Emp WHERE dept = 'IT'"])
        db.retrieve_all("Emp")
        db.count("Emp")
        db.delete("SELECT * FROM Emp WHERE dept = 'IT'")
        db.drop_table("Emp")
    router.close()
    return log


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.value)
def test_each_kind_is_declared_once_and_every_layer_serves_it(kind, provider_answers):
    """``ANSWERS`` / ``ANSWER_CODECS`` hold every kind, and the layers agree.

    A kind is exactly one of ``ERROR``, a request kind (a key of
    ``ANSWERS``, routed by a row of ``ShardRouter._PLANS``, answered by a
    provider with ``ANSWERS[kind]`` or ``ERROR``) and an answer kind (a key
    of ``ANSWER_CODECS``, whose codec re-encodes a real answer body byte for
    byte).
    """
    from repro.cluster import ShardRouter

    roles = (
        kind is MessageKind.ERROR, kind in protocol.ANSWERS, kind in protocol.ANSWER_CODECS
    )
    assert sum(roles) == 1, roles
    if kind in protocol.ANSWERS:
        assert kind in ShardRouter._PLANS
        kinds = {answer.kind for request, answer in provider_answers if request.kind is kind}
        assert protocol.ANSWERS[kind] in kinds, f"no {kind.value} request was answered"
        assert kinds <= {protocol.ANSWERS[kind], MessageKind.ERROR}
    if kind in protocol.ANSWER_CODECS:
        decode, encode = protocol.ANSWER_CODECS[kind]
        bodies = [answer.body for _, answer in provider_answers if answer.kind is kind]
        assert bodies, f"no provider answered with {kind.value}"
        for body in bodies:
            assert encode(decode(body)) == body
