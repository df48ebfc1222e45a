"""A hostile deploy is an ``ERROR`` on a connection that lives on.

A deploy (``REGISTER_EVALUATOR``) body is the relation's schema declaration,
length-prefixed, then the evaluator's JSON description; the provider parses
both and creates the relation.  Bodies are drawn three ways: any bytes; a
truncated or hostile declaration before a good description; and a good
declaration before a description of the wrong type (any JSON value that is
not an object naming a registered evaluator type, or bytes that are not
JSON).  Every draw is answered ``ERROR`` -- never an escaped exception --
in-process and over one ``tcp://`` connection that then still deploys, and
no draw leaves a relation behind.  The module runs once per kernel path
(the ``match_kernel`` fixture).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from provider_calls import server_counts

from repro.crypto.keys import SecretKey
from repro.net import RemoteServerProxy, ThreadedTcpServer
from repro.outsourcing import MessageKind, MessageV2, OutsourcedDatabaseServer
from repro.outsourcing.evaluators import describe_evaluator
from repro.outsourcing.protocol import encode_deploy, encode_evaluator_description, parse_message
from repro.relational import RelationSchema
from repro.schemes.plaintext import PlaintextDph

pytestmark = pytest.mark.usefixtures("match_kernel")

DECLARATION = b"Emp(name:string[14], dept:string[5], salary:int[6])"
SCHEMA = RelationSchema.parse(DECLARATION.decode())
DESCRIPTION = describe_evaluator(PlaintextDph(SCHEMA, SecretKey.generate()).server_evaluator())
GOOD = encode_deploy(SCHEMA, DESCRIPTION)
HOSTILE_DECLARATIONS = [
    b"", b"garbage", b"Emp()", b"Emp(name:blob[3])", b"Emp(name:string)",
    b"Emp(name:string[x])", b"Emp(na-me:string[3])", b"Emp(a:int, a:int)",
    b"Emp(name:string[3])\xff", b"Emp(" * 5_000, b"(" * 20_000 + b")" * 20_000,
    b"Emp(a:int[" + b"9" * 5_000 + b"])",
]


def _prefixed(declaration: bytes) -> bytes:
    return len(declaration).to_bytes(4, "big") + declaration


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
#: A description of the wrong type: not an object naming an evaluator type.
wrong_descriptions = st.one_of(
    json_values.filter(lambda value: not isinstance(value, dict) or "type" not in value)
    .map(lambda value: json.dumps(value).encode()),
    st.sampled_from(["", "nope", None, 7, ["searchable"], {"t": 1}]).map(
        lambda tag: encode_evaluator_description({"type": tag})
    ),
    st.binary(max_size=32).filter(lambda raw: not raw.strip().startswith(b"{")),
    st.just(b"[" * 100_000),
)
bodies = st.one_of(
    st.binary(max_size=96),
    # A declaration cut anywhere, its prefix still claiming the whole.
    st.integers(0, len(_prefixed(DECLARATION)) - 1).map(lambda cut: GOOD[:cut]),
    st.integers(0, len(DECLARATION) - 1).map(
        lambda cut: _prefixed(DECLARATION[:cut]) + encode_evaluator_description(DESCRIPTION)
    ),
    st.sampled_from(HOSTILE_DECLARATIONS).map(
        lambda declaration: _prefixed(declaration) + encode_evaluator_description(DESCRIPTION)
    ),
    wrong_descriptions.map(lambda description: _prefixed(DECLARATION) + description),
)


def _deploy(provider, body: bytes) -> MessageKind:
    raw = MessageV2(MessageKind.REGISTER_EVALUATOR, "Emp", body).to_bytes()
    return parse_message(provider.handle_message(raw)).kind


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@FUZZ
@given(body=bodies)
def test_a_hostile_deploy_is_an_error_in_process(body):
    provider = OutsourcedDatabaseServer()
    assert _deploy(provider, body) is MessageKind.ERROR
    assert provider.relation_names == ()
    assert _deploy(provider, GOOD) is MessageKind.ACK
    assert provider.relation_names == ("Emp",)


@pytest.fixture(scope="module")
def served(match_kernel):
    provider = OutsourcedDatabaseServer()
    with ThreadedTcpServer(provider) as server:
        proxy = RemoteServerProxy("127.0.0.1", server.port, pool_size=1, timeout=30)
        try:
            yield server, provider, proxy
        finally:
            proxy.close()


@FUZZ
@given(body=bodies)
def test_a_hostile_deploy_is_an_error_on_a_live_connection(served, body):
    server, provider, proxy = served
    assert _deploy(proxy, body) is MessageKind.ERROR
    assert provider.relation_names == ()
    assert server_counts(server.server)["connections_total"] == 1


def test_the_connection_then_still_deploys(served):
    server, provider, proxy = served
    assert _deploy(proxy, GOOD) is MessageKind.ACK
    assert provider.relation_names == ("Emp",)
    assert server_counts(server.server)["connections_total"] == 1
