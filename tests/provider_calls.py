"""The provider operations tests call directly, each spelled as its envelope.

A provider, a ``tcp://`` proxy and a shard router all answer one surface,
``handle_message``; a test that pokes one directly sends the operation's
envelope through :func:`repro.outsourcing.request`, which returns the
answer decoded as ``protocol.ANSWERS`` declares it.  A refusal raises
``error`` (``ServerError`` unless the caller says otherwise).  Lives next
to ``tests/conftest.py``, which puts this directory on ``sys.path``.
"""

from __future__ import annotations

from repro.outsourcing import MessageKind, ServerError, protocol, request
from repro.outsourcing.evaluators import describe_evaluator


def _send(provider, kind, name, body=b"", error=ServerError):
    return request(provider, kind, name, body, error=error)


def relation_names(provider, error=ServerError) -> tuple[str, ...]:
    return _send(provider, MessageKind.RELATION_NAMES, "", error=error)


def stored_relation(provider, name: str, error=ServerError):
    return _send(provider, MessageKind.FETCH_RELATION, name, error=error).matching


def tuple_count(provider, name: str, error=ServerError) -> int:
    return _send(provider, MessageKind.TUPLE_COUNT, name, error=error)


def drop_relation(provider, name: str, error=ServerError) -> None:
    _send(provider, MessageKind.DROP_RELATION, name, error=error)


def register_evaluator(provider, name: str, evaluator, error=ServerError) -> None:
    body = protocol.encode_evaluator_description(describe_evaluator(evaluator))
    _send(provider, MessageKind.REGISTER_EVALUATOR, name, body, error=error)


def store_relation(provider, name: str, relation, evaluator, error=ServerError) -> None:
    register_evaluator(provider, name, evaluator, error=error)
    body = protocol.encode_encrypted_relation(relation)
    _send(provider, MessageKind.STORE_RELATION, name, body, error=error)


def insert_tuples(provider, name: str, encrypted_tuples, postings=b"", error=ServerError) -> int:
    body = protocol.encode_insert_tuples(postings, list(encrypted_tuples))
    return _send(provider, MessageKind.INSERT_TUPLES, name, body, error=error)


def execute_query(provider, name: str, encrypted_query, error=ServerError):
    body = protocol.encode_encrypted_query(encrypted_query)
    return _send(provider, MessageKind.QUERY, name, body, error=error)


def execute_batch(provider, name: str, encrypted_queries, error=ServerError) -> list:
    body = protocol.encode_query_batch(encrypted_queries)
    return list(_send(provider, MessageKind.BATCH_QUERY, name, body, error=error))


def delete_tuples(provider, name: str, tuple_ids, postings=b"", error=ServerError) -> tuple:
    body = protocol.encode_delete_tuples(list(tuple_ids), postings)
    return _send(provider, MessageKind.DELETE_TUPLES, name, body, error=error)


def list_tuple_ids(provider, name: str, error=ServerError) -> tuple:
    return _send(provider, MessageKind.LIST_TUPLE_IDS, name, error=error)
