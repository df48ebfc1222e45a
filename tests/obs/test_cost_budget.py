"""What the observability plane costs, counted -- not timed.

Deterministic guards instead of a wall-clock assertion: nothing on a
request path hands out a generator-based context manager, and a warm cached
select and a traced indexed lookup at the provider each make a bounded
number of Python-level calls.
"""

from __future__ import annotations

import contextlib
import sys

from provider_calls import cache_counts
from repro.api import EncryptedDatabase
from repro.api.database import _TracedOperation
from repro.obs import Trace, new_trace_id, span
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageKind, attach_trace, parse_message

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(12)]
HIT = "SELECT * FROM Emp WHERE name = 'emp3'"

#: Python-level ``call`` events of one warm cached select: this tree's own
#: count (34; 45 before the root span became the trace binding, and the
#: generator-based plane made 67) plus 15 %.
WARM_SELECT_CALL_BUDGET = 39

#: Python-level ``call`` events of one traced ``INDEX_LOOKUP`` envelope
#: through ``OutsourcedDatabaseServer.handle_message``: this tree's own count
#: (82; 112 when a request filed three spans) plus 15 %.
TRACED_LOOKUP_CALL_BUDGET = 94


def test_no_request_path_scope_is_a_generator_context_manager(secret_key, rng):
    trace = Trace(new_trace_id())
    with EncryptedDatabase.open(secret_key, rng=rng) as db:
        scopes = {
            "Trace.span": trace.span("work"),
            "obs.span": span("work"),
            "_TracedOperation": _TracedOperation(db, "select"),
        }
        for name, scope in scopes.items():
            assert not isinstance(scope, contextlib._GeneratorContextManager), name
            with scope:  # ...and each still is a context manager
                pass


def _calls(run) -> list[str]:
    """The Python-level functions ``run()`` calls, in call order."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_a_warm_cached_select_stays_inside_its_call_budget(secret_key, rng):
    with EncryptedDatabase.open(secret_key, rng=rng, index=True, cache=True) as db:
        db.create_table(EMP_DECL, rows=ROWS)
        for _ in range(2):
            assert len(db.select(HIT).relation) == 1
        calls = _calls(lambda: db.select(HIT))
        assert cache_counts(db)["hits_total"] == 2
        assert 0 < len(calls) <= WARM_SELECT_CALL_BUDGET, calls


class _Recording(OutsourcedDatabaseServer):
    """Keeps every envelope it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.received: list[bytes] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.received.append(raw)
        return super().handle_message(raw)


def test_a_traced_index_lookup_stays_inside_its_call_budget(secret_key, rng):
    provider = _Recording()
    with EncryptedDatabase.open(secret_key, server=provider, rng=rng, index=True) as db:
        db.create_table(EMP_DECL, rows=ROWS)
        db.select(HIT)
    (lookup,) = [
        raw for raw in provider.received
        if parse_message(raw).kind is MessageKind.INDEX_LOOKUP
    ]
    traced = attach_trace(lookup, new_trace_id())
    answer = OutsourcedDatabaseServer.handle_message(provider, traced)  # warm
    assert parse_message(answer).kind is MessageKind.QUERY_RESULT
    calls = _calls(lambda: OutsourcedDatabaseServer.handle_message(provider, traced))
    assert len(provider.trace_buffer) == 1  # one trace id, merged
    assert 0 < len(calls) <= TRACED_LOOKUP_CALL_BUDGET, calls
