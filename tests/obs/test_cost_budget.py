"""What the observability plane costs, counted -- not timed.

Two deterministic guards instead of a wall-clock assertion: nothing on a
request path hands out a generator-based context manager, and a warm cached
select makes a bounded number of Python-level calls.
"""

from __future__ import annotations

import contextlib
import sys

from repro.api import EncryptedDatabase
from repro.net import ThreadedTcpServer
from repro.net.client import ConnectionPool, RemoteConnection
from repro.obs import Trace, new_trace_id, span, use_trace

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(12)]
HIT = "SELECT * FROM Emp WHERE name = 'emp3'"

#: Python-level ``call`` events of one warm cached select: this tree's own
#: count (45; the generator-based plane made 67) plus 15 %.
WARM_SELECT_CALL_BUDGET = 51


def test_no_request_path_scope_is_a_generator_context_manager(secret_key, rng):
    trace = Trace(new_trace_id())
    with EncryptedDatabase.open(secret_key, rng=rng) as db, ThreadedTcpServer() as tcp:
        pool = ConnectionPool(lambda: RemoteConnection("127.0.0.1", tcp.port))
        scopes = {
            "Trace.span": trace.span("work"),
            "obs.span": span("work"),
            "use_trace": use_trace(trace),
            "_traced": db._traced("select"),
            "ConnectionPool.checkout": pool.checkout(),
        }
        for name, scope in scopes.items():
            assert not isinstance(scope, contextlib._GeneratorContextManager), name
            with scope:  # ...and each still is a context manager
                pass
        pool.close()


def test_a_warm_cached_select_stays_inside_its_call_budget(secret_key, rng):
    with EncryptedDatabase.open(secret_key, rng=rng, index=True, cache=True) as db:
        db.create_table(EMP_DECL, rows=ROWS)
        for _ in range(2):
            assert len(db.select(HIT).relation) == 1
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            db.select(HIT)
        finally:
            sys.setprofile(None)
        assert db.cache.stats()["hits"] == 2
        assert 0 < len(calls) <= WARM_SELECT_CALL_BUDGET, calls
