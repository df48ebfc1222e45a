"""What one operation records: the contract every trace consumer relies on.

``span_inventory.json`` was written down from the tree *before* the span
mechanism was replaced (generator context managers -> self-timing slotted
spans): for every transport x index x cache combination, the multiset of
span names in ``fetch_trace()`` after each step of one fixed script, each
with the sorted *keys* of its annotations.  The mechanism may change; that
table may not.  It was re-declared once since, when each write became one
envelope: the write steps' ``provider.*`` span names and their request and
scatter counts changed, nothing else did.  Regenerate it (only when spans
are added on purpose, or requests are) with
``PYTHONPATH=src python tests/obs/test_span_inventory.py > tests/obs/span_inventory.json``.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import threading
from collections import Counter

import pytest

from repro.api import DatabaseError, EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.obs import Trace, histogram_summaries, new_trace_id

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(12)]
ONE = "SELECT * FROM Emp WHERE name = 'emp3'"
OTHER = "SELECT * FROM Emp WHERE name = 'emp4'"

TRANSPORTS = ("in-process", "tcp", "tcp-async", "cluster")
OPTIONS = tuple((index, cache) for index in (False, True) for cache in (False, True))

#: The script: (step, what it does to the session).
STEPS = (
    ("select", lambda db: db.select(ONE)),
    ("select again", lambda db: db.select(ONE)),
    ("select_many", lambda db: db.select_many([ONE, OTHER])),
    ("insert", lambda db: db.insert("Emp", ("emp99", "HR", 99))),
    ("update", lambda db: db.update(OTHER, {"salary": 7})),
    ("delete", lambda db: db.delete(ONE)),
)


@contextlib.contextmanager
def session(transport: str, index: bool, cache: bool):
    rng = DeterministicRng(23)
    key = SecretKey.generate(rng=rng)
    with contextlib.ExitStack() as stack:
        if transport == "in-process":
            db = EncryptedDatabase.open(key, rng=rng, index=index, cache=cache or None)
        else:
            ports = [
                stack.enter_context(ThreadedTcpServer()).port
                for _ in range(2 if transport == "cluster" else 1)
            ]
            hosts = ",".join(f"127.0.0.1:{port}" for port in ports)
            url = {
                "tcp": f"tcp://{hosts}",
                "tcp-async": f"tcp://{hosts}?async=1",
                "cluster": f"cluster://{hosts}?replicas=2",
            }[transport]
            db = EncryptedDatabase.connect(
                url, key, rng=rng, index=index, cache=cache or None
            )
        with db:
            db.create_table(EMP_DECL, rows=ROWS)
            yield db


def inventory(trace: dict) -> list[str]:
    """The trace's spans as sorted ``N x name{annotation keys}`` entries."""
    counted = Counter(
        span["name"] + "{" + ",".join(sorted(span["annotations"])) + "}"
        for span in trace["spans"]
    )
    return sorted(f"{n} x {entry}" for entry, n in counted.items())


def observed(transport: str, index: bool, cache: bool) -> dict:
    with session(transport, index, cache) as db:
        steps = {}
        for step, run in STEPS:
            run(db)
            steps[step] = inventory(db.fetch_trace())
        return steps


def _row(transport: str, index: bool, cache: bool) -> str:
    return f"{transport} index={int(index)} cache={int(cache)}"


EXPECTED = json.loads(
    pathlib.Path(__file__).with_name("span_inventory.json").read_text()
)


@pytest.mark.parametrize("index,cache", OPTIONS)
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_step_records_what_it_recorded_before(transport, index, cache):
    assert observed(transport, index, cache) == EXPECTED[_row(transport, index, cache)]


def _op_count(db, op_kind: str) -> int:
    return sum(
        s["count"]
        for s in histogram_summaries(db.metrics.snapshot())
        if s["name"] == "session_op_seconds" and s["labels"] == {"op_kind": op_kind}
    )


class TestTraceIds:
    def test_every_top_level_operation_mints_its_own_id(self):
        with session("in-process", True, True) as db:
            seen = []
            for _, run in STEPS:
                run(db)
                seen.append(db.last_trace_id)
                assert db.trace_buffer.get(bytes.fromhex(seen[-1])) is not None
        assert len(set(seen)) == len(STEPS)

    def test_a_nested_operation_joins_its_callers_trace(self):
        with session("in-process", False, False) as db:
            before = len(db.trace_buffer)
            assert db.update(OTHER, {"salary": 7}) == 1
            trace = db.fetch_trace()
            names = [span["name"] for span in trace["spans"]]
            # the update's inner insert is a plain span of the update's trace
            assert names.count("session.update") == 1
            assert names.count("session.insert") == 1
            assert len(db.trace_buffer) == before + 1
            assert trace["trace_id"] == db.last_trace_id
            # ...and is not timed as a session operation of its own
            assert _op_count(db, "update") == 1 and _op_count(db, "insert") == 0

    def test_a_raised_operation_still_files_its_trace_and_its_sample(self):
        with session("in-process", True, True) as db:
            previous = db.last_trace_id
            with pytest.raises(DatabaseError):
                db.select("SELECT * FROM Nope WHERE a = 1")
            assert db.last_trace_id != previous
            trace = db.fetch_trace()
            assert [span["name"] for span in trace["spans"]] == ["session.select"]
            assert _op_count(db, "select") == 1


def test_concurrent_spans_on_one_trace_lose_none():
    trace = Trace(new_trace_id())

    def worker(number: int) -> None:
        for i in range(500):
            with trace.span("work", thread=number) as entry:
                entry.annotations["i"] = i

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    spans = trace.spans
    assert len(spans) == 8 * 500
    assert Counter(s.annotations["thread"] for s in spans) == dict.fromkeys(range(8), 500)
    assert trace.duration_s() >= max(s.duration_s for s in spans)


if __name__ == "__main__":
    print(
        json.dumps(
            {
                _row(transport, index, cache): observed(transport, index, cache)
                for transport in TRANSPORTS
                for index, cache in OPTIONS
            },
            indent=1,
        )
    )
