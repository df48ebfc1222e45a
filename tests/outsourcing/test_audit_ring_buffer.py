"""The audit log's optional ring-buffer cap and its event record."""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro.outsourcing.audit import AuditEvent, AuditEventKind, ServerAuditLog


class TestAuditEvent:
    def test_a_slotted_record_with_the_same_fields(self):
        log = ServerAuditLog()
        event = log.record(AuditEventKind.QUERY_EXECUTED, "Emp", result_size=3)
        assert not hasattr(event, "__dict__")
        assert (event.kind, event.relation_name, event.detail) == (
            AuditEventKind.QUERY_EXECUTED, "Emp", {"result_size": 3},
        )
        assert event.timestamp > 0
        assert event == AuditEvent(
            AuditEventKind.QUERY_EXECUTED, "Emp", {"result_size": 3}, event.timestamp
        )
        assert AuditEvent(AuditEventKind.TUPLES_INSERTED, "Emp").detail == {}


class TestRingBuffer:
    def test_unbounded_by_default(self):
        log = ServerAuditLog()
        assert log.max_events is None
        for i in range(1000):
            log.record(AuditEventKind.QUERY_EXECUTED, "Emp", result_size=i)
        assert len(log) == 1000
        assert log.dropped_events == 0

    def test_cap_keeps_the_newest_events(self):
        log = ServerAuditLog(max_events=10)
        for i in range(25):
            log.record(AuditEventKind.QUERY_EXECUTED, "Emp", result_size=i)
        assert len(log) == 10
        assert log.dropped_events == 15
        assert [e.detail["result_size"] for e in log.events] == list(range(15, 25))

    def test_cap_not_reached_drops_nothing(self):
        log = ServerAuditLog(max_events=10)
        for i in range(7):
            log.record(AuditEventKind.TUPLES_INSERTED, "Emp")
        assert len(log) == 7
        assert log.dropped_events == 0

    def test_summary_and_result_sizes_read_the_retained_window(self):
        log = ServerAuditLog(max_events=3)
        log.record(AuditEventKind.TUPLES_INSERTED, "Emp", tuple_count=5)
        for size in (1, 2, 3):
            log.record(AuditEventKind.QUERY_EXECUTED, "Emp", result_size=size)
        assert log.summary()["query-executed"] == 3
        assert log.summary()["tuples-inserted"] == 0  # evicted
        assert log.query_result_sizes("Emp") == [1, 2, 3]

    @pytest.mark.parametrize("cap", [None, 1, 7, 50])
    def test_summary_equals_a_recount_after_the_ring_wraps(self, cap):
        kinds = list(AuditEventKind)
        log = ServerAuditLog(max_events=cap)
        draw = random.Random(cap)
        for i in range(537):
            log.record(draw.choice(kinds), draw.choice(["Emp", "Dept"]), i=i)
        recount = {kind.value: 0 for kind in kinds}
        for event in log.events:
            recount[event.kind.value] += 1
        assert log.summary() == recount
        assert sum(recount.values()) == len(log)
        assert log.dropped_events == (0 if cap is None else 537 - cap)

    def test_summary_stays_exact_under_concurrent_recording(self):
        log = ServerAuditLog(max_events=64)
        kinds = list(AuditEventKind)
        barrier = threading.Barrier(5)
        writing = threading.Event()
        read_errors = []

        def worker(offset: int) -> None:
            barrier.wait()
            for i in range(2_000):
                log.record(kinds[(i + offset) % len(kinds)], "Emp")

        def reader() -> None:
            barrier.wait()
            while writing.is_set():
                try:
                    log.events_of_kind(AuditEventKind.QUERY_EXECUTED)
                except RuntimeError as exc:  # deque mutated during iteration
                    read_errors.append(exc)

        writing.set()
        watcher = threading.Thread(target=reader)
        watcher.start()
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            writing.clear()
            watcher.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert read_errors == []
        recount = {kind.value: 0 for kind in kinds}
        for event in log.events:
            recount[event.kind.value] += 1
        assert log.summary() == recount
        assert log.dropped_events == 4 * 2_000 - 64

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            ServerAuditLog(max_events=0)
        with pytest.raises(ValueError):
            ServerAuditLog(max_events=-5)
