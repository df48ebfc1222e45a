"""Trace primitives: ids, spans, the ambient trace, retention buffers."""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.obs import (
    AMBIENT_TRACE,
    TRACE_ID_SIZE,
    SlowQueryLog,
    Span,
    Trace,
    TraceBuffer,
    new_trace_id,
    span,
)

current_trace = AMBIENT_TRACE.get


@contextlib.contextmanager
def use_trace(trace: Trace | None):
    """Bind ``trace`` as the ambient trace for the ``with`` block, the way a
    session operation's root span binds its own."""
    token = AMBIENT_TRACE.set(trace)
    try:
        yield trace
    finally:
        AMBIENT_TRACE.reset(token)


class TestTrace:
    def test_ids_are_sixteen_random_bytes(self):
        one, two = new_trace_id(), new_trace_id()
        assert len(one) == TRACE_ID_SIZE == 16
        assert one != two

    def test_short_id_is_rejected(self):
        with pytest.raises(ValueError, match="16 bytes"):
            Trace(b"short")

    def test_span_context_manager_times_the_block(self):
        trace = Trace(new_trace_id())
        with trace.span("work", relation="Emp") as entry:
            entry.annotations["rows"] = 3
        (recorded,) = trace.spans
        assert recorded.name == "work"
        assert recorded.annotations == {"relation": "Emp", "rows": 3}
        assert recorded.start_s > 0
        assert recorded.duration_s >= 0

    def test_record_appends_pre_timed_spans(self):
        trace = Trace(new_trace_id())
        trace.record("shard.request", 100.0, 0.25, shard_id="s0")
        trace.record("shard.request", 100.1, -1.0, shard_id="s1")
        spans = trace.spans
        assert spans[0].duration_s == 0.25
        assert spans[1].duration_s == 0.0  # clamped, never negative

    def test_as_dict_sorts_spans_and_reports_extent(self):
        trace = Trace(new_trace_id())
        trace.record("late", 10.0, 0.5)
        trace.record("early", 9.0, 0.1)
        payload = trace.as_dict()
        assert [s["name"] for s in payload["spans"]] == ["early", "late"]
        assert payload["duration_s"] == pytest.approx(1.5)  # 9.0 .. 10.5
        assert payload["trace_id"] == trace.trace_id.hex()


class TestAmbientTrace:
    def test_untraced_by_default(self):
        assert current_trace() is None

    def test_use_trace_binds_and_restores(self):
        trace = Trace(new_trace_id())
        with use_trace(trace):
            assert current_trace() is trace
        assert current_trace() is None

    def test_use_trace_accepts_none(self):
        with use_trace(None):
            assert current_trace() is None

    def test_nested_bind_shadows_and_unwinds(self):
        outer, inner = Trace(new_trace_id()), Trace(new_trace_id())
        with use_trace(outer):
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer

    def test_module_span_records_on_the_ambient_trace(self):
        trace = Trace(new_trace_id())
        with use_trace(trace):
            with span("cache.lookup", examined=7):
                pass
        (recorded,) = trace.spans
        assert recorded.name == "cache.lookup"
        assert recorded.annotations == {"examined": 7}

    def test_module_span_is_a_noop_when_untraced(self):
        with span("ignored") as entry:
            assert isinstance(entry, Span)
            entry.annotations["still"] = "settable"
        assert current_trace() is None

    def test_threads_do_not_inherit_the_binding(self):
        seen = []
        trace = Trace(new_trace_id())

        def probe():
            seen.append(current_trace())

        with use_trace(trace):
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
        assert seen == [None]


class TestTraceBuffer:
    def test_records_and_fetches_by_id(self):
        buffer = TraceBuffer()
        trace = Trace(new_trace_id())
        trace.record("op", 1.0, 0.1)
        buffer.record(trace)
        fetched = buffer.get(trace.trace_id)
        assert fetched is not None
        assert fetched["spans"][0]["name"] == "op"
        assert buffer.get(new_trace_id()) is None

    def test_same_id_merges_spans(self):
        buffer = TraceBuffer()
        tid = new_trace_id()
        first, second = Trace(tid), Trace(tid)
        first.record("client", 1.0, 0.2)
        second.record("server", 1.05, 0.1)
        buffer.record(first)
        buffer.record(second)
        assert len(buffer) == 1
        fetched = buffer.get(tid)
        assert sorted(s["name"] for s in fetched["spans"]) == ["client", "server"]

    def test_bounded_eviction_drops_the_oldest(self):
        buffer = TraceBuffer(max_traces=2)
        traces = [Trace(new_trace_id()) for _ in range(3)]
        for trace in traces:
            buffer.record(trace)
        assert len(buffer) == 2
        assert buffer.get(traces[0].trace_id) is None
        assert buffer.get(traces[2].trace_id) is not None

    def test_recent_is_newest_first(self):
        buffer = TraceBuffer()
        traces = [Trace(new_trace_id()) for _ in range(3)]
        for trace in traces:
            buffer.record(trace)
        recent = buffer.recent(limit=2)
        assert [t["trace_id"] for t in recent] == [
            traces[2].trace_id.hex(),
            traces[1].trace_id.hex(),
        ]

    def test_recent_honours_every_count(self):
        buffer = TraceBuffer()
        traces = [Trace(new_trace_id()) for _ in range(5)]
        for trace in traces:
            buffer.record(trace)
        newest_first = [t.trace_id.hex() for t in reversed(traces)]
        for limit in (0, 1, 4, 5, 9):
            assert [t["trace_id"] for t in buffer.recent(limit)] == newest_first[:limit]

    @pytest.mark.parametrize("limit", [-1, -2, -5])
    def test_a_negative_limit_is_refused(self, limit):
        buffer = TraceBuffer()
        for _ in range(5):
            buffer.record(Trace(new_trace_id()))
        with pytest.raises(ValueError, match="limit"):
            buffer.recent(limit)

    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TraceBuffer(max_traces=0)


class TestSlowQueryLog:
    def _trace_lasting(self, seconds: float) -> Trace:
        trace = Trace(new_trace_id())
        trace.record("session.select", 100.0, seconds)
        return trace

    def test_fast_traces_are_not_logged(self):
        log = SlowQueryLog(threshold_s=0.5)
        assert log.observe(self._trace_lasting(0.1)) is False
        assert len(log) == 0

    def test_slow_traces_are_logged_with_their_anatomy(self):
        log = SlowQueryLog(threshold_s=0.5)
        trace = self._trace_lasting(0.9)
        assert log.observe(trace) is True
        (entry,) = log.entries()
        assert entry["trace_id"] == trace.trace_id.hex()
        assert entry["duration_s"] == pytest.approx(0.9)
        assert entry["spans"] == ["session.select"]

    def test_entries_are_bounded_and_newest_first(self):
        log = SlowQueryLog(threshold_s=0.0, max_entries=2)
        traces = [self._trace_lasting(0.1 * (i + 1)) for i in range(3)]
        for trace in traces:
            log.observe(trace)
        entries = log.entries()
        assert len(entries) == 2
        assert entries[0]["trace_id"] == traces[2].trace_id.hex()

    def test_entries_honour_every_count(self):
        log = SlowQueryLog(threshold_s=0.0)
        traces = [self._trace_lasting(0.1) for _ in range(5)]
        for trace in traces:
            log.observe(trace)
        newest_first = [t.trace_id.hex() for t in reversed(traces)]
        for limit in (0, 1, 4, 5, 9):
            assert [e["trace_id"] for e in log.entries(limit)] == newest_first[:limit]
        with pytest.raises(ValueError, match="limit"):
            log.entries(-2)
