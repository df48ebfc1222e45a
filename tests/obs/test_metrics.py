"""The metrics core: registries, percentiles, merging and exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    aggregate_snapshot,
    histogram_summaries,
    merge_snapshots,
    render_prometheus,
    snapshot_delta,
)
from repro.obs.metrics import percentile_from_buckets


class TestRegistry:
    def test_counter_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", op_kind="select")
        counter.inc()
        counter.inc(2)
        assert registry.counter("requests_total", op_kind="select") is counter
        assert counter.value == 3

    def test_label_sets_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("ops", op_kind="select").inc()
        registry.counter("ops", op_kind="insert").inc(5)
        assert registry.counter("ops", op_kind="select").value == 1
        assert registry.counter("ops", op_kind="insert").value == 5

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        one = registry.counter("ops", a="1", b="2")
        two = registry.counter("ops", b="2", a="1")
        assert one is two

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("thing")
        with pytest.raises(ValueError, match="is a counter"):
            registry.histogram("thing")

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="counters only go up"):
            registry.counter("n").inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("active")
        gauge.inc()
        gauge.inc()
        gauge.dec()
        assert gauge.value == 1
        gauge.set(17)
        assert gauge.value == 17

    def test_a_function_gauge_is_computed_at_every_reading(self):
        registry = MetricsRegistry()
        items: list = []
        registry.gauge("items").set_function(lambda: len(items))
        assert registry.gauge("items").value == 0
        items.extend("ab")
        assert registry.gauge("items").value == 2
        assert registry.snapshot()["gauges"] == [
            {"name": "items", "labels": {}, "value": 2}
        ]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", x="1").inc()
        registry.gauge("g").set(2)
        registry.histogram("h").observe(0.001)
        snapshot = registry.snapshot()
        assert snapshot["bucket_bounds"] == list(BUCKET_BOUNDS)
        assert snapshot["counters"] == [{"name": "c", "labels": {"x": "1"}, "value": 1}]
        assert snapshot["gauges"] == [{"name": "g", "labels": {}, "value": 2}]
        (hist,) = snapshot["histograms"]
        assert hist["count"] == 1
        assert hist["sum"] == pytest.approx(0.001)
        assert sum(hist["buckets"]) == 1
        assert len(hist["buckets"]) == len(BUCKET_BOUNDS) + 1

    def test_concurrent_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammered")
        histogram = registry.histogram("timed")
        rounds = 2_000

        def worker():
            for _ in range(rounds):
                counter.inc()
                histogram.observe(0.0001)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8 * rounds
        assert histogram.count == 8 * rounds


class TestPercentiles:
    def test_empty_histogram_reports_zero(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.percentile(0.5) == 0.0

    def test_quantile_bounds_are_validated(self):
        with pytest.raises(ValueError, match="quantile"):
            percentile_from_buckets([1] * (len(BUCKET_BOUNDS) + 1), 1.5)

    def test_percentiles_bracket_the_observations(self):
        histogram = MetricsRegistry().histogram("h")
        for _ in range(95):
            histogram.observe(0.001)
        for _ in range(5):
            histogram.observe(0.5)
        p50 = histogram.percentile(0.50)
        p99 = histogram.percentile(0.99)
        # p50 lands in the bucket holding 1ms, p99 in the one holding 500ms.
        assert 0.0005 <= p50 <= 0.002
        assert 0.3 <= p99 <= 0.7
        assert p50 < p99

    def test_overflow_bucket_reports_the_top_bound(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(10_000.0)
        assert histogram.percentile(0.99) == BUCKET_BOUNDS[-1]


class TestMergeAndExposition:
    def test_merge_sums_counters_and_buckets(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.counter("ops", op_kind="select").inc(2)
        two.counter("ops", op_kind="select").inc(3)
        two.counter("ops", op_kind="insert").inc()
        one.histogram("lat").observe(0.001)
        two.histogram("lat").observe(0.001)
        merged = merge_snapshots(one.snapshot(), two.snapshot())
        by_key = {
            (c["name"], c["labels"].get("op_kind")): c["value"]
            for c in merged["counters"]
        }
        assert by_key[("ops", "select")] == 5
        assert by_key[("ops", "insert")] == 1
        (hist,) = merged["histograms"]
        assert hist["count"] == 2
        assert sum(hist["buckets"]) == 2

    def test_merge_tolerates_empty_snapshots(self):
        merged = merge_snapshots({}, None, MetricsRegistry().snapshot())
        assert merged["counters"] == []

    def test_summaries_expose_p50_p95_p99(self):
        registry = MetricsRegistry()
        for _ in range(100):
            registry.histogram("lat", op_kind="select").observe(0.002)
        (summary,) = histogram_summaries(registry.snapshot())
        assert summary["name"] == "lat"
        assert summary["labels"] == {"op_kind": "select"}
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(0.002)
        for quantile in ("p50", "p95", "p99"):
            assert 0.001 <= summary[quantile] <= 0.004

    def test_prometheus_rendering_is_parseable(self):
        registry = MetricsRegistry()
        registry.counter("server_frames_total", direction="in").inc(7)
        registry.gauge("connections_active").set(3)
        registry.histogram("op_seconds", op_kind="select").observe(0.01)
        text = registry.render_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE server_frames_total counter" in lines
        assert 'server_frames_total{direction="in"} 7' in lines
        assert "connections_active 3" in lines
        # histogram series: cumulative buckets, +Inf, _sum, _count
        bucket_lines = [l for l in lines if l.startswith("op_seconds_bucket")]
        assert len(bucket_lines) == len(BUCKET_BOUNDS) + 1
        assert any('le="+Inf"' in l for l in bucket_lines)
        assert bucket_lines[-1].endswith(" 1")
        assert 'op_seconds_count{op_kind="select"} 1' in lines
        # every sample line is "name{labels} value" with a numeric value
        for line in lines:
            if line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", path='a"b\\c\nd').inc()
        text = registry.render_prometheus()
        assert '\\"' in text and "\\\\" in text and "\\n" in text

    def test_aggregate_snapshot_sees_live_registries(self):
        registry = MetricsRegistry()
        registry.counter("aggregate_probe_total").inc(41)
        merged = aggregate_snapshot()
        probes = [
            c for c in merged["counters"] if c["name"] == "aggregate_probe_total"
        ]
        assert probes and probes[0]["value"] >= 41


class TestSnapshotDelta:
    def test_counter_delta_is_the_window_activity(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", op_kind="select").inc(5)
        before = registry.snapshot()
        registry.counter("ops_total", op_kind="select").inc(3)
        delta = snapshot_delta(before, registry.snapshot())
        entries = [c for c in delta["counters"] if c["name"] == "ops_total"]
        assert entries == [
            {"name": "ops_total", "labels": {"op_kind": "select"}, "value": 3}
        ]

    def test_idle_instruments_are_dropped(self):
        registry = MetricsRegistry()
        registry.counter("idle_total").inc(7)
        registry.histogram("idle_seconds").observe(0.1)
        before = registry.snapshot()
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"] == []
        assert delta["histograms"] == []

    def test_histogram_delta_subtracts_buckets_count_and_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("op_seconds", op_kind="select")
        histogram.observe(0.001)
        before = registry.snapshot()
        histogram.observe(0.002)
        histogram.observe(0.004)
        delta = snapshot_delta(before, registry.snapshot())
        entry = delta["histograms"][0]
        assert entry["count"] == 2
        assert entry["sum"] == pytest.approx(0.006)
        assert sum(entry["buckets"]) == 2
        summaries = histogram_summaries(delta)
        assert summaries[0]["count"] == 2

    def test_instruments_born_inside_the_window_pass_through(self):
        registry = MetricsRegistry()
        before = registry.snapshot()
        registry.counter("fresh_total").inc(2)
        registry.histogram("fresh_seconds").observe(0.01)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["counters"][0]["value"] == 2
        assert delta["histograms"][0]["count"] == 1

    def test_gauges_keep_their_point_in_time_reading(self):
        registry = MetricsRegistry()
        registry.gauge("active").set(9)
        before = registry.snapshot()
        registry.gauge("active").set(4)
        delta = snapshot_delta(before, registry.snapshot())
        assert delta["gauges"] == [{"name": "active", "labels": {}, "value": 4}]

    def test_dead_registry_shrinkage_clamps_at_zero(self):
        # A registry that dies between the snapshots makes the merged
        # "after" smaller than "before"; the delta must not go negative.
        survivor = MetricsRegistry()
        survivor.counter("ops_total").inc(1)
        doomed = MetricsRegistry()
        doomed.counter("ops_total").inc(100)
        doomed.histogram("op_seconds").observe(0.5)
        before = merge_snapshots(survivor.snapshot(), doomed.snapshot())
        survivor.counter("ops_total").inc(2)
        delta = snapshot_delta(before, survivor.snapshot())
        entries = [c for c in delta["counters"] if c["name"] == "ops_total"]
        assert entries == []  # 3 - 101 clamps to zero and is dropped
        assert delta["histograms"] == []

    def test_delta_scopes_one_benchmark_among_many(self):
        # The conftest bleed scenario: benchmark 1's histograms must not
        # appear in benchmark 2's delta.
        registry = MetricsRegistry()
        registry.histogram("op_seconds", op_kind="select").observe(0.1)
        baseline = aggregate_snapshot()
        registry.histogram("op_seconds", op_kind="insert").observe(0.2)
        delta = snapshot_delta(baseline, aggregate_snapshot())
        kinds = {
            entry["labels"].get("op_kind")
            for entry in delta["histograms"]
            if entry["name"] == "op_seconds"
        }
        assert "insert" in kinds
        assert "select" not in kinds
