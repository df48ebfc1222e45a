"""The metrics core: registries, percentiles, merging and exposition."""

from __future__ import annotations

import copy
import threading

import pytest

from repro.obs import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    histogram_summaries,
    merge_snapshots,
    render_prometheus,
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

    def test_negative_quantile_is_rejected(self):
        with pytest.raises(ValueError, match="quantile"):
            MetricsRegistry().histogram("h").percentile(-0.1)

    def test_interpolation_is_linear_inside_one_bucket(self):
        buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        buckets[10] = 4
        lower, upper = BUCKET_BOUNDS[9], BUCKET_BOUNDS[10]
        assert percentile_from_buckets(buckets, 0.5) == pytest.approx((lower + upper) / 2)
        assert percentile_from_buckets(buckets, 0.25) == pytest.approx(
            lower + (upper - lower) / 4
        )

    def test_extreme_quantiles_are_the_edges_of_the_occupied_range(self):
        buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        buckets[5] = 1
        buckets[20] = 1
        assert percentile_from_buckets(buckets, 0.0) == BUCKET_BOUNDS[4]
        assert percentile_from_buckets(buckets, 1.0) == BUCKET_BOUNDS[20]

    def test_percentiles_are_monotone_in_the_quantile(self):
        histogram = MetricsRegistry().histogram("h")
        for step in range(1, 200):
            histogram.observe(step * 1e-4)
        readings = [histogram.percentile(q / 20) for q in range(21)]
        assert readings == sorted(readings)


class TestBuckets:
    @pytest.mark.parametrize("index", [0, 1, 10, 22, len(BUCKET_BOUNDS) - 1])
    def test_a_bound_files_into_the_bucket_it_closes(self, index):
        # Buckets are "le" buckets, as in Prometheus: a value equal to a
        # bound is counted in the bucket that bound closes.
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(BUCKET_BOUNDS[index])
        assert histogram.buckets[index] == 1
        assert histogram.count == 1

    @pytest.mark.parametrize(
        ("seconds", "index"),
        [
            (0.0, 0),
            (-1.0, 0),
            (1e9, len(BUCKET_BOUNDS)),
            (float("inf"), len(BUCKET_BOUNDS)),
            (float("nan"), len(BUCKET_BOUNDS)),
        ],
        ids=["zero", "negative", "huge", "inf", "nan"],
    )
    def test_out_of_range_values_file_at_the_edges(self, seconds, index):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(seconds)
        assert histogram.buckets[index] == 1
        assert sum(histogram.buckets) == 1

    def test_bounds_are_strictly_increasing(self):
        assert all(a < b for a, b in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]))
        assert BUCKET_BOUNDS[0] == pytest.approx(1e-5)
        assert 30.0 < BUCKET_BOUNDS[-1] < 120.0


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

    def test_merge_adds_gauges(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.gauge("connections_active", shard_id="0").set(2)
        two.gauge("connections_active", shard_id="0").set(5)
        two.gauge("connections_active", shard_id="1").set(1)
        merged = merge_snapshots(one.snapshot(), two.snapshot())
        by_shard = {g["labels"]["shard_id"]: g["value"] for g in merged["gauges"]}
        assert by_shard == {"0": 7, "1": 1}

    def test_merge_sums_histogram_sums_and_keeps_the_layout(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.histogram("lat").observe(0.001)
        two.histogram("lat").observe(0.5)
        merged = merge_snapshots(one.snapshot(), two.snapshot())
        assert merged["bucket_bounds"] == list(BUCKET_BOUNDS)
        (hist,) = merged["histograms"]
        assert hist["sum"] == pytest.approx(0.501)
        assert len(hist["buckets"]) == len(BUCKET_BOUNDS) + 1
        occupied = [i for i, n in enumerate(hist["buckets"]) if n]
        assert occupied == [
            one.histogram("lat").buckets.index(1),
            two.histogram("lat").buckets.index(1),
        ]

    def test_merge_does_not_mutate_its_inputs(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc(3)
        registry.histogram("lat").observe(0.01)
        snapshot = registry.snapshot()
        before = copy.deepcopy(snapshot)
        merge_snapshots(snapshot, snapshot, snapshot)
        assert snapshot == before

    def test_merge_matches_labels_regardless_of_their_order(self):
        one = {"counters": [{"name": "ops", "labels": {"a": "1", "b": "2"}, "value": 1}]}
        two = {"counters": [{"name": "ops", "labels": {"b": "2", "a": "1"}, "value": 4}]}
        merged = merge_snapshots(one, two)
        assert merged["counters"] == [
            {"name": "ops", "labels": {"a": "1", "b": "2"}, "value": 5}
        ]

    def test_merge_is_associative(self):
        registries = [MetricsRegistry() for _ in range(3)]
        for weight, registry in enumerate(registries, start=1):
            registry.counter("ops", op_kind="select").inc(weight)
            registry.histogram("lat").observe(weight * 0.001)
        a, b, c = (registry.snapshot() for registry in registries)
        assert merge_snapshots(merge_snapshots(a, b), c) == merge_snapshots(
            a, merge_snapshots(b, c)
        )

    def test_summary_of_an_empty_histogram_is_all_zero(self):
        registry = MetricsRegistry()
        registry.histogram("idle_seconds")
        (summary,) = histogram_summaries(registry.snapshot())
        assert summary["count"] == 0
        assert summary["mean"] == 0.0
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.0

    def test_summaries_of_a_merged_snapshot_see_every_shard(self):
        fast, slow = MetricsRegistry(), MetricsRegistry()
        for _ in range(90):
            fast.histogram("lat").observe(0.001)
        for _ in range(10):
            slow.histogram("lat").observe(1.0)
        (summary,) = histogram_summaries(merge_snapshots(fast.snapshot(), slow.snapshot()))
        assert summary["count"] == 100
        assert summary["p50"] < 0.002
        assert summary["p99"] > 0.5

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

    def test_metric_and_label_names_are_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits-total", **{"relation": "Emp"}).inc(2)
        lines = registry.render_prometheus().splitlines()
        assert "# TYPE cache_hits_total counter" in lines
        assert 'cache_hits_total{relation="Emp"} 2' in lines

    def test_one_type_line_per_family(self):
        registry = MetricsRegistry()
        for kind in ("select", "insert", "delete"):
            registry.counter("ops_total", op_kind=kind).inc()
            registry.histogram("op_seconds", op_kind=kind).observe(0.001)
        lines = registry.render_prometheus().splitlines()
        assert lines.count("# TYPE ops_total counter") == 1
        assert lines.count("# TYPE op_seconds histogram") == 1
        assert sum(line.startswith("ops_total{") for line in lines) == 3

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        for seconds in (0.0001, 0.001, 0.01, 0.1, 1000.0):
            registry.histogram("lat").observe(seconds)
        lines = registry.render_prometheus().splitlines()
        counts = [int(l.rsplit(" ", 1)[1]) for l in lines if l.startswith("lat_bucket")]
        assert counts == sorted(counts)
        # The overflow observation is only in +Inf.
        assert counts[-2:] == [4, 5]
        assert "lat_count 5" in lines

    def test_an_empty_snapshot_renders_an_empty_exposition(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == "\n"
        assert render_prometheus({}) == "\n"
