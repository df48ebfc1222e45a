"""The per-request half of the metrics core: resolve, observe, scrape.

An instrument is resolved once per spelling of its label set, a duration is
bucketed by bisection, and a histogram is snapshotted under one lock
acquisition -- none of which may change what a registry reports.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.obs import BUCKET_BOUNDS, MetricsRegistry
from repro.obs.metrics import _bucket_index


class _CountingLock:
    def __init__(self, lock) -> None:
        self._lock = lock
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestResolution:
    def test_a_repeated_spelling_is_resolved_without_the_registry_lock(self):
        registry = MetricsRegistry()
        registry._lock = lock = _CountingLock(registry._lock)
        first = registry.histogram("op_seconds", op_kind="select", relation="Emp")
        assert lock.acquisitions == 1
        for _ in range(10):
            again = registry.histogram("op_seconds", op_kind="select", relation="Emp")
            assert again is first
        assert lock.acquisitions == 1

    def test_every_spelling_of_one_label_set_is_one_instrument(self):
        registry = MetricsRegistry()
        one = registry.counter("ops", a="1", b="2")
        for _ in range(2):  # cold, then memoised
            assert registry.counter("ops", b="2", a="1") is one
            assert registry.counter("ops", a="1", b="2") is one
        assert len(registry.snapshot()["counters"]) == 1

    def test_equal_values_of_different_types_keep_their_own_spelling(self):
        # 1 == True == 1.0 hash alike but spell "1" / "True" / "1.0".
        registry = MetricsRegistry()
        for _ in range(2):
            registry.counter("ops", shard="1").inc()
            registry.counter("ops", shard=1).inc()
            registry.counter("ops", shard=True).inc()
            registry.counter("ops", shard=1.0).inc()
        values = {c["labels"]["shard"]: c["value"] for c in registry.snapshot()["counters"]}
        assert values == {"1": 4, "True": 2, "1.0": 2}

    def test_a_memoised_name_still_refuses_another_kind(self):
        registry = MetricsRegistry()
        for _ in range(2):
            registry.counter("thing", relation="Emp")
        for _ in range(2):
            with pytest.raises(ValueError, match="is a counter"):
                registry.histogram("thing", relation="Emp")

    def test_concurrent_first_resolutions_agree(self):
        registry = MetricsRegistry()
        seen, barrier = [], threading.Barrier(8)

        def worker():
            barrier.wait()
            for i in range(200):
                seen.append((i, registry.counter("ops", relation=f"R{i}")))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({(i, id(counter)) for i, counter in seen}) == 200
        assert len(registry.snapshot()["counters"]) == 200


def _linear_bucket_index(seconds: float) -> int:
    """The scan ``_bucket_index`` replaced: first bound the sample fits under."""
    for index, bound in enumerate(BUCKET_BOUNDS):
        if seconds <= bound:
            return index
    return len(BUCKET_BOUNDS)


def _samples():
    yield from (0.0, -1.0, -math.inf, math.inf, math.nan, 1e-9, 1e9)
    for bound in BUCKET_BOUNDS:
        yield from (math.nextafter(bound, -math.inf), bound, math.nextafter(bound, math.inf))


@pytest.mark.parametrize("seconds", list(_samples()))
def test_bisection_files_every_sample_where_the_scan_did(seconds):
    assert _bucket_index(seconds) == _linear_bucket_index(seconds)


def test_nan_stays_in_the_overflow_bucket():
    histogram = MetricsRegistry().histogram("h")
    histogram.observe(math.nan)
    assert histogram.buckets[-1] == 1 and sum(histogram.buckets) == 1


def test_a_snapshot_reads_a_histogram_under_one_acquisition():
    registry = MetricsRegistry()
    histogram = registry.histogram("op_seconds", op_kind="select")
    histogram.observe(0.5)
    histogram._lock = lock = _CountingLock(histogram._lock)
    (entry,) = registry.snapshot()["histograms"]
    assert lock.acquisitions == 1
    assert (entry["count"], entry["sum"], sum(entry["buckets"])) == (1, 0.5, 1)


def test_a_snapshot_racing_observe_is_one_consistent_reading():
    registry = MetricsRegistry()
    histogram = registry.histogram("op_seconds", op_kind="select")
    stop = threading.Event()

    def observer():
        while not stop.is_set():
            histogram.observe(1.0)

    thread = threading.Thread(target=observer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between any two reads
    thread.start()
    try:
        for _ in range(2_000):
            (entry,) = registry.snapshot()["histograms"]
            assert sum(entry["buckets"]) == entry["count"]
            assert entry["sum"] == entry["count"] * 1.0
    finally:
        stop.set()
        thread.join()
        sys.setswitchinterval(interval)
    assert histogram.count > 0
