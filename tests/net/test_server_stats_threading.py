"""TcpServerStats under concurrency: no lost updates, old read surface kept.

The original dataclass was mutated with bare ``+=`` from responder tasks and
dispatcher threads at once, so increments could be lost.  The registry-backed
facade must count exactly under the same hammering.
"""

from __future__ import annotations

import threading

from repro.net.server import TcpServerStats

THREADS = 8
ROUNDS = 2_500


class TestConcurrentMutation:
    def test_parallel_increments_are_exact(self):
        stats = TcpServerStats()

        def worker():
            for _ in range(ROUNDS):
                stats.inc("frames_received")
                stats.inc("bytes_received", 100)
                stats.inc("connections_active")
                stats.dec("connections_active")

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.as_dict()["frames_received"] == THREADS * ROUNDS
        assert stats.as_dict()["bytes_received"] == THREADS * ROUNDS * 100
        assert stats.as_dict()["connections_active"] == 0

    def test_mixed_counter_traffic_from_many_threads(self):
        stats = TcpServerStats(dispatch_workers=4)
        barrier = threading.Barrier(THREADS)

        def worker():
            barrier.wait()
            for _ in range(ROUNDS):
                stats.inc("envelope_frames")
                stats.inc("frames_sent")
                stats.inc("bytes_sent", 7)

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        as_dict = stats.as_dict()
        assert as_dict["envelope_frames"] == THREADS * ROUNDS
        assert as_dict["frames_sent"] == THREADS * ROUNDS
        assert as_dict["bytes_sent"] == THREADS * ROUNDS * 7
        assert as_dict["dispatch_workers"] == 4


class TestReadSurface:
    def test_as_dict_reads_and_order_are_preserved(self):
        stats = TcpServerStats(dispatch_workers=2)
        stats.inc("connections_total")
        stats.inc("framing_errors")
        assert stats.as_dict()["connections_total"] == 1
        assert stats.as_dict()["framing_errors"] == 1
        assert list(stats.as_dict()) == [
            "connections_total",
            "connections_active",
            "frames_received",
            "frames_sent",
            "bytes_received",
            "bytes_sent",
            "envelope_frames",
            "control_frames",
            "framing_errors",
            "dispatch_workers",
            "peak_concurrent_dispatch",
            "requests_dispatched",
        ]

    def test_unknown_attribute_still_raises(self):
        stats = TcpServerStats()
        try:
            stats.not_a_counter
        except AttributeError as exc:
            assert "not_a_counter" in str(exc)
        else:
            raise AssertionError("expected AttributeError")

    def test_counters_feed_the_metrics_plane(self):
        stats = TcpServerStats()
        stats.inc("frames_received", 5)
        snapshot = stats.metrics.snapshot()
        by_name = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert by_name["server_frames_received"] == 5

    def test_throughput_summary_mentions_every_headline(self):
        stats = TcpServerStats(dispatch_workers=3)
        stats.inc("connections_total")
        summary = stats.throughput_summary()
        assert "1 connection(s)" in summary
        assert "3 worker(s)" in summary
