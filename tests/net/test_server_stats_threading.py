"""A TCP server's ``server_*`` counters under concurrency: no lost updates.

The original dataclass was mutated with bare ``+=`` from responder tasks and
dispatcher threads at once, so increments could be lost.  The counters are
registry instruments bumped from every connection's thread, read through the
provider's metrics snapshot: it must count exactly while many connections
talk at once, and hold every counter under its old name.
"""

from __future__ import annotations

import socket
import threading

from provider_calls import server_counts

from repro.net import (
    CHANNEL_CONTROL,
    ThreadedTcpServer,
    recv_frame,
    send_frame,
    throughput_summary,
)
from repro.net.server import _FRAME_OVERHEAD

THREADS = 8
ROUNDS = 100
PING = b'{"op": "ping"}'


def _talk(port: int, rounds: int) -> None:
    """One connection: a hello, then ``rounds`` pings, each answered."""
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        send_frame(sock, b'{"op": "hello"}', channel=CHANNEL_CONTROL, correlation=1)
        recv_frame(sock)
        for correlation in range(2, rounds + 2):
            send_frame(sock, PING, channel=CHANNEL_CONTROL, correlation=correlation)
            recv_frame(sock)


class TestConcurrentMutation:
    def test_parallel_connections_are_counted_exactly(self):
        with ThreadedTcpServer() as server:
            threads = [
                threading.Thread(target=_talk, args=(server.port, ROUNDS))
                for _ in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        stats = server_counts(server.server)
        frames = THREADS * (ROUNDS + 1)
        assert stats["connections_total"] == THREADS
        assert stats["connections_active"] == 0
        assert stats["frames_received"] == stats["control_frames"] == frames
        assert stats["frames_sent"] == frames
        assert stats["envelope_frames"] == 0
        hello = len(b'{"op": "hello"}') + _FRAME_OVERHEAD
        assert stats["bytes_received"] == THREADS * (hello + ROUNDS * (len(PING) + _FRAME_OVERHEAD))


class TestReadSurface:
    def test_the_snapshot_holds_every_server_counter(self):
        with ThreadedTcpServer() as server:
            _talk(server.port, 1)
        stats = server_counts(server.server)
        assert stats["connections_total"] == 1
        assert set(stats) >= {
            "connections_total",
            "connections_active",
            "frames_received",
            "frames_sent",
            "bytes_received",
            "bytes_sent",
            "envelope_frames",
            "control_frames",
            "framing_errors",
            "peak_concurrent_dispatch",
            "requests_dispatched",
        }

    def test_counters_feed_the_metrics_plane(self):
        with ThreadedTcpServer() as server:
            _talk(server.port, 4)
        snapshot = server.server.metrics.snapshot()
        by_name = {c["name"]: c["value"] for c in snapshot["counters"]}
        assert by_name["server_frames_received"] == 5
        assert server.server.database_server.metrics is server.server.metrics

    def test_throughput_summary_mentions_every_headline(self):
        with ThreadedTcpServer() as server:
            _talk(server.port, 1)
        summary = throughput_summary(server.server.database_server.metrics_snapshot())
        assert "1 connection(s)" in summary
        assert "2 frame(s) in / 2 out" in summary
        assert "peak 0 concurrent" in summary
