"""End-to-end observability: traces across layers, fleets and the CLI.

Covers the PR's acceptance path (a traced exact select on a two-shard
indexed fleet assembling session, proxy, router, per-shard, dispatcher and
access-method spans into one trace), the
old-name compatibility of the ``stats`` control operation, and the
``repro stats`` / ``repro trace`` subcommands over a live socket.
"""

from __future__ import annotations

import pytest

from repro.api import EncryptedDatabase
from repro.cli import main
from repro.net import ThreadedTcpServer
from repro.obs import histogram_summaries, snapshot_scalars
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.audit import ServerAuditLog

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]


def _span_names(trace: dict) -> set[str]:
    return {span["name"] for span in trace["spans"]}


class TestInProcessTracing:
    def test_traced_select_assembles_session_and_provider_spans(
        self, secret_key, rng
    ):
        with EncryptedDatabase.open(secret_key, rng=rng, index=True) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            result = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
            assert len(result.relation) == 12
            trace = db.fetch_trace()
        assert trace is not None
        assert trace["trace_id"] == db.last_trace_id
        names = _span_names(trace)
        assert "session.select" in names
        (served,) = [s for s in trace["spans"] if s["name"].startswith("provider.")]
        assert served["name"] == "provider.index-lookup"
        assert served["annotations"]["access"] == "index"
        assert served["annotations"]["fallback_taken"] is False
        assert served["annotations"]["result_size"] == 12
        # spans come out sorted by wall-clock start with sane durations
        starts = [span["start_s"] for span in trace["spans"]]
        assert starts == sorted(starts)
        assert all(span["duration_s"] >= 0 for span in trace["spans"])

    def test_each_operation_gets_its_own_trace(self, secret_key, rng):
        with EncryptedDatabase.open(secret_key, rng=rng) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            db.select("SELECT * FROM Emp WHERE dept = 'HR'")
            first = db.last_trace_id
            db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
            second = db.last_trace_id
            assert first != second
            # both are still fetchable from the bounded buffer
            assert db.fetch_trace(first) is not None
            assert db.fetch_trace(second) is not None
            names = _span_names(db.fetch_trace(second))
            assert "session.insert" in names

    def test_unknown_trace_id_returns_none(self, secret_key, rng):
        with EncryptedDatabase.open(secret_key, rng=rng) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            assert db.fetch_trace("00" * 16) is None

    def test_session_metrics_report_per_op_kind_latency(self, secret_key, rng):
        with EncryptedDatabase.open(secret_key, rng=rng) as db:
            db.create_table(EMP_DECL, rows=ROWS)
            for _ in range(3):
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
            db.insert("Emp", {"name": "Zoe", "dept": "HR", "salary": 1})
            summaries = histogram_summaries(db.metrics_snapshot())
        by_op = {
            s["labels"]["op_kind"]: s
            for s in summaries
            if s["name"] == "session_op_seconds"
        }
        assert by_op["select"]["count"] == 3
        assert by_op["insert"]["count"] == 1
        for summary in by_op.values():
            assert summary["p50"] <= summary["p95"] <= summary["p99"]


class TestTcpTracing:
    def test_remote_select_adds_proxy_and_provider_spans(self, secret_key, rng):
        with ThreadedTcpServer() as server:
            url = f"tcp://127.0.0.1:{server.port}"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert len(db.select("SELECT * FROM Emp WHERE dept = 'HR'").relation) == 12
                trace = db.fetch_trace()
                names = _span_names(trace)
                assert "session.select" in names
                assert "proxy.request" in names
                (served,) = [
                    s for s in trace["spans"] if s["name"].startswith("provider.")
                ]
                assert served["name"] == "provider.query"
                assert served["annotations"]["queue_wait_s"] >= 0
                db.drop_table("Emp")

    def test_the_metrics_snapshot_keeps_the_old_server_names(self, secret_key, rng):
        with ThreadedTcpServer() as server:
            url = f"tcp://127.0.0.1:{server.port}"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                stats = snapshot_scalars(db.server.metrics_snapshot(), "server_")
                db.drop_table("Emp")
        for name in (
            "connections_total",
            "connections_active",
            "frames_received",
            "frames_sent",
            "bytes_received",
            "bytes_sent",
            "envelope_frames",
            "control_frames",
            "framing_errors",
        ):
            assert name in stats
        assert stats["connections_total"] >= 1
        assert stats["envelope_frames"] > 0

    def test_metrics_control_op_serves_snapshot_and_prometheus(
        self, secret_key, rng
    ):
        with ThreadedTcpServer() as server:
            url = f"tcp://127.0.0.1:{server.port}"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                snapshot = db.server.metrics()["metrics"]
                text = db.server.metrics(format="prometheus")["prometheus"]
                db.drop_table("Emp")
        histogram_names = {h["name"] for h in snapshot["histograms"]}
        assert "server_dispatch_queue_seconds" in histogram_names
        assert "provider_op_seconds" in histogram_names
        assert any(h["count"] > 0 for h in snapshot["histograms"])
        assert "# TYPE" in text
        assert "server_envelope_frames" in text

    def test_audit_counters_ride_the_metrics_plane(self, secret_key, rng):
        capped = OutsourcedDatabaseServer(audit_log=ServerAuditLog(max_events=4))
        with ThreadedTcpServer(capped) as server:
            url = f"tcp://127.0.0.1:{server.port}"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                for _ in range(4):
                    db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                snapshot = db.server.metrics()["metrics"]
                db.drop_table("Emp")
        gauges = {
            (g["name"], g["labels"].get("kind")): g["value"]
            for g in snapshot["gauges"]
        }
        assert ("audit_events_dropped", None) in gauges
        # the tiny ring buffer overflowed, and the drop counter says so
        assert gauges[("audit_events_dropped", None)] > 0
        assert any(name == "audit_events" for name, _kind in gauges)


class TestClusterAcceptance:
    def test_traced_indexed_select_on_a_two_shard_fleet(self, secret_key, rng):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            url = f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}?index=1"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                assert db.index_enabled
                result = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                assert len(result.relation) == 12
                trace = db.fetch_trace()
                names = _span_names(trace)
                # one trace, spans from every layer
                assert "session.select" in names
                assert "router.scatter" in names
                assert "shard.request" in names
                served = [s for s in trace["spans"] if s["name"].startswith("provider.")]
                assert {s["name"] for s in served} == {"provider.index-lookup"}
                assert all("queue_wait_s" in s["annotations"] for s in served)
                assert {s["annotations"]["access"] for s in served} == {"index"}
                # wall-clock ordering is monotonic and durations sane
                starts = [s["start_s"] for s in trace["spans"]]
                assert starts == sorted(starts)
                assert all(s["duration_s"] >= 0 for s in trace["spans"])
                session = next(
                    s for s in trace["spans"] if s["name"] == "session.select"
                )
                # the trace extent covers the session span (modulo the tiny
                # wall-vs-monotonic measurement skew)
                assert session["duration_s"] > 0
                assert trace["duration_s"] >= session["duration_s"] * 0.99
                db.drop_table("Emp")

    def test_fleet_metrics_merge_per_shard_histograms(self, secret_key, rng):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            url = f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                for _ in range(2):
                    db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                snapshot = db.metrics_snapshot()
                db.drop_table("Emp")
        by_name = {}
        for entry in snapshot["histograms"]:
            by_name.setdefault(entry["name"], []).append(entry)
        # per-shard latency histograms, one per shard id (satellite: the
        # executor's elapsed_s feeds cluster_shard_seconds)
        shard_ids = {
            e["labels"]["shard_id"] for e in by_name["cluster_shard_seconds"]
        }
        assert len(shard_ids) == 2
        assert all(shard_id.startswith("tcp://") for shard_id in shard_ids)
        assert all(e["count"] > 0 for e in by_name["cluster_shard_seconds"])
        # provider-side op histograms from BOTH shards merged into one entry
        assert any(e["count"] > 0 for e in by_name["provider_op_seconds"])
        # session-side per-op-kind summary is available fleet-wide
        assert any(e["count"] > 0 for e in by_name["session_op_seconds"])
        counters = {c["name"] for c in snapshot["counters"]}
        assert "cluster_scatter_reads_total" in counters


class TestCliObservability:
    @pytest.fixture
    def serving(self, secret_key, rng):
        with ThreadedTcpServer() as server:
            url = f"tcp://127.0.0.1:{server.port}"
            with EncryptedDatabase.connect(url, secret_key, rng=rng) as db:
                db.create_table(EMP_DECL, rows=ROWS)
                db.select("SELECT * FROM Emp WHERE dept = 'HR'")
                yield url, db
                db.drop_table("Emp")

    def test_repro_stats_summarizes_latency(self, serving, capsys):
        url, _db = serving
        assert main(["stats", url]) == 0
        out = capsys.readouterr().out
        assert "metrics from 1/1 shard(s)" in out
        assert "server_envelope_frames" in out
        assert "provider_op_seconds" in out
        assert "p50=" in out and "p95=" in out and "p99=" in out

    def test_repro_stats_prometheus(self, serving, capsys):
        url, _db = serving
        assert main(["stats", url, "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE server_envelope_frames counter" in out
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            float(line.rsplit(" ", 1)[1])

    def test_repro_trace_lists_and_assembles(self, serving, capsys):
        url, db = serving
        assert main(["trace", url]) == 0
        out = capsys.readouterr().out
        assert "recent trace(s)" in out
        assert "provider." in out
        assert main(["trace", url, "--trace-id", db.last_trace_id]) == 0
        out = capsys.readouterr().out
        assert f"trace {db.last_trace_id}:" in out
        assert "queue_wait_s=" in out

    def test_repro_trace_limit_bounds_the_listing(self, serving, capsys):
        url, db = serving
        db.select("SELECT * FROM Emp WHERE dept = 'IT'")
        assert main(["trace", url, "--limit", "2"]) == 0
        assert "2 recent trace(s)" in capsys.readouterr().out
        assert main(["trace", url, "--limit", "1"]) == 0
        assert "1 recent trace(s)" in capsys.readouterr().out
        assert main(["trace", url, "--limit", "0"]) == 0
        assert "0 recent trace(s)" in capsys.readouterr().out

    def test_negative_limit_is_a_usage_error(self, serving, capsys):
        url, _db = serving
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", url, "--limit", "-1"])
        assert excinfo.value.code == 2
        assert "--limit" in capsys.readouterr().err

    def test_repro_trace_unknown_id(self, serving, capsys):
        url, _db = serving
        assert main(["trace", url, "--trace-id", "ff" * 16]) == 1
        out = capsys.readouterr().out
        assert "not found" in out

    def test_bad_trace_id_is_a_usage_error(self, serving, capsys):
        url, _db = serving
        assert main(["trace", url, "--trace-id", "zz"]) == 2

    def test_unreachable_provider_reports_down(self, capsys):
        assert main(["stats", "tcp://127.0.0.1:1", "--timeout", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "DOWN" in err
