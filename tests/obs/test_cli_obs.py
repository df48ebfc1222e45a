"""The observability exposition CLI: ``repro stats`` and ``repro trace``.

Covers the surfaces the obs plane advertises: the human summary and the
Prometheus text exposition of ``stats``, fleet-wide merging over
``cluster://``, trace listing, cross-shard ``--trace-id`` assembly, and
the not-found / unreachable error paths.
"""

from __future__ import annotations

import re

import pytest

from repro import native
from repro.api import EncryptedDatabase
from repro.cli import main
from repro.net import ThreadedTcpServer


@pytest.fixture
def provider():
    with ThreadedTcpServer() as server:
        yield server


def _drive(url: str, rows: int = 12, selects: int = 3) -> str:
    """Run a small workload; returns the last operation's trace id."""
    with EncryptedDatabase.connect(url) as db:
        db.create_table(
            "Obs(name:string[10], value:int[4])",
            rows=[(f"n{i}", i) for i in range(rows)],
        )
        for i in range(selects):
            db.select(f"SELECT * FROM Obs WHERE name = 'n{i}'")
        trace_id = db.last_trace_id
    assert trace_id is not None
    return trace_id


class TestStatsCommand:
    def test_human_summary_reports_counters_and_percentiles(self, provider, capsys):
        url = f"tcp://127.0.0.1:{provider.port}"
        _drive(url)
        exit_code = main(["stats", url])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "metrics from 1/1 shard(s)" in captured.out
        assert "provider_op_seconds" in captured.out
        assert "latency (seconds):" in captured.out
        assert "p99=" in captured.out

    def test_prometheus_exposition_parses(self, provider, capsys):
        url = f"tcp://127.0.0.1:{provider.port}"
        _drive(url)
        exit_code = main(["stats", url, "--prometheus"])
        captured = capsys.readouterr()
        assert exit_code == 0
        lines = captured.out.splitlines()
        assert lines
        sample = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*(\{.*\})? [-+0-9.e]+$")
        for line in lines:
            if line.startswith("# TYPE "):
                assert line.split()[-1] in ("counter", "gauge", "histogram")
            elif line:
                assert sample.match(line), line
        # Cumulative histogram series end at +Inf, and summed per metric
        # name the +Inf buckets equal the _count total.
        inf_totals: dict[str, float] = {}
        for line in lines:
            if 'le="+Inf"' in line:
                name = line.split("{")[0][: -len("_bucket")]
                inf_totals[name] = inf_totals.get(name, 0.0) + float(
                    line.rsplit(" ", 1)[1]
                )
        assert inf_totals
        for name, total in inf_totals.items():
            count_lines = [
                l for l in lines if l.startswith(f"{name}_count")
            ]
            assert count_lines
            assert sum(float(l.rsplit(" ", 1)[1]) for l in count_lines) == total

    def test_cluster_url_merges_the_fleet(self, capsys):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            url = f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}"
            _drive(url, rows=20)
            exit_code = main(["stats", url])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "metrics from 2/2 shard(s)" in captured.out
        # Both shards stored a slice, so the merged relation gauge is the
        # fleet-wide total, larger than either shard alone.
        gauge_lines = [
            line for line in captured.out.splitlines()
            if "relation_tuples" in line or "provider_op_seconds" in line
        ]
        assert gauge_lines

    def test_each_shard_reports_its_match_kernel(self, capsys, monkeypatch):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            url = f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}"
            expected = "python" if native.kernel is None else (
                "native-sha-ni" if native.kernel.SWP_CHECK == "sha-ni-2x" else "native")
            assert main(["stats", url]) == 0
            out = capsys.readouterr().out
            assert f"127.0.0.1:{one.port}: match kernel: {expected}" in out
            assert f"127.0.0.1:{two.port}: match kernel: {expected}" in out
            assert f'match_kernel{{impl={expected}}} 2' in out
            monkeypatch.setattr(native, "kernel", None)
            with ThreadedTcpServer() as pure:
                assert main(["stats", f"tcp://127.0.0.1:{pure.port}", "--prometheus"]) == 0
        assert 'match_kernel{impl="python"} 1' in capsys.readouterr().out

    def test_unreachable_shard_fails_the_scrape(self, provider, capsys):
        url = f"cluster://127.0.0.1:{provider.port},127.0.0.1:1"
        exit_code = main(["stats", url, "--timeout", "2"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "DOWN" in captured.err

    def test_bad_cluster_url_is_a_usage_error(self, capsys):
        assert main(["stats", "cluster://"]) == 2


class TestTraceCommand:
    def test_recent_traces_are_listed(self, provider, capsys):
        url = f"tcp://127.0.0.1:{provider.port}"
        _drive(url)
        exit_code = main(["trace", url])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "recent trace(s)" in captured.out
        assert "provider.query" in captured.out
        assert "queue_wait_s=" in captured.out

    def test_trace_id_assembles_provider_spans(self, provider, capsys):
        url = f"tcp://127.0.0.1:{provider.port}"
        trace_id = _drive(url)
        exit_code = main(["trace", url, "--trace-id", trace_id])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"trace {trace_id}" in captured.out
        assert "provider." in captured.out

    def test_trace_id_assembly_spans_a_fleet(self, capsys):
        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            url = f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}"
            trace_id = _drive(url, rows=20)
            exit_code = main(["trace", url, "--trace-id", trace_id])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"trace {trace_id}" in captured.out

    def test_unknown_trace_id_is_not_found(self, provider, capsys):
        url = f"tcp://127.0.0.1:{provider.port}"
        _drive(url)
        exit_code = main(["trace", url, "--trace-id", "00" * 16])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "not found on any shard" in captured.out

    def test_non_hex_trace_id_is_a_usage_error(self, provider, capsys):
        url = f"tcp://127.0.0.1:{provider.port}"
        exit_code = main(["trace", url, "--trace-id", "zz"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "not hex" in captured.err

    def test_unreachable_shard_fails_the_poll(self, provider, capsys):
        url = f"cluster://127.0.0.1:{provider.port},127.0.0.1:1"
        exit_code = main(["trace", url, "--timeout", "2"])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "DOWN" in captured.err
