"""CI smoke test of the sharded multi-provider deployment.

Six phases against real ``repro`` subprocesses, every wait bounded so a hung
provider fails the CI step instead of wedging it.  Each CRUD round trip
(create, select, insert, delete, count) is checked against a plaintext
oracle of the same rows.

1. **Scatter-gather CRUD** -- ``repro cluster spawn --shards 2``: the round
   trip through its ``cluster://`` session, starting no client thread, both
   shards storing data and serving envelopes, then a clean SIGTERM shutdown.
2. **Replicated failover** -- three ``repro serve`` processes at
   ``?replicas=2``: one SIGKILLed provider leaves reads complete (a
   failover read); a second makes ``select`` and ``count`` raise
   ``DatabaseError`` instead of answering with part of the rows.
3. **The async key** -- the round trip through a ``cluster://...?async=1``
   session, whose shards are blocking proxies, and a ``tcp://...?async=1``
   session that is one too (the key has no effect); then 32 ping frames
   pipelined on one raw socket, all answered by correlation id.
4. **Indexed fleet** -- ``?index=1``: exact selects served by
   ``INDEX_LOOKUP`` at ``examined`` = result size, equal to a scanning
   session's answers, and the router's index counters fire.

Every counter is read from a registry snapshot: a shard's through its
``metrics`` control operation, the router's from its own registry.
5. **Metrics plane** -- every shard scraped mid-workload: non-empty latency
   histograms, parseable Prometheus text, and fleet-wide merged summaries.
6. **Session cache** -- ``?cache=1``: a zipfian burst hits the session's
   cache, and a delete leaves zero stale rows and bumps its invalidations.

Usage::

    PYTHONPATH=src python tools/ci_smoke_cluster.py
"""

from __future__ import annotations

import contextlib
import json
import re
import signal
import socket
import subprocess
import sys
import threading

STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 15
NUM_ROWS = 24  # enough that both shards hold tuples with overwhelming odds
DECL = "Smoke(name:string[10], value:int[4])"
ROWS = sorted((f"row{i}", i % 3) for i in range(NUM_ROWS))


class SmokeFailure(Exception):
    """A phase saw something other than what it checks for."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


def rows_where(db, where: str) -> list:
    relation = db.select(f"SELECT * FROM Smoke WHERE {where}").relation
    return sorted((row["name"], row["value"]) for row in relation)


def crud_round_trip(db) -> None:
    """Create, select, insert, delete and count against the oracle, starting no thread."""
    threads, oracle = threading.active_count(), list(ROWS)  # sorted, as rows_where answers
    db.create_table(DECL, rows=oracle)
    check(rows_where(db, "value = 1") == [r for r in oracle if r[1] == 1],
          "select disagrees with the oracle")
    db.insert("Smoke", {"name": "extra", "value": 1})
    oracle.append(("extra", 1))
    deleted = db.delete("SELECT * FROM Smoke WHERE value = 2")
    check(deleted == NUM_ROWS // 3, f"expected {NUM_ROWS // 3} deletions, got {deleted}")
    oracle = sorted(r for r in oracle if r[1] != 2)
    for value in range(3):
        check(rows_where(db, f"value = {value}") == [r for r in oracle if r[1] == value],
              f"select value = {value} after insert + delete disagrees with the oracle")
    check(db.count("Smoke") == len(oracle), f"count is not {len(oracle)}")
    check(threading.active_count() == threads, "the CRUD round trip started a thread")


@contextlib.contextmanager
def stopping(procs: list):
    """On exit every process still running gets SIGTERM, then SIGKILL."""
    try:
        yield procs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=10)


def launch(*args: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "repro.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


@contextlib.contextmanager
def providers(n: int):
    """``n`` separate ``repro serve`` processes, as ``(procs, hosts)``."""
    with stopping([]) as procs:
        hosts = []
        for _ in range(n):
            procs.append(launch("serve", "--port", "0"))
            match = re.search(r"tcp://([\d.]+:\d+)", procs[-1].stdout.readline())
            check(match is not None, "a provider did not start")
            hosts.append(match.group(1))
        yield procs, hosts


def connect(url: str, **options):
    from repro.api import EncryptedDatabase

    return EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S, **options)


def routing_counts(db) -> dict:
    """The router's ``cluster_<name>_total`` counters, from its registry snapshot."""
    from repro.obs import snapshot_scalars

    return snapshot_scalars(db.server.metrics.snapshot(), "cluster_")


def smoke_scatter_gather_crud() -> None:
    from repro.obs import snapshot_scalars

    with stopping([launch("cluster", "spawn", "--shards", "2")]) as (proc,):
        banners = (re.search(r"cluster ready: (cluster://\S+)", proc.stdout.readline())
                   for _ in range(10))
        url = next((match.group(1) for match in banners if match), None)
        check(url is not None, "no cluster-ready banner")
        with connect(url) as db:
            crud_round_trip(db)
            counts = db.server.per_shard_tuple_counts("Smoke")
            check(len(counts) == 2 and all(counts.values()),
                  f"traffic did not reach both shards: {counts}")
            for shard_id in db.server.shard_ids:
                snapshot = db.server.shard(shard_id).metrics_snapshot()
                frames = snapshot_scalars(snapshot, "server_").get("envelope_frames", 0)
                check(frames > 0, f"{shard_id} served no envelopes")
        print(f"CRUD round trip matched the oracle on both shards, no thread: {counts}")
        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
        check(proc.returncode == 0, f"fleet exited {proc.returncode}\n{output}")
        check(output.count("stopped") >= 2, f"missing shutdown banners\n{output}")
    print("fleet shut down cleanly")


def smoke_replicated_failover() -> None:
    from repro.api import DatabaseError

    with providers(3) as (procs, hosts):
        with connect("cluster://" + ",".join(hosts) + "?replicas=2") as db:
            db.create_table(DECL, rows=ROWS)
            counts = db.server.per_shard_tuple_counts("Smoke")
            check(sum(counts.values()) == 2 * NUM_ROWS, f"not 2 copies per row: {counts}")
            expected = [r for r in ROWS if r[1] == 1]
            check(rows_where(db, "value = 1") == expected, "replicated select is wrong")
            procs[0].send_signal(signal.SIGKILL)  # a provider dies, hard
            procs[0].wait(timeout=SHUTDOWN_TIMEOUT_S)
            check(rows_where(db, "value = 1") == expected, "post-kill select incomplete")
            failovers = routing_counts(db)["failover_reads_total"]
            check(failovers >= 1, "the read was not a failover")
            check(db.count("Smoke") == NUM_ROWS, "post-kill count is wrong")
            print(f"complete with 1/3 providers dead (failover_reads={failovers})")
            procs[1].send_signal(signal.SIGKILL)  # past what R=2 covers
            procs[1].wait(timeout=SHUTDOWN_TIMEOUT_S)
            for name, read in (("select", lambda: rows_where(db, "value = 1")),
                               ("count", lambda: db.count("Smoke"))):
                try:
                    answer = read()
                except DatabaseError as exc:
                    print(f"{name} raised with 2/3 providers dead: {exc}")
                else:
                    raise SmokeFailure(f"{name} answered {answer!r} with 2/3 dead")


def smoke_async_key() -> None:
    from repro.net import CHANNEL_CONTROL, RemoteServerProxy, recv_frame, send_frame

    with providers(2) as (_, hosts):
        with (connect("cluster://" + ",".join(hosts) + "?async=1") as db,
              connect(f"tcp://{hosts[0]}?async=1") as single):
            proxies = [db.server.shard(i) for i in db.server.shard_ids] + [single.server]
            check(all(type(proxy) is RemoteServerProxy for proxy in proxies),
                  "an async=1 URL opened something other than blocking proxies")
            crud_round_trip(db)
        print("cluster://...?async=1 round trip matched the oracle over blocking proxies")
        host, port = hosts[0].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=STARTUP_TIMEOUT_S) as sock:
            for correlation, op in enumerate(["hello"] + ["ping"] * 32, start=1):
                send_frame(sock, json.dumps({"op": op}).encode(),
                           channel=CHANNEL_CONTROL, correlation=correlation)
            frames = [recv_frame(sock) for _ in range(33)]
        answers = {frame.correlation: json.loads(frame.payload).get("ok") for frame in frames}
        check(answers == dict.fromkeys(range(1, 34), True), "the pipelined burst lost responses")
    print("32 pipelined in-flight pings answered on one connection")


def smoke_indexed_fleet() -> None:
    from repro.crypto.keys import SecretKey

    key = SecretKey.generate()
    with providers(2) as (_, hosts):
        url = "cluster://" + ",".join(hosts)
        with connect(f"{url}?index=1", key=key) as db, connect(url, key=key) as scan:
            check(db.index_enabled, "the session did not activate indexed serving")
            db.create_table(DECL, rows=ROWS)
            db.insert("Smoke", {"name": "extra", "value": 1})
            check(db.delete("SELECT * FROM Smoke WHERE name = 'row0'") == 1, "delete mismatch")
            expected = NUM_ROWS // 3 + 1
            outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
            examined = outcome.evaluation.examined if outcome.evaluation else None
            check(len(outcome.relation) == expected and examined == expected,
                  f"INDEX_LOOKUP examined {examined} for {len(outcome.relation)} rows")
            scan.attach_table(DECL)
            for where in ("value = 0", "value = 1", "name = 'extra'"):
                check(rows_where(db, where) == rows_where(scan, where),
                      f"index/scan divergence on {where!r}")
            counts = routing_counts(db)
            check(counts["index_lookups_total"] >= 1 and counts["index_writes_total"] >= 1,
                  f"the index serving path never ran: {counts}")
    print(f"indexed fleet: examined={examined} for {expected} results, scan-equivalent")


def smoke_metrics_plane() -> None:
    from repro.net.client import RemoteServerProxy
    from repro.obs import histogram_summaries, merge_snapshots

    with providers(2) as (_, hosts):
        with connect("cluster://" + ",".join(hosts)) as db:
            db.create_table(DECL, rows=ROWS)
            for _ in range(3):
                db.select("SELECT * FROM Smoke WHERE value = 1")
            snapshots = []
            for host in hosts:  # scraped mid-workload, as `repro stats` does
                with RemoteServerProxy.connect(f"tcp://{host}", pool_size=1,
                                               timeout=STARTUP_TIMEOUT_S) as probe:
                    snapshot = probe.metrics().get("metrics")
                    check(bool(snapshot) and any(h["count"] for h in snapshot["histograms"]),
                          f"{host} exposed no latency histogram counts")
                    text = probe.metrics(format="prometheus").get("prometheus", "")
                    check("# TYPE" in text, f"{host} Prometheus text has no TYPE lines")
                    for line in text.splitlines():
                        if line and not line.startswith("#"):
                            try:
                                float(line.rsplit(" ", 1)[1])
                            except (IndexError, ValueError):
                                raise SmokeFailure(f"unparseable Prometheus line {line!r}")
                    snapshots.append(snapshot)
    dispatch = [s for s in histogram_summaries(merge_snapshots(*snapshots))
                if s["name"] == "server_dispatch_queue_seconds"]
    check(any(s["count"] for s in dispatch), "the merged snapshot lost the dispatch histograms")
    worst = max(dispatch, key=lambda s: s["p99"])
    print(f"metrics plane: {len(snapshots)} snapshots merged, dispatch-queue "
          f"p50={worst['p50']:.6f}s p99={worst['p99']:.6f}s")


def smoke_cache_tier() -> None:
    from repro.crypto.rng import DeterministicRng
    from repro.obs import snapshot_scalars
    from repro.workloads.distributions import ZipfDistribution

    def cache_counts(db) -> dict:
        return snapshot_scalars(db.metrics_snapshot(), "cache_", tier="client")

    with providers(3) as (_, hosts):
        with connect("cluster://" + ",".join(hosts) + "?cache=1") as db:
            db.create_table(DECL, rows=ROWS)
            distribution = ZipfDistribution(range(NUM_ROWS), exponent=1.3)
            for index in distribution.sample_many(DeterministicRng(6), 40):
                check(len(rows_where(db, f"name = 'row{index}'")) == 1,
                      f"point select for row{index} is wrong")
            stats = cache_counts(db)
            check(stats["hits_total"] > 0 and stats["hit_ratio"] > 0.0,
                  f"the zipfian burst never hit the cache: {stats}")
            print(f"zipfian burst hit ratio {stats['hit_ratio']:.2f}")
            check(db.delete("SELECT * FROM Smoke WHERE value = 2") == NUM_ROWS // 3,
                  "cached-fleet delete mismatch")
            check(rows_where(db, "value = 2") == [], "stale rows served after the delete")
            for index in range(NUM_ROWS):
                check(len(rows_where(db, f"name = 'row{index}'")) == int(index % 3 != 2),
                      f"stale cached answer for row{index}")
            after = cache_counts(db)["invalidations_total"]
            check(after > stats["invalidations_total"], "the delete did not bump invalidations")
    print(f"delete invalidated the cache ({after}), zero stale re-reads")


PHASES = (
    smoke_scatter_gather_crud,
    smoke_replicated_failover,
    smoke_async_key,
    smoke_indexed_fleet,
    smoke_metrics_plane,
    smoke_cache_tier,
)


def main() -> int:
    for phase in PHASES:
        try:
            phase()
        except SmokeFailure as exc:
            print(f"FAIL ({phase.__name__}): {exc}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
