"""CI smoke test of the sharded multi-provider deployment.

Six phases, every wait bounded so a hung provider fails the CI step
instead of wedging it:

1. **Scatter-gather CRUD** -- starts ``repro cluster spawn --shards 2`` as
   a real subprocess (two providers on ephemeral ports), routes a full
   CRUD round trip through the ``cluster://`` session -- which drives a
   :class:`~repro.cluster.router.ShardRouter` -- and asserts that *both*
   shards actually received traffic: each must store a non-empty slice of
   the relation and answer the scatter-gathered queries.  The fleet is
   then shut down with SIGTERM and must exit cleanly.

2. **Replicated failover** -- starts three *independent* ``repro serve``
   subprocesses (separate processes, so one can be SIGKILLed alone),
   connects with ``?replicas=2``, stores a relation, SIGKILLs one
   provider mid-workload, and asserts the next query still answers
   *complete*: the surviving replicas cover the dead shard's data and the
   router's failover counter fires.  It then SIGKILLs a second provider,
   past what the replicas cover, and asserts that ``select`` and
   ``count`` raise ``DatabaseError`` instead of answering with part of
   the rows.

3. **Async pipelined transport** -- two ``repro serve`` subprocesses
   driven through a ``cluster://...?async=1`` session: the full CRUD
   round trip over pipelined asyncio connections, the router's
   event-loop scatter counter asserted to have fired, plus a direct
   ``AsyncRemoteServerProxy`` burst of concurrent in-flight requests
   over one connection.

4. **Indexed fleet** -- two ``repro serve`` subprocesses behind a
   ``cluster://...?index=1`` session: the session builds the encrypted
   inverted index through ``INDEX_PUT`` as it creates the table and keeps
   it current through the postings every ``INSERT_TUPLES`` /
   ``DELETE_TUPLES`` carries, exact selects are served by ``INDEX_LOOKUP``
   in ~O(result) provider work (asserted via the per-query ``examined``
   stat), every indexed result is compared against a plain scanning
   session on the same fleet, and the router's index counters must fire.

5. **Metrics plane** -- two ``repro serve`` subprocesses worked through a
   ``cluster://`` session, then scraped mid-workload over the ``metrics``
   control operation: every shard must expose a snapshot with non-zero
   latency-histogram counts and a parseable Prometheus text rendering,
   and the per-shard snapshots must merge into fleet-wide p50/p95/p99
   summaries.

6. **Session cache** -- three ``repro serve`` subprocesses behind a
   ``cluster://...?cache=1`` session: a zipfian point-select burst must
   land a non-zero hit ratio on the session's cache (``db.cache.stats()``),
   then a fleet-wide delete followed by a full re-read sweep must serve
   *zero* stale rows and bump the cache's invalidation counter.

Usage::

    PYTHONPATH=src python tools/ci_smoke_cluster.py
"""

from __future__ import annotations

import contextlib
import re
import signal
import subprocess
import sys

STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 15
NUM_ROWS = 24  # enough that both shards hold tuples with overwhelming odds


def smoke_scatter_gather_crud() -> int:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "cluster", "spawn", "--shards", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        url = None
        for _ in range(10):
            banner = proc.stdout.readline()
            match = re.search(r"cluster ready: (cluster://\S+)", banner)
            if match:
                url = match.group(1)
                break
        if url is None:
            print("FAIL: no cluster-ready banner")
            return 1
        print(f"fleet up at {url}")

        from repro.api import EncryptedDatabase

        with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
            db.create_table(
                "Smoke(name:string[10], value:int[4])",
                rows=[(f"row{i}", i % 3) for i in range(NUM_ROWS)],
            )
            counts = db.server.per_shard_tuple_counts("Smoke")
            if len(counts) != 2 or any(count == 0 for count in counts.values()):
                print(f"FAIL: traffic did not reach both shards: {counts}")
                return 1
            print(f"both shards store data: {counts}")

            outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
            if len(outcome.relation) != NUM_ROWS // 3:
                print(f"FAIL: expected {NUM_ROWS // 3} rows, got {len(outcome.relation)}")
                return 1
            db.insert("Smoke", {"name": "extra", "value": 1})
            if len(db.select("SELECT * FROM Smoke WHERE value = 1").relation) != NUM_ROWS // 3 + 1:
                print("FAIL: insert did not land")
                return 1
            deleted = db.delete("SELECT * FROM Smoke WHERE value = 2")
            if deleted != NUM_ROWS // 3:
                print(f"FAIL: expected {NUM_ROWS // 3} deletions, got {deleted}")
                return 1
            status = db.server.cluster_status()
            for shard_id, entry in status.items():
                frames = entry.get("stats", {}).get("stats", {}).get("envelope_frames", 0)
                if not entry.get("ok") or frames == 0:
                    print(f"FAIL: shard {shard_id} served no envelopes: {entry}")
                    return 1
            print("scatter-gather CRUD round trip answered correctly on both shards")

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"FAIL: fleet exited {proc.returncode}\n{output}")
            return 1
        if output.count("stopped") < 2:
            print(f"FAIL: missing graceful per-shard shutdown banners\n{output}")
            return 1
        print("fleet shut down cleanly")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def _spawn_provider() -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    banner = proc.stdout.readline()
    match = re.search(r"tcp://([\d.]+):(\d+)", banner)
    if not match:
        proc.kill()
        proc.wait(timeout=10)
        raise RuntimeError(f"provider did not start: {banner!r}")
    return proc, f"{match.group(1)}:{match.group(2)}"


@contextlib.contextmanager
def _providers(n: int):
    """``n`` separate ``repro serve`` processes, as ``(procs, hosts)``.

    On exit every provider still running gets SIGTERM, then SIGKILL if it
    outlives ``SHUTDOWN_TIMEOUT_S``.
    """
    procs: list[subprocess.Popen] = []
    hosts: list[str] = []
    try:
        for _ in range(n):
            proc, host = _spawn_provider()
            procs.append(proc)
            hosts.append(host)
        yield procs, hosts
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


def smoke_replicated_failover() -> int:
    with _providers(3) as (procs, hosts):
        url = "cluster://" + ",".join(hosts) + "?replicas=2"
        print(f"replicated fleet up at {url}")

        from repro.api import DatabaseError, EncryptedDatabase

        with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
            db.create_table(
                "Smoke(name:string[10], value:int[4])",
                rows=[(f"row{i}", i % 3) for i in range(NUM_ROWS)],
            )
            counts = db.server.per_shard_tuple_counts("Smoke")
            if sum(counts.values()) != 2 * NUM_ROWS:
                print(f"FAIL: expected {2 * NUM_ROWS} physical copies: {counts}")
                return 1
            expected = NUM_ROWS // 3
            if len(db.select("SELECT * FROM Smoke WHERE value = 1").relation) != expected:
                print("FAIL: replicated query answered wrong multiplicities")
                return 1

            procs[0].send_signal(signal.SIGKILL)  # a provider dies, hard
            procs[0].wait(timeout=SHUTDOWN_TIMEOUT_S)
            print(f"SIGKILLed provider {hosts[0]}")

            outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
            if len(outcome.relation) != expected:
                print(
                    f"FAIL: post-kill query incomplete: {len(outcome.relation)} "
                    f"of {expected} rows"
                )
                return 1
            stats = db.server.stats.as_dict()
            if stats["failover_reads"] < 1:
                print(f"FAIL: read was not a failover: {stats}")
                return 1
            if db.count("Smoke") != NUM_ROWS:
                print(f"FAIL: post-kill count inflated/deflated: {db.count('Smoke')}")
                return 1
            print(
                "query stayed complete with 1/3 providers dead "
                f"(failover_reads={stats['failover_reads']})"
            )

            procs[1].send_signal(signal.SIGKILL)  # past what R=2 covers
            procs[1].wait(timeout=SHUTDOWN_TIMEOUT_S)
            print(f"SIGKILLed provider {hosts[1]}")
            for name, read in (
                ("select", lambda: db.select("SELECT * FROM Smoke WHERE value = 1")),
                ("count", lambda: db.count("Smoke")),
            ):
                try:
                    answer = read()
                except DatabaseError as exc:
                    print(f"{name} raised with 2/3 providers dead: {exc}")
                else:
                    print(f"FAIL: {name} answered {answer!r} with 2/3 providers dead")
                    return 1
        return 0


def smoke_async_transport() -> int:
    with _providers(2) as (_, hosts):
        url = "cluster://" + ",".join(hosts) + "?async=1"
        print(f"async fleet up at {url}")

        from repro.api import EncryptedDatabase
        from repro.net import AsyncRemoteServerProxy

        with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
            if not db.server.async_transport:
                print("FAIL: session did not pick the async transport")
                return 1
            db.create_table(
                "Smoke(name:string[10], value:int[4])",
                rows=[(f"row{i}", i % 3) for i in range(NUM_ROWS)],
            )
            expected = NUM_ROWS // 3
            if len(db.select("SELECT * FROM Smoke WHERE value = 1").relation) != expected:
                print("FAIL: async-transport query answered wrong multiplicities")
                return 1
            db.insert("Smoke", {"name": "extra", "value": 1})
            if db.count("Smoke") != NUM_ROWS + 1:
                print("FAIL: async-transport insert/count mismatch")
                return 1
            if db.delete("SELECT * FROM Smoke WHERE value = 2") != expected:
                print("FAIL: async-transport delete mismatch")
                return 1
            stats = db.server.stats.as_dict()
            if stats["loop_scatters"] < 3:
                print(f"FAIL: the event-loop scatter path never ran: {stats}")
                return 1
            print(
                f"async CRUD round trip ok ({stats['loop_scatters']} "
                "event-loop scatters)"
            )

        # One pipelined connection, a burst of concurrent in-flight pings.
        import asyncio

        host, port = hosts[0].rsplit(":", 1)
        proxy = AsyncRemoteServerProxy(host, int(port), timeout=STARTUP_TIMEOUT_S)
        try:
            async def burst():
                return await asyncio.gather(
                    *(proxy.call_control_async("ping") for _ in range(32))
                )

            responses = proxy.loop_thread.run(burst())
            if len(responses) != 32 or not all(r.get("ok") for r in responses):
                print("FAIL: pipelined burst lost responses")
                return 1
        finally:
            proxy.close()
        print("32 pipelined in-flight requests answered on one connection")
        return 0


def smoke_indexed_fleet() -> int:
    with _providers(2) as (_, hosts):
        url = "cluster://" + ",".join(hosts) + "?index=1"
        print(f"indexed fleet up at {url}")

        from repro.api import EncryptedDatabase
        from repro.crypto.keys import SecretKey

        key = SecretKey.generate()
        with EncryptedDatabase.connect(url, key, timeout=STARTUP_TIMEOUT_S) as db:
            if not db.index_enabled:
                print("FAIL: session did not activate indexed serving")
                return 1
            db.create_table(
                "Smoke(name:string[10], value:int[4])",
                rows=[(f"row{i}", i % 3) for i in range(NUM_ROWS)],
            )
            db.insert("Smoke", {"name": "extra", "value": 1})
            if db.delete("SELECT * FROM Smoke WHERE name = 'row0'") != 1:
                print("FAIL: indexed delete mismatch")
                return 1

            expected = NUM_ROWS // 3 + 1
            outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
            if len(outcome.relation) != expected:
                print(f"FAIL: indexed select answered {len(outcome.relation)} rows")
                return 1
            examined = outcome.evaluation.examined if outcome.evaluation else None
            if examined != expected:
                print(
                    f"FAIL: INDEX_LOOKUP examined {examined} tuples for "
                    f"{expected} results (expected ~O(result))"
                )
                return 1

            # Every indexed answer must equal what a scanning session sees.
            scan_url = "cluster://" + ",".join(hosts)
            with EncryptedDatabase.connect(
                scan_url, key, timeout=STARTUP_TIMEOUT_S
            ) as scan:
                scan.attach_table("Smoke(name:string[10], value:int[4])")
                for where in ("value = 0", "value = 1", "name = 'extra'"):
                    left = db.select(f"SELECT * FROM Smoke WHERE {where}")
                    right = scan.select(f"SELECT * FROM Smoke WHERE {where}")
                    left_names = sorted(t["name"] for t in left.relation)
                    right_names = sorted(t["name"] for t in right.relation)
                    if left_names != right_names:
                        print(f"FAIL: index/scan divergence on {where!r}")
                        return 1

            stats = db.server.stats.as_dict()
            if stats["index_lookups"] < 1 or stats["index_writes"] < 1:
                print(f"FAIL: the index serving path never ran: {stats}")
                return 1
            print(
                f"indexed fleet served {stats['index_lookups']} lookup(s) at "
                f"examined={examined} for {expected} results, scan-equivalent"
            )
        return 0


def smoke_metrics_plane() -> int:
    with _providers(2) as (_, hosts):
        url = "cluster://" + ",".join(hosts)
        print(f"metrics fleet up at {url}")

        from repro.api import EncryptedDatabase
        from repro.net.client import RemoteServerProxy
        from repro.obs import histogram_summaries, merge_snapshots

        with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
            db.create_table(
                "Smoke(name:string[10], value:int[4])",
                rows=[(f"row{i}", i % 3) for i in range(NUM_ROWS)],
            )
            for _ in range(3):
                db.select("SELECT * FROM Smoke WHERE value = 1")

            # Scrape every shard mid-workload, exactly like `repro stats`.
            snapshots = []
            for host in hosts:
                with RemoteServerProxy.connect(
                    f"tcp://{host}", pool_size=1, timeout=STARTUP_TIMEOUT_S
                ) as probe:
                    snapshot = probe.metrics().get("metrics")
                    if not snapshot:
                        print(f"FAIL: {host} exposed no metrics snapshot")
                        return 1
                    if not any(h["count"] > 0 for h in snapshot["histograms"]):
                        print(f"FAIL: {host} served traffic but every latency "
                              "histogram is empty")
                        return 1
                    text = probe.metrics(format="prometheus").get("prometheus", "")
                    if "# TYPE" not in text:
                        print(f"FAIL: {host} Prometheus rendering has no TYPE lines")
                        return 1
                    for line in text.splitlines():
                        if line.startswith("#") or not line:
                            continue
                        try:
                            float(line.rsplit(" ", 1)[1])
                        except (IndexError, ValueError):
                            print(f"FAIL: unparseable Prometheus line {line!r}")
                            return 1
                    snapshots.append(snapshot)

            merged = merge_snapshots(*snapshots)
            dispatch = [
                s for s in histogram_summaries(merged)
                if s["name"] == "server_dispatch_queue_seconds"
            ]
            if not dispatch or all(s["count"] == 0 for s in dispatch):
                print("FAIL: merged fleet snapshot lost the dispatch histograms")
                return 1
            worst = max(dispatch, key=lambda s: s["p99"])
            print(
                f"metrics plane ok: {len(snapshots)} shard snapshot(s) merged, "
                f"dispatch-queue p50={worst['p50']:.6f}s p99={worst['p99']:.6f}s "
                f"over {sum(s['count'] for s in dispatch)} request(s)"
            )
        return 0


def smoke_cache_tier() -> int:
    with _providers(3) as (_, hosts):
        url = "cluster://" + ",".join(hosts) + "?cache=1"
        print(f"cached fleet up at {url}")

        from repro.api import EncryptedDatabase
        from repro.crypto.rng import DeterministicRng
        from repro.workloads.distributions import ZipfDistribution

        with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
            db.create_table(
                "Smoke(name:string[10], value:int[4])",
                rows=[(f"row{i}", i % 3) for i in range(NUM_ROWS)],
            )
            # A skewed read burst: the hot keys repeat, so the session's
            # cache must absorb most of the scatter round trips.
            distribution = ZipfDistribution(range(NUM_ROWS), exponent=1.3)
            for index in distribution.sample_many(DeterministicRng(6), 40):
                hits = db.select(f"SELECT * FROM Smoke WHERE name = 'row{index}'")
                if len(hits.relation) != 1:
                    print(
                        f"FAIL: point select for row{index} answered "
                        f"{len(hits.relation)} rows"
                    )
                    return 1
            stats = db.cache.stats()
            if stats["hits"] == 0 or stats["hit_ratio"] <= 0.0:
                print(f"FAIL: zipfian burst never hit the cache: {stats}")
                return 1
            print(
                f"zipfian burst hit ratio {stats['hit_ratio']:.2f} "
                f"({stats['hits']} hits / {stats['misses']} misses)"
            )

            # The write path must invalidate: after a fleet-wide delete,
            # a full re-read sweep may serve zero stale rows.
            if db.delete("SELECT * FROM Smoke WHERE value = 2") != NUM_ROWS // 3:
                print("FAIL: cached-fleet delete mismatch")
                return 1
            if len(db.select("SELECT * FROM Smoke WHERE value = 2").relation) != 0:
                print("FAIL: stale rows served after delete")
                return 1
            for index in range(NUM_ROWS):
                rows = db.select(
                    f"SELECT * FROM Smoke WHERE name = 'row{index}'"
                ).relation
                expected = 0 if index % 3 == 2 else 1
                if len(rows) != expected:
                    print(
                        f"FAIL: stale cached answer for row{index}: "
                        f"{len(rows)} rows (expected {expected})"
                    )
                    return 1
            after = db.cache.stats()["invalidations"]
            if after <= stats["invalidations"]:
                print(f"FAIL: the delete did not bump invalidations ({after})")
                return 1
            print(f"delete invalidated the cache ({after}), zero stale re-reads")
        return 0


PHASES = (
    smoke_scatter_gather_crud,
    smoke_replicated_failover,
    smoke_async_transport,
    smoke_indexed_fleet,
    smoke_metrics_plane,
    smoke_cache_tier,
)


def main() -> int:
    for phase in PHASES:
        exit_code = phase()
        if exit_code != 0:
            return exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
