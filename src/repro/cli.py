"""Command-line interface.

Installed as ``python -m repro.cli`` (or imported and called programmatically),
the CLI exposes the reproduction's main entry points without writing any code:

``experiments``
    Run one or all of the experiments (E1-E9 and the ablation A1) with the
    parameters the registry declares and print the resulting tables.

``demo``
    Outsource a synthetic employee database with a chosen scheme and run a few
    exact selects against the untrusted server, printing what the provider
    observed.

``attack``
    Run one of the paper's attacks (``salary-pair``, ``hospital``, ``john``)
    and report the outcome.

``serve``
    Run a standalone untrusted provider over TCP (see :mod:`repro.net`),
    optionally file-backed, until interrupted.  Each connection is served
    serially on a thread of its own; requests touching different relations
    run in parallel, and requests touching one relation never overlap.
    Sessions connect with
    ``EncryptedDatabase.connect("tcp://host:port")`` over a pool of
    blocking connections; an ``async=1`` option has no effect.

``stats`` / ``trace``
    The observability plane of a running provider or fleet: ``stats``
    scrapes the merged metrics snapshot (counters, gauges, p50/p95/p99
    latency summaries; ``--prometheus`` for the text exposition format)
    and ``trace`` lists recent end-to-end traces and slow queries, or
    assembles one trace by id across every shard.  Both accept a
    ``tcp://`` or ``cluster://`` URL and ``--watch SECONDS``.

``cluster``
    Sharded multi-provider tools (see :mod:`repro.cluster`): ``spawn`` a
    local fleet of providers on ephemeral ports (``--manifest`` persists
    the topology for ``cluster+file://`` sessions), ``route`` keys through
    the deterministic placement ring offline (including the per-key replica
    sets of a ``?replicas=R`` deployment), and ``status`` a running fleet
    (relations and counts by envelope, transport numbers from the ``stats``
    read-out; by URL or ``--manifest``).  Sessions
    connect with
    ``EncryptedDatabase.connect("cluster://h1:p1,...[?replicas=R]")``; the
    fleet scatters in the caller's thread (every shard's envelope sent,
    then the answers read in turn; a shard that misses ``shard_timeout``
    has its connection closed), and ``async=1`` has no effect on a cluster
    URL.

Examples::

    python -m repro.cli experiments --only E1 E4
    python -m repro.cli demo --scheme swp --size 500
    python -m repro.cli attack hospital --size 2000
    python -m repro.cli serve --port 7707 --data-dir /var/lib/repro
    python -m repro.cli cluster spawn --shards 4
    python -m repro.cli cluster status cluster://127.0.0.1:7707,127.0.0.1:7708
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
import time
from typing import Callable, Sequence

from repro.api import EncryptedDatabase
from repro.crypto.keys import SecretKey
from repro.experiments import EXPERIMENTS
from repro.outsourcing import OutsourcedDatabaseServer, request
from repro.outsourcing.protocol import MessageKind
from repro.schemes.registry import available_schemes, create as create_scheme
from repro.security import IndistinguishabilityGame
from repro.security.attacks import (
    SalaryPairAdversary,
    run_active_query_attack,
    run_hospital_inference,
)
from repro.workloads import EmployeeWorkload, HospitalWorkload

def build_scheme(name: str, schema):
    """Instantiate a freshly keyed scheme by registry name."""
    return create_scheme(name, schema, SecretKey.generate())


def relation_counts(provider) -> dict[str, int]:
    """Each relation a provider stores, with its tuple count (two envelope kinds)."""
    names = request(provider, MessageKind.RELATION_NAMES, "")
    return {name: request(provider, MessageKind.TUPLE_COUNT, name) for name in names}


def command_experiments(args: argparse.Namespace) -> int:
    """Run registered experiments and print their tables."""
    wanted = {identifier.upper() for identifier in (args.only or [])}
    unknown = wanted - {spec.identifier for spec in EXPERIMENTS}
    if unknown:
        print(f"unknown experiment id(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    for spec in EXPERIMENTS:
        if wanted and spec.identifier not in wanted:
            continue
        print(f"[{spec.identifier}] {spec.title}")
        result = spec.run()
        print(result.to_table().render())
        print()
    return 0


def command_demo(args: argparse.Namespace) -> int:
    """Outsource a synthetic employee relation and run a few queries."""
    workload = EmployeeWorkload.generate(args.size, seed=args.seed)
    server = OutsourcedDatabaseServer()
    db = EncryptedDatabase.open(server=server, scheme=args.scheme)
    table = db.create_table(
        workload.schema, rows=[tuple(row.values()) for row in workload.relation]
    )
    print(
        f"Outsourced {workload.size} tuples with {table.scheme.name}: "
        f"{server.storage_in_bytes('Emp')} ciphertext bytes."
    )

    statements = [
        "SELECT * FROM Emp WHERE dept = 'HR'",
        f"SELECT name, salary FROM Emp WHERE name = 'emp{args.size // 2}'",
    ]
    for statement in statements:
        outcome = db.select(statement)
        print(f"{statement}")
        print(
            f"  -> {len(outcome.relation)} tuple(s), "
            f"{outcome.false_positives} false positive(s) filtered"
        )
    print(f"Provider's view: {server.audit_log.summary()}")
    return 0


def command_attack(args: argparse.Namespace) -> int:
    """Run one of the paper's attacks."""
    if args.attack == "salary-pair":
        scheme = args.scheme or "bucketization"
        table_schema = SalaryPairAdversary().schema

        def factory(schema, rng):
            return build_scheme(scheme, schema)

        result = IndistinguishabilityGame(factory, scheme).run(
            SalaryPairAdversary(), trials=args.trials, seed=args.seed
        )
        print(
            f"salary-pair attack vs {scheme} (schema {table_schema.name}): "
            f"success {result.success_rate:.2f}, advantage {result.advantage:+.2f} "
            f"over {result.trials} trials"
        )
        return 0

    workload = HospitalWorkload.generate(args.size, target_name="John", seed=args.seed)
    dph = build_scheme("index", workload.schema)
    if args.attack == "hospital":
        result = run_hospital_inference(dph, workload)
        print(f"query identification correct: {result.identification_correct}")
        for hospital in sorted(result.true_fatality):
            print(
                f"  hospital {hospital}: estimated fatality "
                f"{result.estimated_fatality[hospital]:.4f} "
                f"(true {result.true_fatality[hospital]:.4f})"
            )
        return 0
    if args.attack == "john":
        result = run_active_query_attack(dph, workload)
        print(
            f"target {result.target_name!r}: hospital {result.inferred_hospital} "
            f"(true {result.true_hospital}), outcome {result.inferred_outcome!r} "
            f"(true {result.true_outcome!r}), oracle queries {result.oracle_queries_used}"
        )
        return 0
    print(f"unknown attack {args.attack!r}", file=sys.stderr)
    return 2


def command_serve(args: argparse.Namespace) -> int:
    """Run a standalone TCP provider until interrupted."""
    from repro.net.server import DatabaseTcpServer, throughput_summary
    from repro.outsourcing import (
        FileStorageBackend,
        OutsourcedDatabaseServer,
        ServerAuditLog,
    )

    storage = FileStorageBackend(args.data_dir) if args.data_dir else None
    database = OutsourcedDatabaseServer(
        # A long-running provider caps its observation log; the full view
        # only matters to the in-process security experiments.
        audit_log=ServerAuditLog(max_events=args.max_audit_events),
        storage=storage,
        slow_query_threshold=args.slow_query_threshold,
    )
    tcp = DatabaseTcpServer(
        database, host=args.host, port=args.port, max_frame_size=args.max_frame_size
    )

    def _index_summary() -> str:
        stats = database.index_stats()
        return (
            f"{len(stats['indexed_relations'])} indexed relation(s), "
            f"{stats['puts']} put(s), {stats['deltas']} delta(s), "
            f"{stats['lookups']} lookup(s), {stats['scan_fallbacks']} scan fallback(s)"
        )

    def _report_stats() -> None:
        from repro.obs import log_json

        # One JSON record per interval (instead of a prose line), so log
        # shippers and `jq` consume the periodic state without a parser.
        log_json(
            "stats",
            transport=tcp.stats,
            index=database.index_stats(),
            slow_queries=len(database.slow_queries),
        )

    tcp.start()
    host, port = tcp.address
    where = "in-memory"
    if storage:
        where = f"{len(relation_counts(database))} relation(s) on disk"
    print(f"repro provider listening on tcp://{host}:{port} ({where})", flush=True)
    _wait_for_signal(args.stats_interval, _report_stats)
    print("repro provider shutting down...", flush=True)
    tcp.stop()
    print(
        f"repro provider stopped: {throughput_summary(tcp.stats)}; "
        f"index: {_index_summary()}",
        flush=True,
    )
    return 0


def _wait_for_signal(interval: float = 0.0, tick: Callable[[], None] | None = None) -> None:
    """Block until SIGINT or SIGTERM; call ``tick`` every ``interval`` seconds (0: never)."""

    def interrupt(signum, frame) -> None:
        raise KeyboardInterrupt

    previous = {
        signum: signal.signal(signum, interrupt) for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        while True:
            time.sleep(interval or 3600.0)
            if interval and tick is not None:
                tick()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def command_cluster_spawn(args: argparse.Namespace) -> int:
    """Run a local fleet of providers (ephemeral ports) until interrupted."""
    from repro.net.server import DatabaseTcpServer, throughput_summary
    from repro.outsourcing import (
        FileStorageBackend,
        OutsourcedDatabaseServer,
        ServerAuditLog,
    )

    if args.shards < 1:
        print(f"--shards must be positive, got {args.shards}", file=sys.stderr)
        return 2
    if args.replicas < 1:
        print(f"--replicas must be positive, got {args.replicas}", file=sys.stderr)
        return 2
    if args.replicas > args.shards:
        print(
            f"--replicas {args.replicas} needs at least that many shards, "
            f"got {args.shards}",
            file=sys.stderr,
        )
        return 2

    def make_database(index: int) -> OutsourcedDatabaseServer:
        storage = None
        if args.data_dir:
            storage = FileStorageBackend(f"{args.data_dir}/shard-{index}")
        return OutsourcedDatabaseServer(
            audit_log=ServerAuditLog(max_events=args.max_audit_events),
            storage=storage,
        )

    servers = [
        DatabaseTcpServer(make_database(index), host=args.host, port=0)
        for index in range(args.shards)
    ]
    for server in servers:
        server.start()
    addresses = []
    for index, server in enumerate(servers):
        host, port = server.address
        addresses.append(f"{host}:{port}")
        print(f"repro cluster shard {index} listening on tcp://{host}:{port}", flush=True)
    url = f"cluster://{','.join(addresses)}"
    if args.replicas > 1:
        url += f"?replicas={args.replicas}"
        print(
            f"repro cluster replication: every tuple stored on "
            f"{args.replicas} of {args.shards} shard(s); reads stay "
            f"complete with up to {args.replicas - 1} shard(s) down",
            flush=True,
        )
    if args.manifest:
        from repro.cluster import ClusterManifest, ShardEntry

        # Shard ids deliberately equal the URLs: that is the id a plain
        # cluster:// session derives, so both advertised ways of
        # connecting to this fleet build the *identical* placement
        # ring.  Hand-author symbolic ids only for fleets whose
        # addresses change while their data persists (then rebalance
        # or keep sessions manifest-only).
        manifest = ClusterManifest(
            shards=tuple(
                ShardEntry(shard_id=f"tcp://{address}", url=f"tcp://{address}")
                for address in addresses
            ),
            replicas=args.replicas,
        )
        path = manifest.save(args.manifest)
        print(f"repro cluster manifest written: {path}", flush=True)
        print(
            f"repro cluster sessions can restore topology with "
            f"cluster+file://{path}",
            flush=True,
        )
    print(f"repro cluster ready: {url}", flush=True)
    _wait_for_signal()
    print("repro cluster shutting down...", flush=True)
    for server in servers:
        server.stop()
    for index, server in enumerate(servers):
        print(f"repro cluster shard {index} stopped: "
              f"{throughput_summary(server.stats)}", flush=True)
    return 0


def command_cluster_route(args: argparse.Namespace) -> int:
    """Show the deterministic ring placement for a cluster URL (offline)."""
    from collections import Counter

    from repro.cluster import (
        ClusterError,
        ConsistentHashRing,
        DEFAULT_VIRTUAL_NODES,
        parse_cluster_options,
    )

    try:
        shard_urls, options = parse_cluster_options(args.url)
    except ClusterError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    replicas = args.replicas if args.replicas is not None else options.get("replicas", 1)
    if replicas < 1:
        print(f"--replicas must be positive, got {replicas}", file=sys.stderr)
        return 2
    if replicas > len(shard_urls):
        print(
            f"--replicas {replicas} needs at least that many shards, "
            f"got {len(shard_urls)}",
            file=sys.stderr,
        )
        return 2
    virtual_nodes = (
        args.virtual_nodes if args.virtual_nodes is not None else DEFAULT_VIRTUAL_NODES
    )
    if virtual_nodes < 1:
        print(f"--virtual-nodes must be positive, got {virtual_nodes}", file=sys.stderr)
        return 2
    ring = ConsistentHashRing(shard_urls, virtual_nodes=virtual_nodes)
    if args.key is not None:
        try:
            key = bytes.fromhex(args.key)
        except ValueError:
            print(f"--key must be hex, got {args.key!r}", file=sys.stderr)
            return 2
        print(f"{args.key} -> {', '.join(ring.successors(key, replicas))}")
        return 0
    if args.keys < 1:
        print(f"--keys must be positive, got {args.keys}", file=sys.stderr)
        return 2
    keys = [f"key-{i}".encode("ascii") for i in range(args.keys)]
    copies = Counter({shard_url: 0 for shard_url in shard_urls})
    for key in keys:
        copies.update(ring.successors(key, replicas))
    total_copies = args.keys * replicas
    mean = total_copies / len(shard_urls)
    print(
        f"ring of {len(shard_urls)} shard(s), replication factor {replicas}, "
        f"{virtual_nodes} virtual nodes, {args.keys} sample keys "
        f"({total_copies} copies):"
    )
    worst = 0.0
    for shard_url in shard_urls:
        count = copies[shard_url]
        deviation = (count - mean) / mean if mean else 0.0
        worst = max(worst, abs(deviation))
        print(
            f"  {shard_url}: {count} copies "
            f"({count / total_copies:.1%}, {deviation:+.1%} of fair share)"
        )
    print(f"max deviation from fair share: {worst:.1%}")
    if replicas > 1:
        print(
            f"every key is stored on {replicas} distinct shard(s); reads stay "
            f"complete with up to {replicas - 1} shard(s) down"
        )
    return 0


def command_cluster_status(args: argparse.Namespace) -> int:
    """Probe every shard of a running fleet: envelopes plus the stats read-out."""
    from repro.cluster import ClusterError, parse_cluster_options
    from repro.net.client import RemoteServerProxy
    from repro.outsourcing import ServerError

    if (args.url is None) == (args.manifest is None):
        print("pass exactly one of a cluster:// URL or --manifest", file=sys.stderr)
        return 2
    if args.manifest is not None:
        from repro.cluster import ManifestError
        from repro.cluster.manifest import ClusterManifest

        try:
            manifest = ClusterManifest.load(args.manifest)
        except ManifestError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        shard_urls = manifest.shard_urls
        replicas = manifest.replicas
        print(
            f"fleet of {len(shard_urls)} shard(s) from manifest {args.manifest} "
            f"(ids: {', '.join(manifest.shard_ids)})"
        )
    else:
        try:
            shard_urls, options = parse_cluster_options(args.url)
        except ClusterError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        replicas = options.get("replicas", 1)
    if replicas < 1 or replicas > len(shard_urls):
        print(
            f"URL replicas={replicas} is impossible for {len(shard_urls)} "
            f"shard(s); no session can run with it",
            file=sys.stderr,
        )
        return 2
    unreachable = 0
    for shard_url in shard_urls:
        try:
            with RemoteServerProxy.connect(
                shard_url, pool_size=1, timeout=args.timeout
            ) as proxy:
                stats = proxy.server_stats()
                counts = relation_counts(proxy)
        except ServerError as exc:
            unreachable += 1
            print(f"{shard_url}: DOWN ({exc})")
            continue
        transport = stats.get("stats", {})
        relations = ", ".join(f"{name}={count}" for name, count in counts.items()) or "none"
        print(
            f"{shard_url}: up, relations: {relations}; "
            f"{transport.get('connections_total', 0)} connection(s), "
            f"{transport.get('envelope_frames', 0)} envelope / "
            f"{transport.get('control_frames', 0)} control frame(s), "
            f"{transport.get('bytes_received', 0)} B in / "
            f"{transport.get('bytes_sent', 0)} B out"
        )
        indexes = stats.get("indexes")
        if indexes:
            indexed = ", ".join(indexes.get("indexed_relations", [])) or "none"
            print(
                f"  index: relations: {indexed}; "
                f"{indexes.get('puts', 0)} put(s), "
                f"{indexes.get('deltas', 0)} delta(s), "
                f"{indexes.get('lookups', 0)} lookup(s), "
                f"{indexes.get('scan_fallbacks', 0)} scan fallback(s)"
            )
    print(f"{len(shard_urls) - unreachable}/{len(shard_urls)} shard(s) up")
    if replicas > 1:
        tolerated = replicas - 1
        if unreachable <= tolerated:
            print(
                f"replication factor {replicas}: reads stay complete "
                f"({unreachable}/{tolerated} tolerated outage(s) in use)"
            )
        else:
            print(
                f"replication factor {replicas}: {unreachable} shard(s) down "
                f"exceeds the {tolerated} the replicas absorb -- reads raise "
                f"until a shard returns"
            )
    return 1 if unreachable else 0


def _observability_shard_urls(url: str) -> list[str] | None:
    """Resolve a ``tcp://`` or ``cluster://`` URL to per-shard TCP URLs."""
    if url.startswith("cluster"):
        from repro.cluster import ClusterError, parse_cluster_options

        try:
            shard_urls, _options = parse_cluster_options(url)
        except ClusterError as exc:
            print(str(exc), file=sys.stderr)
            return None
        return list(shard_urls)
    return [url]


def _each_watch_tick(interval: float | None):
    """Yield once, or forever every ``interval`` seconds (Ctrl-C stops)."""
    import time as _time

    yield 0
    tick = 0
    while interval is not None:
        try:
            _time.sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return
        tick += 1
        print(flush=True)
        yield tick


def command_stats(args: argparse.Namespace) -> int:
    """Scrape and merge the metrics plane of a provider or a whole fleet."""
    from repro.net.client import RemoteError, RemoteServerProxy
    from repro.obs import histogram_summaries, merge_snapshots, render_prometheus

    shard_urls = _observability_shard_urls(args.url)
    if shard_urls is None:
        return 2

    def scrape() -> int:
        snapshots = []
        kernels = []
        unreachable = 0
        for shard_url in shard_urls:
            try:
                with RemoteServerProxy.connect(
                    shard_url, pool_size=1, timeout=args.timeout
                ) as proxy:
                    snapshot = proxy.metrics().get("metrics")
            except RemoteError as exc:
                unreachable += 1
                print(f"{shard_url}: DOWN ({exc})", file=sys.stderr)
                continue
            if snapshot:
                snapshots.append(snapshot)
                impl = next((g["labels"].get("impl") for g in snapshot.get("gauges", ())
                             if g["name"] == "match_kernel" and g["value"]), "unknown")
                kernels.append(f"  {shard_url}: match kernel: {impl}")
        merged = merge_snapshots(*snapshots)
        if args.prometheus:
            sys.stdout.write(render_prometheus(merged))
            return 1 if unreachable else 0
        print(
            f"metrics from {len(shard_urls) - unreachable}/{len(shard_urls)} "
            f"shard(s)"
        )
        for line in kernels:
            print(line)
        for kind in ("counters", "gauges"):
            for entry in sorted(
                merged[kind], key=lambda e: (e["name"], sorted(e["labels"].items()))
            ):
                print(f"  {_metric_label(entry)} {entry['value']}")
        summaries = histogram_summaries(merged)
        if summaries:
            print("latency (seconds):")
        for entry in sorted(
            summaries, key=lambda e: (e["name"], sorted(e["labels"].items()))
        ):
            print(
                f"  {_metric_label(entry)} count={entry['count']} "
                f"mean={entry['mean']:.6f} p50={entry['p50']:.6f} "
                f"p95={entry['p95']:.6f} p99={entry['p99']:.6f}"
            )
        return 1 if unreachable else 0

    status = 0
    for _ in _each_watch_tick(args.watch):
        status = scrape()
    return status


def _metric_label(entry: dict) -> str:
    labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
    return f"{entry['name']}{{{labels}}}" if labels else entry["name"]


def command_trace(args: argparse.Namespace) -> int:
    """List recent traces / slow queries, or assemble one trace by id."""
    from repro.net.client import RemoteError, RemoteServerProxy

    shard_urls = _observability_shard_urls(args.url)
    if shard_urls is None:
        return 2
    trace_id = None
    if args.trace_id is not None:
        try:
            trace_id = bytes.fromhex(args.trace_id)
        except ValueError:
            print(f"--trace-id {args.trace_id!r} is not hex", file=sys.stderr)
            return 2

    def poll() -> int:
        unreachable = 0
        spans: list[dict] = []
        for shard_url in shard_urls:
            try:
                with RemoteServerProxy.connect(
                    shard_url, pool_size=1, timeout=args.timeout
                ) as proxy:
                    if trace_id is not None:
                        spans.extend(proxy.collect_trace(trace_id))
                        continue
                    recent = proxy.recent_traces(args.limit)
            except RemoteError as exc:
                unreachable += 1
                print(f"{shard_url}: DOWN ({exc})", file=sys.stderr)
                continue
            traces = recent.get("traces", ())
            slow = recent.get("slow", ())
            print(f"{shard_url}: {len(traces)} recent trace(s), {len(slow)} slow")
            for trace in traces:
                _print_trace(trace)
            if slow:
                print("  slow queries:")
                for entry in slow:
                    print(
                        f"    {entry['trace_id']} {entry['duration_s']:.6f}s "
                        f"({entry.get('span_count', len(entry.get('spans', ())))} span(s))"
                    )
        if trace_id is not None:
            if not spans:
                print(f"trace {trace_id.hex()}: not found on any shard")
                return 1
            _print_trace({"trace_id": trace_id.hex(), "spans": spans})
        return 1 if unreachable else 0

    status = 0
    for _ in _each_watch_tick(args.watch):
        status = poll()
    return status


def _print_trace(trace: dict) -> None:
    spans = sorted(trace.get("spans", ()), key=lambda s: s.get("start_s", 0.0))
    print(f"  trace {trace['trace_id']}:")
    if not spans:
        return
    origin = spans[0].get("start_s", 0.0)
    for span in spans:
        offset_ms = (span.get("start_s", 0.0) - origin) * 1000.0
        duration_ms = span.get("duration_s", 0.0) * 1000.0
        annotations = span.get("annotations") or {}
        suffix = " ".join(f"{k}={v}" for k, v in sorted(annotations.items()))
        line = f"    +{offset_ms:9.3f}ms {duration_ms:9.3f}ms {span['name']}"
        print(f"{line}  {suffix}" if suffix else line)


def _integer(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer from ``low`` up to ``high`` (if given)."""
    wanted = f">= {low}" if high is None else f"in [{low}, {high}]"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"want an integer {wanted}, got {text!r}")
        return value

    return parse


_count = _integer(0)
_positive = _integer(1)
_port = _integer(0, 65535)


def _seconds(text: str, zero_allowed: bool = False) -> float:
    """An argparse type: a finite number of seconds greater than zero
    (or equal to it, when ``zero_allowed``)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and (value > 0 or zero_allowed and value == 0)):
        wanted = ">= 0" if zero_allowed else "> 0"
        raise argparse.ArgumentTypeError(
            f"want a number of seconds (finite and {wanted}), got {text!r}"
        )
    return value


def _interval(text: str) -> float:
    """An argparse type: :func:`_seconds`, where 0 means never."""
    return _seconds(text, zero_allowed=True)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Provable Security for Outsourcing Database Operations' (ICDE 2006)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser("experiments", help="run E1-E9 and A1 with their registered parameters")
    experiments.add_argument("--only", nargs="*", metavar="ID", help="experiment ids, e.g. E1 E4")
    experiments.set_defaults(handler=command_experiments)

    demo = subparsers.add_parser("demo", help="outsource a synthetic employee database")
    demo.add_argument("--scheme", choices=available_schemes(), default="swp")
    demo.add_argument("--size", type=_count, default=500)
    demo.add_argument("--seed", type=int, default=0)
    demo.set_defaults(handler=command_demo)

    attack = subparsers.add_parser("attack", help="run one of the paper's attacks")
    attack.add_argument("attack", choices=("salary-pair", "hospital", "john"))
    attack.add_argument("--scheme", choices=available_schemes(), default=None,
                        help="target scheme for salary-pair (default bucketization)")
    attack.add_argument("--size", type=_positive, default=1000, help="hospital database size")
    attack.add_argument("--trials", type=_positive, default=100,
                        help="game trials for salary-pair")
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(handler=command_attack)

    serve = subparsers.add_parser("serve", help="run a standalone TCP provider")
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=_port, default=7707,
                       help="bind port (0 picks an ephemeral one)")
    serve.add_argument("--data-dir", default=None, metavar="DIR",
                       help="persist relations as files under DIR (default in-memory)")
    serve.add_argument("--max-audit-events", type=_positive, default=10_000,
                       help="ring-buffer cap on the provider's audit log")
    serve.add_argument("--max-frame-size", type=_positive, default=64 * 1024 * 1024,
                       help="reject frames larger than this many bytes")
    serve.add_argument("--stats-interval", type=_interval, default=0.0, metavar="SECONDS",
                       help="log a transport-stats line every SECONDS (0 disables)")
    serve.add_argument("--slow-query-threshold", type=float, default=1.0,
                       metavar="SECONDS",
                       help="traced requests slower than this land in the "
                            "slow-query log (inspect with `repro trace`)")
    serve.set_defaults(handler=command_serve)

    cluster = subparsers.add_parser("cluster", help="sharded multi-provider tools")
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    spawn = cluster_sub.add_parser(
        "spawn", help="run a local fleet of providers on ephemeral ports")
    spawn.add_argument("--shards", type=int, default=2, help="number of providers")
    spawn.add_argument("--replicas", type=int, default=1,
                       help="replication factor advertised in the cluster URL "
                            "(tuples stored on this many shards)")
    spawn.add_argument("--host", default="127.0.0.1", help="bind address")
    spawn.add_argument("--data-dir", default=None, metavar="DIR",
                       help="persist each shard under DIR/shard-<i> (default in-memory)")
    spawn.add_argument("--max-audit-events", type=_positive, default=10_000,
                       help="ring-buffer cap on each provider's audit log")
    spawn.add_argument("--manifest", default=None, metavar="FILE",
                       help="write the fleet topology (shard ids/addresses, "
                            "replication, ring config) to FILE; sessions restore "
                            "it with cluster+file://FILE")
    spawn.set_defaults(handler=command_cluster_spawn)

    route = cluster_sub.add_parser(
        "route", help="show the deterministic ring placement (offline)")
    route.add_argument("url", help="cluster://host:port,...[?replicas=R] URL")
    route.add_argument("--keys", type=int, default=10_000,
                       help="number of sample keys for the distribution")
    route.add_argument("--key", default=None, metavar="HEX",
                       help="show the replica shards of one key instead")
    route.add_argument("--replicas", type=int, default=None,
                       help="replication factor (default: the URL's ?replicas, else 1)")
    route.add_argument("--virtual-nodes", type=int, default=None,
                       help="virtual nodes per shard (default: the ring's default)")
    route.set_defaults(handler=command_cluster_route)

    status = cluster_sub.add_parser(
        "status", help="probe every shard of a running fleet")
    status.add_argument("url", nargs="?", default=None,
                        help="cluster://host:port,...[?replicas=R] URL")
    status.add_argument("--manifest", default=None, metavar="FILE",
                        help="read the fleet topology from a manifest file "
                             "instead of a URL")
    status.add_argument("--timeout", type=_seconds, default=10.0,
                        help="per-shard connection timeout in seconds")
    status.set_defaults(handler=command_cluster_status)

    stats_cmd = subparsers.add_parser(
        "stats", help="scrape the metrics plane of a provider or fleet")
    stats_cmd.add_argument("url", help="tcp://host:port or cluster://host:port,... URL")
    stats_cmd.add_argument("--prometheus", action="store_true",
                           help="print the Prometheus text exposition instead "
                                "of the human summary")
    stats_cmd.add_argument("--watch", type=_seconds, default=None, metavar="SECONDS",
                           help="rescrape every SECONDS until interrupted")
    stats_cmd.add_argument("--timeout", type=_seconds, default=10.0,
                           help="per-shard connection timeout in seconds")
    stats_cmd.set_defaults(handler=command_stats)

    trace_cmd = subparsers.add_parser(
        "trace", help="inspect recent traces and slow queries of a provider or fleet")
    trace_cmd.add_argument("url", help="tcp://host:port or cluster://host:port,... URL")
    trace_cmd.add_argument("--trace-id", default=None, metavar="HEX",
                           help="assemble one trace by id across every shard "
                                "instead of listing recent ones")
    trace_cmd.add_argument("--limit", type=_count, default=10,
                           help="recent traces / slow queries to show per shard")
    trace_cmd.add_argument("--watch", type=_seconds, default=None, metavar="SECONDS",
                           help="re-poll every SECONDS until interrupted")
    trace_cmd.add_argument("--timeout", type=_seconds, default=10.0,
                           help="per-shard connection timeout in seconds")
    trace_cmd.set_defaults(handler=command_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
