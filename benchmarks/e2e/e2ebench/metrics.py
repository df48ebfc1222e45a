"""Turn a :class:`~e2ebench.harness.Run` into the declared metrics.

End-to-end values come from untraced runs; per-layer values from traced
runs, whose segments alternate untraced / traced over the same stream.
Times are at reference speed (see :mod:`e2ebench.calibrate`), with the
median as the clocks read it beside them as ``raw``.  A value is a dict with ``value`` and, where it is a median over segments,
``q1``/``q3``/``n`` (sample count) beside it.  Ratios carry their bases as
``num``/``den``.
"""

from __future__ import annotations

import statistics

from .harness import Run
from .trace import self_times


def summary(samples: list[float]) -> dict:
    """Median with quartiles and the sample count."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"value": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def ratio(numerator: float, denominator: float, scale: float = 1.0) -> dict:
    """``scale * numerator / denominator`` with its bases (0 over an empty base)."""
    value = scale * numerator / denominator if denominator else 0.0
    return {"value": value, "num": numerator, "den": denominator}


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile by nearest rank (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(run: Run) -> dict[str, dict]:
    """The end-to-end metrics of an untraced run."""
    segments = run.segments
    values = {
        "setup_s": summary(run.setup_samples),
        "ops_per_s": summary([s.ops / s.busy_ref for s in segments]),
        "select_p50_ms": summary([s.median_ms("select") for s in segments]),
        "rows_per_s": summary([s.rows / sum(s.latencies_ref["select"]) for s in segments]),
        "cpu_ms_per_op": summary([s.cpu_ref / s.ops * 1e3 for s in segments]),
        "peak_rss_mb": {"value": run.peak_rss_mib},
    }
    raw = {
        "setup_s": run.setup_raw,
        "ops_per_s": [s.ops / s.busy for s in segments],
        "select_p50_ms": [s.median_ms("select", ref=False) for s in segments],
        "rows_per_s": [s.rows / sum(s.latencies["select"]) for s in segments],
        "cpu_ms_per_op": [s.cpu / s.ops * 1e3 for s in segments],
    }
    for name, samples in raw.items():
        values[name]["raw"] = statistics.median(samples)
    values["select_p50_ms"]["samples_per_segment"] = len(segments[0].latencies["select"])
    return values


def per_layer(run: Run) -> dict[str, dict]:
    """The per-layer metrics of a traced run."""
    spans = run.recorder.spans
    own = self_times(spans)
    setup_op = next(s.op for s in spans if s.name == "create_table")
    kind_of = {s.op: s.name for s in spans if s.parent < 0}

    grouped: dict = {}
    for index, span in enumerate(spans):
        grouped.setdefault((span.layer, span.op == setup_op), []).append((index, span))

    def spans_of(layer: str, names=None, setup: bool = False):
        for index, span in grouped.get((layer, setup), ()):
            if names is None or span.name.startswith(names):
                yield index, span

    def seconds(layer: str, names=None, setup: bool = False) -> float:
        return sum(own[i] for i, _ in spans_of(layer, names, setup))

    def noted(key: str, layer: str, names=None, setup: bool = False) -> float:
        return sum(s.notes.get(key, 0) for _, s in spans_of(layer, names, setup))

    def provider(name: str, **labels) -> tuple[int, float]:
        """Count and sum of a provider-side instrument over the traced segments."""
        count, total = 0, 0.0
        for (metric, metric_labels), (c, t) in run.provider_delta.items():
            if metric == name and labels.items() <= dict(metric_labels).items():
                count, total = count + c, total + t
        return count, total

    traced = [s for s in run.segments if s.traced]
    plain = [s for s in run.segments if not s.traced]
    ops = sum(s.ops for s in traced)
    plain_ops = sum(s.ops for s in plain)

    def latency(kind: str, q: float) -> dict:
        """A percentile (ms) of one kind's latencies over the untraced segments."""
        pooled = [x * 1e3 for s in plain for x in s.latencies_ref.get(kind, ())]
        return {"value": percentile(pooled, q), "n": len(pooled)}

    api_total = sum(s.duration for _, s in spans_of("api"))
    server_layer = run.spec.server_layer
    server_calls = sum(1 for _ in spans_of(server_layer))
    server_seconds = seconds(server_layer)
    handle_seconds = seconds(server_layer, ("handle_message",))
    handle_calls = sum(1 for _ in spans_of(server_layer, ("handle_message",)))

    provider_ops, provider_seconds = provider("provider_op_seconds")
    queue_count, queue_seconds = provider("server_dispatch_queue_seconds")
    shard_count, shard_seconds = provider("cluster_shard_seconds")
    read_seconds = sum(
        provider("provider_op_seconds", op_kind=kind)[1]
        for kind in ("query", "index-lookup")
    )
    lookup_count, lookup_seconds = provider("index_lookup_seconds", access_method="index")

    remote = run.spec.providers > 0
    clustered = run.spec.providers > 1
    if clustered:
        # Shard round trips are timed by the router; what the providers
        # report is taken out of them, as for a single tcp:// provider.
        trips, trip_seconds = shard_count, shard_seconds
    else:
        trips, trip_seconds = handle_calls, handle_seconds
    if remote:
        provider_cpu = ratio(
            sum(s.cpu_ref - s.client_cpu_ref for s in run.segments),
            sum(s.ops for s in run.segments), 1e3)
    else:
        provider_cpu = ratio(noted("cpu", "outsourcing"), ops, 1e3)

    examined = noted("examined", "protocol")
    returned = noted("returned", "protocol")
    candidates = noted("rows", "schemes", ("decrypt_result",))
    decrypted = noted("rows", "schemes", ("decrypt_",))
    encrypted = noted("rows", "schemes", ("encrypt_relation",), setup=True) + noted(
        "rows", "schemes", ("encrypt_tuple",)
    )
    insert_deltas = [
        s.notes["bytes"]
        for _, s in spans_of("protocol", ("encode_index_delta",))
        if kind_of[s.op] == "insert"
    ]
    cache = run.cache_delta or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    traced_ms = statistics.median(s.busy_ref / s.ops for s in traced) * 1e3
    plain_ms = statistics.median(s.busy_ref / s.ops for s in plain) * 1e3

    return {
        "api.select_p95_ms": latency("select", 0.95),
        "api.write_p50_ms": latency("insert", 0.50),
        "api.write_p95_ms": latency("insert", 0.95),
        "api.update_p50_ms": latency("update", 0.50),
        "api.delete_p50_ms": latency("delete", 0.50),
        "api.self_ms_per_op": ratio(seconds("api"), ops, 1e3),
        "api.client_cpu_ms_per_op": ratio(
            sum(s.client_cpu_ref for s in plain), plain_ops, 1e3),
        "relational.parse_ms_per_op": ratio(seconds("relational"), ops, 1e3),
        "relational.parse_calls_per_op": ratio(sum(1 for _ in spans_of("relational")), ops),
        "schemes.encrypt_query_ms_per_op": ratio(
            seconds("schemes", ("encrypt_query",)), ops, 1e3),
        "schemes.encrypt_tuple_us_per_row": ratio(
            seconds("schemes", ("encrypt_relation",), setup=True)
            + seconds("schemes", ("encrypt_tuple",)), encrypted, 1e6),
        "schemes.decrypt_filter_us_per_row": ratio(
            seconds("schemes", ("decrypt_",)), decrypted, 1e6),
        "schemes.false_positive_share": ratio(
            noted("false_positives", "schemes"), candidates),
        "schemes.ciphertext_expansion": ratio(
            noted("bytes", "protocol", ("encode_encrypted_relation",), setup=True),
            run.plaintext_bytes),
        "protocol.encode_ms_per_op": ratio(seconds("protocol", ("encode_",)), ops, 1e3),
        "protocol.decode_ms_per_op": ratio(
            seconds("protocol", ("decode_", "parse_message")), ops, 1e3),
        "protocol.request_bytes_per_op": ratio(noted("request", server_layer), ops),
        "protocol.response_bytes_per_op": ratio(noted("response", server_layer), ops),
        "net.round_trips_per_op": ratio(server_calls, ops),
        "net.round_trip_self_ms": ratio(
            trip_seconds - queue_seconds - provider_seconds if remote else 0.0, trips, 1e3),
        "net.dispatch_queue_ms": ratio(queue_seconds, queue_count, 1e3),
        "net.reconnects": {"value": provider("server_connections_total")[0]},
        "cluster.router_ms_per_op": ratio(
            server_seconds - run.scatter_seconds if clustered else 0.0, ops, 1e3),
        "cluster.shard_requests_per_op": ratio(shard_count, ops),
        "cluster.shard_rtt_ms": ratio(shard_seconds, shard_count, 1e3),
        "cluster.failover_or_degraded_reads": {
            "value": provider("cluster_failover_reads_total")[0]
            + provider("cluster_degraded_reads_total")[0]},
        "outsourcing.provider_ms_per_request": ratio(provider_seconds, provider_ops, 1e3),
        "outsourcing.provider_cpu_ms_per_op": provider_cpu,
        "outsourcing.examined_per_returned": ratio(examined, returned),
        "outsourcing.match_us_per_tuple": ratio(read_seconds, examined, 1e6),
        "outsourcing.error_responses": {
            "value": provider("provider_op_seconds", outcome="error")[0]},
        "index.lookup_ms_per_request": ratio(lookup_seconds, lookup_count, 1e3),
        "index.client_labels_ms_per_op": ratio(seconds("index"), ops, 1e3),
        "index.snapshot_build_s": {"value": seconds("index", ("snapshot",), setup=True)},
        "index.delta_bytes_per_insert": ratio(sum(insert_deltas), len(insert_deltas)),
        "index.scan_fallbacks": {
            "value": provider("index_scan_fallbacks_total")[0]
            + provider("cluster_index_scan_fallbacks_total")[0]},
        "cache.hit_ratio": ratio(cache.get("hits", 0), lookups),
        "cache.lookup_us_per_op": ratio(seconds("cache"), ops, 1e6),
        "cache.invalidations": {"value": cache.get("invalidations", 0)},
        "obs.tracing_overhead_pct": ratio(traced_ms - plain_ms, plain_ms, 100.0),
        "obs.unattributed_share": ratio(seconds("api"), api_total),
    }
