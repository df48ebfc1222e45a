"""Run one workload: deploy, set up, drive the closed loop, check, measure.

One client thread issues the operations one after another through the
blocking session API, so the loop is closed: the next operation is sent
when the previous reply has been checked.  Time is taken around the session
call only; generating operations, checking replies against the oracle and
the calibration probes happen outside the measured intervals.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import statistics
import time
from dataclasses import dataclass, field

from repro import EncryptedDatabase
from repro.crypto.rng import DeterministicRng

from . import trace
from .calibrate import Probe, speed_factor
from .deploy import ProviderFleet, cpu_seconds, peak_rss_mib
from .spec import (
    MIN_SEGMENTS,
    NOMINAL_SEGMENT_SECONDS,
    PLAN_FILL,
    SETUP_ROUNDS,
    WorkloadSpec,
)
from .stream import SCHEMA, TABLE, OpStream, check, make_rows, plaintext_bytes

SCHEME = "swp"


@dataclass
class Segment:
    """What one run of consecutive operations measured.

    A segment is executed chunk by chunk, each chunk between two probes;
    ``busy`` / ``cpu`` / ``latencies`` hold the clocks' readings and the
    ``_ref`` twins the same at reference speed (see :mod:`e2ebench.calibrate`).
    """

    traced: bool
    ops: int = 0
    failed: int = 0
    rows: int = 0
    #: Seconds inside session calls.
    busy: float = 0.0
    busy_ref: float = 0.0
    #: CPU seconds of the client process plus the provider subprocesses.
    cpu: float = 0.0
    cpu_ref: float = 0.0
    client_cpu_ref: float = 0.0
    latencies: dict = field(default_factory=dict)
    latencies_ref: dict = field(default_factory=dict)

    def median_ms(self, kind: str, ref: bool = True) -> float:
        samples = (self.latencies_ref if ref else self.latencies)[kind]
        return statistics.median(samples) * 1e3


@dataclass
class Run:
    """Everything one workload run produced, before metrics are derived."""

    spec: WorkloadSpec
    seed: int
    #: Seconds per create_table round, at reference speed and as measured.
    setup_samples: list
    setup_raw: list
    segments: list
    attempted: int
    failed: int
    errors: list
    peak_rss_mib: float
    wall_s: float
    plaintext_bytes: int
    #: Traced runs only: the spans, and what the provider-side instruments,
    #: the cache counters and the router's scatter spans added over the
    #: traced segments.
    recorder: trace.Recorder | None = None
    provider_delta: dict = field(default_factory=dict)
    cache_delta: dict = field(default_factory=dict)
    scatter_seconds: float = 0.0


@contextlib.contextmanager
def open_session(spec: WorkloadSpec, addresses: list[str], seed: int, recorder):
    """The session of one run; traced runs get the wrappers and the shim."""
    key = hashlib.sha256(f"key/{seed}".encode()).digest()
    rng = DeterministicRng(f"session/{seed}")
    url = spec.url(addresses)
    if recorder is None:
        if url is None:
            db = EncryptedDatabase.open(key, scheme=SCHEME, rng=rng)
        else:
            db = EncryptedDatabase.connect(url, key, scheme=SCHEME, rng=rng)
        with db:
            yield db
        return
    if url is None:
        from repro.outsourcing import OutsourcedDatabaseServer

        inner = OutsourcedDatabaseServer()
    elif url.startswith("cluster://"):
        from repro.cluster import ShardRouter

        inner = ShardRouter.connect(url)
    elif "async=1" in spec.options:
        from repro.net.aio import AsyncRemoteServerProxy

        inner = AsyncRemoteServerProxy.connect(url)
    else:
        from repro.net.client import RemoteServerProxy

        inner = RemoteServerProxy.connect(url)
    restore = trace.instrument(recorder)
    try:
        with EncryptedDatabase.open(
            key,
            server=trace.TimedServer(inner, recorder, spec.server_layer),
            scheme=SCHEME,
            rng=rng,
            index=spec.index,
            cache=True if spec.cache else None,
        ) as db:
            if db.cache is not None:
                trace.instrument_cache(recorder, db.cache)
            yield db
    finally:
        restore()


def execute(db: EncryptedDatabase, op):
    if op.kind == "select":
        return db.select(op.sql)
    if op.kind == "insert":
        return db.insert(TABLE, op.row)
    if op.kind == "update":
        return db.update(op.sql, op.changes)
    return db.delete(op.sql)


def _totals(snapshot: dict) -> dict:
    """``(name, sorted labels) -> (count, sum)`` over a metrics snapshot."""
    totals = {}
    for entry in snapshot.get("histograms", ()):
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        totals[key] = (entry["count"], entry["sum"])
    for entry in snapshot.get("counters", ()):
        key = (entry["name"], tuple(sorted(entry["labels"].items())))
        totals[key] = (entry["value"], 0.0)
    return totals


class Driver:
    """The closed loop over one session: executes, times, checks, calibrates."""

    def __init__(self, db, spec: WorkloadSpec, chunk_ops: int, provider_pids, recorder):
        self.db = db
        self.spec = spec
        self.chunk_ops = chunk_ops
        self.provider_pids = provider_pids
        self.recorder = recorder
        self.probe = Probe(walk_memory=spec.providers > 0)
        self.errors: list[str] = []
        self.provider_delta: dict = {}
        self.cache_delta: dict = {}
        self.scatter_seconds = 0.0

    def create_table(self, rows, traced: bool) -> tuple[float, float]:
        """One set-up round; seconds at reference speed and as measured."""
        recorder = self.recorder
        span = None
        before = self.probe()
        if traced:
            first_span = len(recorder.spans)
            recorder.enabled = True
            span = recorder.begin_op("create_table")
        begin = time.perf_counter()
        self.db.create_table(SCHEMA, rows)
        elapsed = time.perf_counter() - begin
        if traced:
            recorder.finish(span)
            recorder.enabled = False
        factor = speed_factor(before, self.probe())
        if traced:
            recorder.rescale(first_span, factor)
        return elapsed * factor, elapsed

    def run_segment(self, ops, traced: bool = False) -> Segment:
        """Execute ``ops`` chunk by chunk, each chunk between two probes.

        Around a traced segment the provider-side instruments and the cache
        counters are read, and what the segment added to them is kept.
        """
        segment = Segment(traced=traced)
        cache = self.db.cache
        if traced:
            counters = _totals(self.db.metrics_snapshot())
            cache_before = cache.stats() if cache is not None else {}
        for offset in range(0, len(ops), self.chunk_ops):
            self._run_chunk(ops[offset:offset + self.chunk_ops], segment)
        if not traced:
            return segment
        # Provider-side sums cover the whole segment: scale by its mean factor.
        factor = segment.busy_ref / segment.busy
        for key, (count, total) in _totals(self.db.metrics_snapshot()).items():
            base_count, base_total = counters.get(key, (0, 0.0))
            have_count, have_total = self.provider_delta.get(key, (0, 0.0))
            self.provider_delta[key] = (
                have_count + count - base_count,
                have_total + (total - base_total) * factor,
            )
        if cache is not None:
            after = cache.stats()
            for name in ("hits", "misses", "invalidations"):
                self.cache_delta[name] = (
                    self.cache_delta.get(name, 0) + after[name] - cache_before[name]
                )
        return segment

    def _run_chunk(self, ops, segment: Segment) -> None:
        recorder = self.recorder if segment.traced else None
        clustered = self.spec.providers > 1
        db = self.db
        timings = []
        client_cpu = scatter = 0.0
        first_span = len(recorder.spans) if recorder is not None else 0
        before = self.probe()
        provider_cpu = cpu_seconds(self.provider_pids)
        if recorder is not None:
            recorder.enabled = True
        for op in ops:
            span = recorder.begin_op(op.kind) if recorder is not None else None
            cpu = time.process_time()
            start = time.perf_counter()
            try:
                reply = execute(db, op)
                raised = None
            except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
                raised = exc
            elapsed = time.perf_counter() - start
            client_cpu += time.process_time() - cpu
            if span is not None:
                recorder.finish(span)
                if clustered:
                    scatter += self._scatter_seconds()
            timings.append((op.kind, elapsed))
            if raised is not None:
                segment.failed += 1
                self.errors.append(f"{op.kind} raised {type(raised).__name__}: {raised}")
            elif not check(op, reply):
                segment.failed += 1
                self.errors.append(
                    f"{op.kind} disagreed with the oracle: {op.sql or op.row}")
            elif op.kind == "select":
                segment.rows += len(reply.relation)
        if recorder is not None:
            recorder.enabled = False
        provider_cpu = cpu_seconds(self.provider_pids) - provider_cpu
        factor = speed_factor(before, self.probe())
        if recorder is not None:
            recorder.rescale(first_span, factor)
            self.scatter_seconds += scatter * factor
        busy = sum(elapsed for _, elapsed in timings)
        segment.ops += len(ops)
        segment.busy += busy
        segment.busy_ref += busy * factor
        segment.cpu += client_cpu + provider_cpu
        segment.cpu_ref += (client_cpu + provider_cpu) * factor
        segment.client_cpu_ref += client_cpu * factor
        for kind, elapsed in timings:
            segment.latencies.setdefault(kind, []).append(elapsed)
            segment.latencies_ref.setdefault(kind, []).append(elapsed * factor)

    def _scatter_seconds(self) -> float:
        """Time the router spent waiting on shards in the operation just done.

        The router files a ``router.scatter`` span with the session's own
        (always-on) product trace; that is the only place its wait is told
        apart from its own work without touching ``src/``.
        """
        filed = self.db.trace_buffer.get(bytes.fromhex(self.db.last_trace_id))
        return sum(
            entry["duration_s"]
            for entry in (filed["spans"] if filed else ())
            if entry["name"] == "router.scatter"
        )


def planned_segments(seconds: float) -> int:
    """Segments in a run of ``seconds``: fixed by the argument, not by speed."""
    return max(MIN_SEGMENTS, int(PLAN_FILL * seconds / NOMINAL_SEGMENT_SECONDS))


def run_workload(
    spec: WorkloadSpec,
    seed: int,
    seconds: float,
    traced: bool,
    table_rows: int | None = None,
    segment_ops: int | None = None,
) -> Run:
    """One full run of ``spec``; sizes default to the spec's (tests pass tiny ones)."""
    started = time.perf_counter()
    segment_ops = segment_ops or spec.segment_ops
    rows = make_rows(seed, table_rows or spec.table_rows)
    recorder = trace.Recorder() if traced else None
    with ProviderFleet(spec.providers) as fleet, open_session(
        spec, fleet.addresses, seed, recorder
    ) as db:
        driver = Driver(db, spec, min(spec.chunk_ops, segment_ops), fleet.pids, recorder)
        setup = []
        for round_number in range(SETUP_ROUNDS):
            last = round_number == SETUP_ROUNDS - 1
            setup.append(driver.create_table(rows, traced and last))
            if not last:
                db.drop_table(TABLE)

        stream = OpStream(spec, rows, seed)
        warm_up = driver.run_segment(stream.take(2 * segment_ops))
        segments: list[Segment] = []
        measured = 0.0
        for number in range(planned_segments(seconds)):
            if measured >= seconds and len(segments) >= MIN_SEGMENTS:
                break  # a slow machine stops at the deadline, short of the plan
            # Traced runs alternate plain and traced segments over one stream.
            segment = driver.run_segment(
                stream.take(segment_ops), traced=traced and number % 2 == 1
            )
            segments.append(segment)
            measured += segment.busy

        attempted = warm_up.ops + sum(s.ops for s in segments) + 1
        failed = warm_up.failed + sum(s.failed for s in segments)
        try:
            stored = db.count(TABLE)
        except Exception as exc:  # noqa: BLE001 - counted like any failed op
            stored = f"{type(exc).__name__}: {exc}"
        if stored != stream.live_count:
            failed += 1
            driver.errors.append(
                f"final count {stored!r}, oracle holds {stream.live_count}")
        peak = peak_rss_mib([os.getpid(), *fleet.pids])
    return Run(
        spec=spec,
        seed=seed,
        setup_samples=[ref for ref, _ in setup],
        setup_raw=[raw for _, raw in setup],
        segments=segments,
        attempted=attempted,
        failed=failed,
        errors=driver.errors,
        peak_rss_mib=peak,
        wall_s=time.perf_counter() - started,
        plaintext_bytes=plaintext_bytes(rows),
        recorder=recorder,
        provider_delta=driver.provider_delta,
        cache_delta=driver.cache_delta,
        scatter_seconds=driver.scatter_seconds,
    )
