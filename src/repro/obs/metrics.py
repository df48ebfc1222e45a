"""Thread-safe metrics: counters, gauges and log-scale latency histograms.

One :class:`MetricsRegistry` per serving component (a provider process, a
TCP front-end, a router, a client session).  Every instrument is identified
by a name plus a label set (``op_kind``, ``relation``, ``shard_id``,
``access_method``, ...), mirroring the Prometheus data model without the
dependency.

Histograms use one **fixed** log-scale bucket layout shared process- and
fleet-wide (:data:`BUCKET_BOUNDS`), so merging snapshots from many
registries -- or many shards -- is a plain element-wise sum of bucket
counts, and p50/p95/p99 can be recovered from the merged counts.

Snapshots (:meth:`MetricsRegistry.snapshot`) are JSON-able dicts: they
travel over the ``metrics`` control operation, merge with
:func:`merge_snapshots`, summarize with :func:`histogram_summaries`, read
by name with :func:`snapshot_scalars` and render to Prometheus text format
with :func:`render_prometheus`.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

#: Histogram bucket upper bounds in seconds: sqrt(2)-spaced from 10us to
#: about one minute.  Fixed so that bucket counts from any two registries
#: (or any two shards) are directly summable.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    round(1e-5 * math.sqrt(2.0) ** i, 10) for i in range(46)
)

_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount


class Gauge:
    """A value that can go up and down (or be set outright)."""

    kind = "gauge"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0
        self._read = None

    @property
    def value(self) -> int | float:
        with self._lock:
            return self._value if self._read is None else self._read()

    def set_function(self, read) -> None:
        """Report ``read()`` at every reading: a value derived from other state."""
        with self._lock:
            self._read = read

    def set(self, value: int | float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        with self._lock:
            self._value -= amount


class LatencyHistogram:
    """Fixed-bucket log-scale histogram of durations in seconds."""

    kind = "histogram"

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        # One slot per bound plus the overflow bucket.
        self._buckets = [0] * (len(BUCKET_BOUNDS) + 1)
        self._count = 0
        self._sum = 0.0

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def buckets(self) -> list[int]:
        with self._lock:
            return list(self._buckets)

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        index = _bucket_index(seconds)
        with self._lock:
            self._buckets[index] += 1
            self._count += 1
            self._sum += seconds

    def read(self) -> tuple[int, float, list[int]]:
        """``(count, sum, buckets)`` as of one instant."""
        with self._lock:
            return self._count, self._sum, list(self._buckets)

    def percentile(self, q: float) -> float:
        """Approximate the q-quantile (``q`` in [0, 1]) from bucket counts."""
        with self._lock:
            return percentile_from_buckets(self._buckets, q)


def _bucket_index(seconds: float) -> int:
    # Bisection, not a scan: a cached or indexed select makes several
    # observations beside a few tens of microseconds of work, and a 10 ms
    # sample would walk 21 bounds.  NaN compares false with every bound, so
    # bisect would file it first; it belongs in the overflow bucket.
    if seconds != seconds:
        return len(BUCKET_BOUNDS)
    return bisect.bisect_left(BUCKET_BOUNDS, seconds)


def percentile_from_buckets(buckets: list[int], q: float) -> float:
    """The q-quantile implied by bucket counts over :data:`BUCKET_BOUNDS`.

    Linear interpolation inside the winning bucket; the overflow bucket
    reports its lower bound (there is no upper one to interpolate toward).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for index, count in enumerate(buckets):
        if count == 0:
            continue
        previous = cumulative
        cumulative += count
        if cumulative >= rank:
            if index >= len(BUCKET_BOUNDS):
                return BUCKET_BOUNDS[-1]
            lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
            upper = BUCKET_BOUNDS[index]
            fraction = (rank - previous) / count if count else 1.0
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return BUCKET_BOUNDS[-1]


class MetricsRegistry:
    """A named, labelled family of thread-safe instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple, Counter | Gauge | LatencyHistogram] = {}
        # (name, *labels.items()) as a call site spells it -> its instrument.
        self._resolved: dict[tuple, Counter | Gauge | LatencyHistogram] = {}

    def _instrument(self, factory, name: str, labels: dict):
        # A label set is canonicalised (str, sorted) under the lock once per
        # spelling; after that a call site resolves with one lock-free probe.
        # Only all-str spellings are kept, so 1 / True / "1" never share one.
        spelling = (name, *labels.items())
        instrument = self._resolved.get(spelling)
        if instrument is None:
            key = (name, _label_key(labels))
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory(threading.Lock())
                    self._instruments[key] = instrument
            if all(type(value) is str for value in labels.values()):
                self._resolved[spelling] = instrument
        if not isinstance(instrument, factory):
            raise ValueError(
                f"metric {name!r} is a {instrument.kind}, not a "
                f"{factory.kind}"  # type: ignore[attr-defined]
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        """Get or create a counter."""
        return self._instrument(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get or create a gauge."""
        return self._instrument(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> LatencyHistogram:
        """Get or create a latency histogram."""
        # Observed on every request: a spelling seen before is one probe here.
        instrument = self._resolved.get((name, *labels.items()))
        if type(instrument) is LatencyHistogram:
            return instrument
        return self._instrument(LatencyHistogram, name, labels)

    def snapshot(self) -> dict:
        """A JSON-able copy of every instrument (see module docstring)."""
        with self._lock:
            items = list(self._instruments.items())
        counters, gauges, histograms = [], [], []
        for (name, label_key), instrument in items:
            labels = dict(label_key)
            if isinstance(instrument, Counter):
                counters.append(
                    {"name": name, "labels": labels, "value": instrument.value}
                )
            elif isinstance(instrument, Gauge):
                gauges.append(
                    {"name": name, "labels": labels, "value": instrument.value}
                )
            else:
                count, total, buckets = instrument.read()
                histograms.append(
                    {
                        "name": name,
                        "labels": labels,
                        "count": count,
                        "sum": total,
                        "buckets": buckets,
                    }
                )
        return {
            "bucket_bounds": list(BUCKET_BOUNDS),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self) -> str:
        """This registry's snapshot in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())


def merge_snapshots(*snapshots: dict) -> dict:
    """Sum several registry snapshots into one (fleet-wide aggregation).

    Counters and gauges with the same name and labels add; histograms sum
    their bucket counts element-wise (the layout is fixed, see
    :data:`BUCKET_BOUNDS`).
    """
    counters: dict[tuple, dict] = {}
    gauges: dict[tuple, dict] = {}
    histograms: dict[tuple, dict] = {}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for entry in snapshot.get("counters", ()):
            _merge_scalar(counters, entry)
        for entry in snapshot.get("gauges", ()):
            _merge_scalar(gauges, entry)
        for entry in snapshot.get("histograms", ()):
            key = (entry["name"], _label_key(entry["labels"]))
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "name": entry["name"],
                    "labels": dict(entry["labels"]),
                    "count": entry["count"],
                    "sum": entry["sum"],
                    "buckets": list(entry["buckets"]),
                }
            else:
                merged["count"] += entry["count"]
                merged["sum"] += entry["sum"]
                for index, value in enumerate(entry["buckets"]):
                    merged["buckets"][index] += value
    return {
        "bucket_bounds": list(BUCKET_BOUNDS),
        "counters": list(counters.values()),
        "gauges": list(gauges.values()),
        "histograms": list(histograms.values()),
    }


def _merge_scalar(into: dict, entry: dict) -> None:
    key = (entry["name"], _label_key(entry["labels"]))
    merged = into.get(key)
    if merged is None:
        into[key] = {
            "name": entry["name"],
            "labels": dict(entry["labels"]),
            "value": entry["value"],
        }
    else:
        merged["value"] += entry["value"]


def snapshot_scalars(snapshot: dict, prefix: str = "", **labels: str) -> dict[str, int | float]:
    """The counters and gauges of a snapshot named ``prefix...`` and labelled
    ``labels`` exactly, keyed by the rest of their name (``server_x`` -> ``x``)."""
    return {
        entry["name"][len(prefix):]: entry["value"]
        for kind in ("counters", "gauges")
        for entry in snapshot.get(kind, ())
        if entry["labels"] == labels and entry["name"].startswith(prefix)
    }


def histogram_summaries(snapshot: dict) -> list[dict]:
    """Per-histogram p50/p95/p99 summaries of a (possibly merged) snapshot."""
    summaries = []
    for entry in snapshot.get("histograms", ()):
        buckets = entry["buckets"]
        count = entry["count"]
        summaries.append(
            {
                "name": entry["name"],
                "labels": dict(entry["labels"]),
                "count": count,
                "sum": entry["sum"],
                "mean": (entry["sum"] / count) if count else 0.0,
                "p50": percentile_from_buckets(buckets, 0.50),
                "p95": percentile_from_buckets(buckets, 0.95),
                "p99": percentile_from_buckets(buckets, 0.99),
            }
        )
    return summaries


def _prometheus_name(name: str) -> str:
    return _LABEL_CHARS.sub("_", name)


def _prometheus_labels(labels: dict, extra: str | None = None) -> str:
    parts = [
        f'{_prometheus_name(key)}="{_escape_label(value)}"'
        for key, value in sorted(labels.items())
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape_label(value) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    seen_types: set[str] = set()

    def _type_line(name: str, kind: str) -> None:
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = _prometheus_name(entry["name"])
        _type_line(name, "counter")
        lines.append(f"{name}{_prometheus_labels(entry['labels'])} {entry['value']}")
    for entry in snapshot.get("gauges", ()):
        name = _prometheus_name(entry["name"])
        _type_line(name, "gauge")
        lines.append(f"{name}{_prometheus_labels(entry['labels'])} {entry['value']}")
    for entry in snapshot.get("histograms", ()):
        name = _prometheus_name(entry["name"])
        _type_line(name, "histogram")
        labels = entry["labels"]
        cumulative = 0
        for bound, count in zip(BUCKET_BOUNDS, entry["buckets"]):
            cumulative += count
            bucket_labels = _prometheus_labels(labels, 'le="%s"' % bound)
            lines.append(f"{name}_bucket{bucket_labels} {cumulative}")
        cumulative += entry["buckets"][len(BUCKET_BOUNDS)]
        inf_labels = _prometheus_labels(labels, 'le="+Inf"')
        lines.append(f"{name}_bucket{inf_labels} {cumulative}")
        lines.append(f"{name}_sum{_prometheus_labels(labels)} {entry['sum']}")
        lines.append(f"{name}_count{_prometheus_labels(labels)} {entry['count']}")
    return "\n".join(lines) + "\n"
