"""What the benchmark runs and reports: workload specs and declared metric names.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
root of the repository and are read from there, so the harness, ``--compare``
and the tests share one declaration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = BENCH_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: A timed segment is sized to take about this long at the seed commit, and
#: the plan fills this share of ``--seconds`` so that it completes -- and
#: operation counts repeat exactly -- unless the machine is much slower.
NOMINAL_SEGMENT_SECONDS = 0.3
PLAN_FILL = 0.8
MIN_SEGMENTS = 3
SETUP_ROUNDS = 5


@dataclass(frozen=True)
class WorkloadSpec:
    """One deployment plus the operation mix driven against it."""

    name: str
    #: Provider subprocesses; 0 runs the provider inside the client process.
    providers: int
    #: URL query of the session (``index=1&async=1`` ...), empty in-process.
    options: str
    table_rows: int
    #: Operations per timed segment (about NOMINAL_SEGMENT_SECONDS at seed).
    segment_ops: int
    #: Operations between two calibration probes (a few tens of ms at seed).
    chunk_ops: int
    #: Share of each operation kind; selects take the remainder.
    mix: dict = field(default_factory=dict)
    #: ``uniform`` / ``zipf`` point selects on name, or ``dept_cycle``.
    keys: str = "uniform"

    @property
    def index(self) -> bool:
        return "index=1" in self.options

    @property
    def cache(self) -> bool:
        return "cache=1" in self.options

    @property
    def server_layer(self) -> str:
        """The layer of the object the session hands its messages to."""
        return ("outsourcing", "net", "cluster")[min(self.providers, 2)]

    def url(self, addresses: list[str]) -> str | None:
        """The session URL over the given ``host:port`` provider addresses."""
        if not addresses:
            return None
        scheme = "cluster" if len(addresses) > 1 else "tcp"
        return f"{scheme}://{','.join(addresses)}?{self.options}"


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("scan_select", 0, "", 2000, 6, 1),
        WorkloadSpec("indexed_point_tcp", 1, "index=1", 5000, 300, 60),
        WorkloadSpec(
            "large_result_tcp", 1, "index=1&async=1", 5000, 8, 2, keys="dept_cycle"
        ),
        WorkloadSpec(
            "hot_read_cached", 1, "index=1&cache=1", 5000, 400, 80,
            mix={"insert": 0.01}, keys="zipf",
        ),
        WorkloadSpec(
            "mixed_crud_cluster", 3, "index=1&async=1&replicas=2", 3000, 60, 12,
            mix={"insert": 0.25, "update": 0.10, "delete": 0.05},
        ),
    )
}


def load_declaration() -> dict:
    """``BENCHMARK.json`` as a dict."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def declared_metrics(declaration: dict, traced: bool) -> dict[str, dict]:
    """Declared metrics of one pass by name: ``per_layer`` when traced."""
    entries = declaration["per_layer" if traced else "end_to_end"]
    return {entry["name"]: entry for entry in entries}
