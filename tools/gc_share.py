"""What CPython's cyclic collector costs one benchmark workload's session.

Usage::

    python tools/gc_share.py [--workload W] [--seconds S] [--seed K]

Drives one workload of ``benchmarks/e2e`` with the harness's own pieces --
``ProviderFleet``, ``open_session``, ``OpStream`` and ``execute`` -- untraced,
pinned to one core as the harness pins it, with a ``gc.callbacks`` hook
installed: the table is created once, a warm-up of two segments runs, then
operations run until ``--seconds`` have been spent inside the timed session
calls.  Every reply is checked against the
workload's plaintext oracle.  For each collector generation it prints the
collections that started inside a timed call and the milliseconds per
operation they took, then their sum as a share of the time inside the calls.
The harness times the same calls, so the share is the part of a workload's
``select_p50_ms`` and ``ops_per_s`` that no per-layer meter shows.

Exit status: 0, or 1 when any reply disagreed with the oracle.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "e2e")]

from e2ebench.deploy import ProviderFleet  # noqa: E402
from e2ebench.harness import execute, open_session  # noqa: E402
from e2ebench.spec import WORKLOADS  # noqa: E402
from e2ebench.stream import SCHEMA, OpStream, check, make_rows  # noqa: E402


class CollectorMeter:
    """Collections, and seconds inside them, per generation while ``timing``."""

    def __init__(self) -> None:
        self.timing = False
        self.collections = [0, 0, 0]
        self.seconds = [0.0, 0.0, 0.0]
        self._started: float | None = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter() if self.timing else None
        elif self._started is not None:
            generation = info["generation"]
            self.collections[generation] += 1
            self.seconds[generation] += time.perf_counter() - self._started
            self._started = None


def measure(name: str, seconds: float, seed: int) -> tuple[CollectorMeter, int, float, int]:
    """``(meter, operations, busy seconds, failed)`` of one run of workload ``name``."""
    spec = WORKLOADS[name]
    rows = make_rows(seed, spec.table_rows)
    meter = CollectorMeter()
    ops = failed = 0
    busy = 0.0
    with ProviderFleet(spec.providers) as fleet, open_session(
        spec, fleet.addresses, seed, None
    ) as db:
        db.create_table(SCHEMA, rows)
        stream = OpStream(spec, rows, seed)
        for op in stream.take(2 * spec.segment_ops):
            failed += not check(op, execute(db, op))
        gc.callbacks.append(meter)
        try:
            while busy < seconds:
                for op in stream.take(spec.chunk_ops):
                    meter.timing = True
                    start = time.perf_counter()
                    reply = execute(db, op)
                    busy += time.perf_counter() - start
                    meter.timing = False
                    failed += not check(op, reply)
                    ops += 1
        finally:
            gc.callbacks.remove(meter)
    return meter, ops, busy, failed


def report(name: str, meter: CollectorMeter, ops: int, busy: float, failed: int) -> str:
    lines = [
        f"{name}: {ops} operations, {busy * 1e3 / ops:.3f} ms per operation "
        f"inside the timed calls, {failed} failed",
        f"{'generation':>10}  {'collections':>11}  {'ms/op':>8}",
    ]
    for generation in range(3):
        lines.append(
            f"{generation:>10}  {meter.collections[generation]:>11}  "
            f"{meter.seconds[generation] * 1e3 / ops:>8.3f}"
        )
    total = sum(meter.seconds)
    lines.append(
        f"{'all':>10}  {sum(meter.collections):>11}  {total * 1e3 / ops:>8.3f}  "
        f"({100 * total / busy:.1f} % of the time inside the timed calls)"
    )
    return "\n".join(lines)


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0 or value == float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="large_result_tcp")
    parser.add_argument("--seconds", type=_positive, default=8.0,
                        help="seconds inside the timed calls (default 8)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    # One core for the client and its providers, as benchmarks/e2e/run.py pins them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    meter, ops, busy, failed = measure(args.workload, args.seconds, args.seed)
    print(report(args.workload, meter, ops, busy, failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
