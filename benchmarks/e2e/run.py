#!/usr/bin/env python3
"""The repo benchmark (see README.md beside this file and BENCHMARK.json).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--trace both] [--out results.json] [--spans spans.json]
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --render results.json [--out results.md]

A run prints every metric by name and ends with one JSON line holding
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero when any operation failed or disagreed with the plaintext oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parents[1] / "src"
if not (SRC_DIR / "repro").is_dir():
    sys.exit(f"run.py: the product source is missing ({SRC_DIR / 'repro'})")
sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]

from e2ebench import metrics, report  # noqa: E402
from e2ebench.harness import run_workload  # noqa: E402
from e2ebench.spec import (  # noqa: E402
    REPO_ROOT,
    WORKLOADS,
    declared_metrics,
    load_declaration,
)


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def measure(name: str, seed: int, seconds: float, traced: bool, declaration: dict,
            spans: list | None) -> dict:
    """Run one workload once and shape the result for printing and ``--out``."""
    run = run_workload(WORKLOADS[name], seed, seconds, traced)
    values = metrics.per_layer(run) if traced else metrics.end_to_end(run)
    declared = declared_metrics(declaration, traced)
    if values.keys() != declared.keys():
        raise SystemExit(
            f"run.py: measured and declared metrics differ: "
            f"{sorted(values.keys() ^ declared.keys())}"
        )
    for metric, value in values.items():
        value["unit"] = declared[metric]["unit"]
    if spans is not None and traced:
        spans.append({"workload": name, "spans": run.recorder.dump()})
    return {
        "workload": name,
        "traced": traced,
        "seed": seed,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "segments": len(run.segments),
        "segment_ops": run.spec.segment_ops,
        "wall_s": run.wall_s,
        "metrics": values,
    }


def print_result(result: dict, declaration: dict) -> None:
    declared = declared_metrics(declaration, result["traced"])
    print(f"== {result['workload']} ({'per layer' if result['traced'] else 'end to end'}, "
          f"seed {result['seed']}, {result['segments']} segments of "
          f"{result['segment_ops']} ops, {result['wall_s']:.1f} s wall)")
    for name, value in result["metrics"].items():
        entry = declared[name]
        notes = [f"{entry['better']} is better"]
        if "bound" in entry:
            notes.append(f"bound {entry['bound']:.0%}")
        if "q1" in value:
            notes.append(f"q1 {value['q1']:.6g} q3 {value['q3']:.6g}")
        if "n" in value:
            notes.append(f"n {value['n']}")
        if "raw" in value:
            notes.append(f"as measured {value['raw']:.6g}")
        if "samples_per_segment" in value:
            notes.append(f"{value['samples_per_segment']} samples per segment")
        if "den" in value:
            notes.append(f"{value['num']:.6g} / {value['den']:.6g}")
        print(f"{name:<36} {value['value']:>14.6g} {value['unit']:<6} ({', '.join(notes)})")
    print(f"{'failed / attempted':<36} {result['failed']} / {result['attempted']}")
    for error in result["errors"]:
        print(f"  failed: {error}")
    # The machine-readable line: exactly these keys, values with all digits.
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value["value"], "unit": value["unit"]}
            for name, value in result["metrics"].items()
        },
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"],
                        help="measured seconds per run (deadline of the segment plan)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics (traced run)")
    parser.add_argument("--out", metavar="FILE", help="write the results (or --render) here")
    parser.add_argument("--spans", metavar="FILE", help="write the traced runs' spans here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--render", metavar="RESULTS.json")
    args = parser.parse_args(argv)

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        rows = report.compare(first, second, declaration)
        print(report.render_comparison(rows))
        return 1 if any(row["verdict"] == "outside" for row in rows) else 0
    if args.render:
        text = report.render(json.loads(Path(args.render).read_text()), declaration)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            print(text, end="")
        return 0

    # Tear the providers down on SIGTERM as on SIGINT: unwind through the
    # context managers that own them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One core for the client and its providers: a closed loop with one
    # client never has two of them busy at once, and on one core the
    # calibration probe sees the speed of the core the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    spans = [] if args.spans else None
    results = []
    for traced in passes:
        for name in names:
            result = measure(name, args.seed, args.seconds, traced, declaration, spans)
            print_result(result, declaration)
            results.append(result)
    if args.out:
        document = {
            "meta": {
                "git_rev": git_rev(), "seed": args.seed, "seconds": args.seconds,
                "nproc": os.cpu_count(), "python": platform.python_version(),
            },
            "results": results,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        Path(args.spans).write_text(json.dumps(spans), encoding="utf-8")
    return 1 if any(result["failed"] for result in results) else 0


if __name__ == "__main__":
    sys.exit(main())
