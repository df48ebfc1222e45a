"""Generate BENCH.md: the end-to-end trajectory across the checked-in runs.

Usage::

    python tools/generate_bench_md.py            # rewrite BENCH.md
    python tools/generate_bench_md.py --check    # exit 1 if BENCH.md is stale

Reads every ``BENCH_<pr>.json`` at the repository root (each written by
``python3 benchmarks/e2e/run.py --trace both --seconds 12 --out BENCH_<pr>.json``,
the same files ``run.py --render`` reads) and ``BENCHMARK.json``, and writes
one table: a row per workload and end-to-end metric, a column per file.
The per-layer numbers stay in the JSON (``run.py --render BENCH_<pr>.json``).
Keeping the document generated guarantees it says what the files say.
"""

from __future__ import annotations

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TARGET = ROOT / "BENCH.md"

PREAMBLE = """\
# BENCH — end-to-end metrics per PR

Generated by `tools/generate_bench_md.py` from the `BENCH_<pr>.json` files
beside this one; do not edit.  One column per checked-in run
(`python3 benchmarks/e2e/run.py --trace both --seconds 12 --out BENCH_<pr>.json`),
medians at reference speed (benchmarks/e2e/README.md, *Reference speed*).
A column is one run on the machine its PR was built on: read a row for its
shape, and take a claimed gain from the alternating parent/tree pairs in
CHANGES.md, not from two neighbouring columns.  A PR's run is made on its
working tree before its commit exists, so `HEAD at the run` is usually the
PR's parent.  Per-layer numbers:
`python3 benchmarks/e2e/run.py --render BENCH_<pr>.json`.
"""


def _number(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def runs() -> list[tuple[int, dict]]:
    """The checked-in result files, oldest PR first."""
    found = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            found.append((int(match.group(1)), json.loads(path.read_text(encoding="utf-8"))))
    return sorted(found, key=lambda item: item[0])


def generate() -> str:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    columns = runs()
    plain = [
        {r["workload"]: r for r in document["results"] if not r["traced"]}
        for _, document in columns
    ]
    lines = [
        PREAMBLE,
        "| workload | metric | unit | better | " + " | ".join(f"PR {pr}" for pr, _ in columns) + " |",
        "|---|---|---|---|" + "---:|" * len(columns),
    ]
    for workload in (w["name"] for w in declaration["workloads"]):
        for entry in declaration["end_to_end"]:
            cells = [
                _number(by[workload]["metrics"][entry["name"]]["value"])
                if workload in by and entry["name"] in by[workload]["metrics"] else ""
                for by in plain
            ]
            lines.append(
                f"| {workload} | {entry['name']} | {entry['unit']} | {entry['better']} | "
                + " | ".join(cells) + " |"
            )
        cells = [
            f"{by[workload]['failed']} / {by[workload]['attempted']}" if workload in by else ""
            for by in plain
        ]
        lines.append(f"| {workload} | failed / attempted | count | lower | " + " | ".join(cells) + " |")
    lines += ["", "| run | HEAD at the run | seed | seconds | cores | python |", "|---|---|---:|---:|---:|---|"]
    for pr, document in columns:
        meta = document["meta"]
        lines.append(
            f"| PR {pr} | `{meta['git_rev']}` | {meta['seed']} | "
            f"{meta['seconds']} | {meta['nproc']} | {meta['python']} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    text = generate()
    if "--check" in argv:
        if not TARGET.exists() or TARGET.read_text(encoding="utf-8") != text:
            print("BENCH.md is stale: run python tools/generate_bench_md.py", file=sys.stderr)
            return 1
        return 0
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
