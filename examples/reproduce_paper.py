"""Regenerate every experiment table (E1-E9) with reduced parameters.

The full-size runs live in ``benchmarks/`` (one module per experiment, run
with ``pytest benchmarks/ --benchmark-only``); this script is the quick tour:
it iterates over the experiment registry and prints each table in a minute or
two of total runtime.

Run with::

    python examples/reproduce_paper.py
"""

from __future__ import annotations

import time

from repro.experiments import EXPERIMENTS


def main() -> None:
    print("Reproducing the evaluation of 'Provable Security for Outsourcing "
          "Database Operations' (ICDE 2006) -- quick parameters.\n")
    total_start = time.perf_counter()
    for spec in EXPERIMENTS:
        print(f"[{spec.identifier}] {spec.claim}")
        print(f"    full-size run: pytest {spec.benchmark} --benchmark-only")
        start = time.perf_counter()
        result = spec.run_quick()
        elapsed = time.perf_counter() - start
        print(result.to_table().render())
        print(f"    ({elapsed:.1f}s)\n")
    print(f"All experiments regenerated in {time.perf_counter() - total_start:.1f}s.")


if __name__ == "__main__":
    main()
