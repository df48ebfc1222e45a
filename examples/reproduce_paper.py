"""Regenerate every experiment table (E1-E9 and the ablation A1).

This script iterates over the experiment registry and prints each table,
run with the parameters the registry declares -- the same runs whose shape
``python -m pytest tests/experiments`` asserts and whose tables
``python tools/generate_experiments_md.py`` writes to ``EXPERIMENTS.md``.

Run with::

    python examples/reproduce_paper.py
"""

from __future__ import annotations

import time

from repro.experiments import EXPERIMENTS


def main() -> None:
    print("Reproducing the evaluation of 'Provable Security for Outsourcing "
          "Database Operations' (ICDE 2006).\n")
    total_start = time.perf_counter()
    for spec in EXPERIMENTS:
        print(f"[{spec.identifier}] {spec.title}")
        start = time.perf_counter()
        result = spec.run()
        elapsed = time.perf_counter() - start
        print(result.to_table().render())
        print(f"    ({elapsed:.1f}s)\n")
    print(f"All experiments regenerated in {time.perf_counter() - total_start:.1f}s.")


if __name__ == "__main__":
    main()
