"""Shared helpers for the paper-experiment benchmarks.

Every benchmark regenerates one experiment table (E1-E9 and the ablation A1;
see :mod:`repro.experiments.registry` for the claim each one checks) and

* records the wall-clock of the full experiment through ``pytest-benchmark``;
* asserts the qualitative *shape* of the result (who wins, by roughly what
  factor) so a regression in the library shows up as a benchmark failure;
* writes the rendered table to ``benchmarks/results/<experiment>.txt``, which
  ``tools/generate_experiments_md.py`` embeds in ``EXPERIMENTS.md``.

Performance is measured by ``benchmarks/e2e`` alone.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Return a callable that persists and prints a rendered experiment table."""

    def _record(name: str, table) -> str:
        RESULTS_DIR.mkdir(exist_ok=True)
        rendered = table.render()
        (RESULTS_DIR / f"{name}.txt").write_text(rendered + "\n", encoding="utf-8")
        print()
        print(rendered)
        return rendered

    return _record


def run_once(benchmark, func, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, kwargs=kwargs, iterations=1, rounds=1, warmup_rounds=0)
