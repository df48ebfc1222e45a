"""Generate EXPERIMENTS.md: the paper's claims beside the tables measured here.

Usage::

    python tools/generate_experiments_md.py            # rewrite EXPERIMENTS.md
    python tools/generate_experiments_md.py --check    # exit 1 if EXPERIMENTS.md is stale

Runs every experiment of ``repro.experiments.EXPERIMENTS`` (E1-E9 and the
ablation A1) with its registered parameters and writes, per experiment, the
prose the registry declares and the table the run rendered.  ``--check``
rewrites nothing: it compares every prose line and every table cell with the
checked-in file, except the cells of the columns a table declares wall-clock
(``ExperimentTable.timing``), and exits 1 on the first difference.  Keeping
the document generated guarantees it says what the experiments measure.
"""

from __future__ import annotations

import pathlib
import re
import sys
from itertools import zip_longest

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reporting import ExperimentTable  # noqa: E402
from repro.experiments import EXPERIMENTS  # noqa: E402

TARGET = ROOT / "EXPERIMENTS.md"

#: One table block of the document; ``split`` alternates prose and tables.
TABLE_BLOCK = re.compile(r"^```text\n(.*?)\n```$", re.S | re.M)

PREAMBLE = """\
# EXPERIMENTS — paper claims vs. measured results

The ICDE 2006 poster contains no numbered tables or figures; its evaluation is
a set of worked attack examples and qualitative claims about the construction.
`repro.experiments.registry` maps each claim to an experiment id (E1–E9, plus
the ablation A1); this file records, for each one, the paper's claim, the
expected shape of the result, and the table measured in this repository.

*How these numbers were produced.* `python tools/generate_experiments_md.py`
runs every registered experiment with the parameters quoted in its section and
writes this file; `--check` fails when any prose line or any table cell other
than a wall-clock one differs from a fresh run. `python -m pytest
tests/experiments` asserts the qualitative shape of every table on both kernel
paths (the C kernel and the Python references), so a regression in the
library fails tier-1 rather than silently changing the story. All games and
workloads are seeded, so every cell except a timing one is the same on every
run and on both paths. Timing columns are wall-clock on the host that wrote
the file and are only meaningful relative to each other. Game-based
probabilities use 40–150 fresh-key trials per row; the statistical resolution
is therefore roughly ±0.1 on success probabilities (Wilson 95%).

This reproduction substitutes laptop-scale simulation for the paper's (never
reported) testbed, so the comparison is about *shape*: who wins each game, by
roughly what factor, and how costs scale.
"""

CLOSING = """\
## Reading the results against the paper

Putting E1–E6 side by side reproduces the paper's overall argument:

1. the deployed-in-practice baselines (bucketization, hashed indexes) fail the
   classical indistinguishability game even with **zero** observed queries
   (E1, E2), exactly as argued in Section 1;
2. the paper's construction repairs that: at q = 0 no implemented adversary
   gains non-negligible advantage (E3), and its price is a constant-factor
   overhead (E7–E9, A1);
3. but the moment queries flow, *nothing* helps: the generic Theorem 2.1
   adversaries (E4) and the concrete hospital/John attacks (E5, E6) succeed
   against every scheme, including the construction — which is precisely the
   paper's impossibility message and the reason it restricts its positive
   result to the q = 0 setting.
"""


def run_all() -> dict[str, ExperimentTable]:
    """Each experiment's table, by id, in registry order."""
    return {spec.identifier: spec.run().to_table() for spec in EXPERIMENTS}


def generate(tables: dict[str, ExperimentTable]) -> str:
    """The document for one run of every experiment."""
    parts = [PREAMBLE]
    for spec in EXPERIMENTS:
        parameters = ", ".join(f"{name}={value!r}" for name, value in spec.parameters.items())
        parts.append(f"\n## {spec.identifier} — {spec.title}\n")
        parts.append(f"**Paper claim.** {spec.claim}\n")
        parts.append(f"**Expected shape.** {spec.expected}\n")
        parts.append(f"**Measured.** {spec.measured}\n")
        parts.append(f"Parameters: `{parameters}`.\n")
        parts.append("```text\n" + tables[spec.identifier].render() + "\n```\n")
    parts.append("\n" + CLOSING)
    return "\n".join(parts)


def _first_difference(fresh: list[str], checked_in: list[str]) -> str | None:
    for new, old in zip_longest(fresh, checked_in, fillvalue="(nothing)"):
        if new != old:
            return f"  checked in: {old}\n  a run gives: {new}"
    return None


def difference(text: str, checked_in: str, tables: dict[str, ExperimentTable]) -> str | None:
    """The first prose line or non-timing cell where ``checked_in`` is not ``text``."""
    fresh, old = TABLE_BLOCK.split(text), TABLE_BLOCK.split(checked_in)
    if len(fresh) != len(old):
        return f"  {(len(old) - 1) // 2} tables checked in, {(len(fresh) - 1) // 2} expected"
    ordered = list(tables.values())
    for index, (new_part, old_part) in enumerate(zip(fresh, old)):
        if index % 2:
            table = ordered[index // 2]
            found = _first_difference(table.comparable(new_part), table.comparable(old_part))
        else:
            found = _first_difference(new_part.splitlines(), old_part.splitlines())
        if found:
            return found
    return None


def main(argv: list[str]) -> int:
    tables = run_all()
    text = generate(tables)
    if "--check" in argv:
        checked_in = TARGET.read_text(encoding="utf-8") if TARGET.exists() else ""
        found = difference(text, checked_in, tables)
        if found:
            print(
                f"EXPERIMENTS.md is stale: run python tools/generate_experiments_md.py\n{found}",
                file=sys.stderr,
            )
            return 1
        return 0
    TARGET.write_text(text, encoding="utf-8")
    print(f"wrote {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
