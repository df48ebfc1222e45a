"""A/B the working tree against a git revision on the end-to-end benchmark.

Usage::

    python tools/ab.py <rev> [--workload W] [--pairs N] [--seconds S] [--seed K] [--trace 0|1]

Copies ``<rev>`` into a temporary directory with ``git archive`` and runs each
side's ``benchmarks/e2e/run.py`` alternately, one run at a time: on odd pairs
the revision runs first, on even pairs the tree.  Per workload and metric it
prints each side's median and quartiles over the pairs, the ratio of the
medians (tree / rev), the pairs the tree won (ties count for neither) and,
for the end-to-end metrics (``--trace 0``), the bound ``BENCHMARK.json``
declares and a verdict: ``better`` (the tree's median is better),
``outside`` (it is worse by more than the bound) or ``same``; under each
metric, every pair's rev and tree value in run order, so a lost pair can be
told from drift or an outlier.  Per workload it prints each side's failed
operations and flags a larger failed share on the tree's side.

Exit status: 0 when no metric is ``outside`` and no workload failed a larger
share; 1 when one did, or when a run could not be made; 2 on a usage error
(``--pairs`` must be an integer >= 1, ``--seconds`` a finite number > 0),
before anything is checked out.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNNER = Path("benchmarks") / "e2e" / "run.py"


def checkout(rev: str, directory: Path) -> None:
    """The committed files of ``rev``, unpacked into ``directory``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:  # before Python 3.10.12 / 3.11.4
            tar.extractall(directory)


def run(side: Path, args: argparse.Namespace, out: Path) -> dict:
    """One ``run.py`` invocation of ``side``; its ``--out`` document."""
    command = [sys.executable, str(side / RUNNER), "--seconds", str(args.seconds),
               "--seed", str(args.seed), "--trace", args.trace, "--out", str(out)]
    if args.workload:
        command += ["--workload", args.workload]
    done = subprocess.run(command, cwd=side, stdout=subprocess.DEVNULL)
    if not out.exists():
        raise SystemExit(f"ab.py: {side / RUNNER} exited {done.returncode} without results")
    return json.loads(out.read_text(encoding="utf-8"))


def spread(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(rev_median: float, tree_median: float, metric: dict) -> str | None:
    """``better``, ``same`` or ``outside`` for a metric with a declared bound, else ``None``.

    ``outside``: the tree's median is worse than the revision's by more than
    the bound, a fraction of the revision's median.
    """
    if "bound" not in metric:
        return None
    sign = 1 if metric["better"] == "higher" else -1
    change = sign * (tree_median - rev_median)
    if change > 0:
        return "better"
    if -change > metric["bound"] * abs(rev_median):
        return "outside"
    return "same"


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[dict]:
    """Per workload of the ``(rev, tree)`` run documents: failed counts and metric rows."""
    summary = []
    for workload in [r["workload"] for r in pairs[0][0]["results"]]:
        sides = [[next(r for r in doc["results"] if r["workload"] == workload)
                  for doc in pair] for pair in pairs]
        failed = [sum(p[i]["failed"] for p in sides) for i in (0, 1)]
        attempted = [sum(p[i]["attempted"] for p in sides) for i in (0, 1)]
        rows = []
        for metric in declared:
            name = metric["name"]
            if name not in sides[0][0]["metrics"]:
                continue
            rev = [p[0]["metrics"][name]["value"] for p in sides]
            tree = [p[1]["metrics"][name]["value"] for p in sides]
            sign = 1 if metric["better"] == "higher" else -1
            rev_spread, tree_spread = spread(rev), spread(tree)
            rows.append({
                "name": name,
                "rev": rev_spread,
                "tree": tree_spread,
                "wins": sum(sign * (b - a) > 0 for a, b in zip(rev, tree)),
                "pairs": list(zip(rev, tree)),
                "bound": metric.get("bound"),
                "verdict": verdict(rev_spread[1], tree_spread[1], metric),
            })
        summary.append({
            "workload": workload,
            "failed": failed,
            "attempted": attempted,
            # failed[1] / attempted[1] > failed[0] / attempted[0], without dividing by 0
            "more_failed": failed[1] * attempted[0] > failed[0] * attempted[1],
            "metrics": rows,
        })
    return summary


def exit_status(summary: list[dict]) -> int:
    """1 if a metric is ``outside`` its bound or a workload failed a larger share, else 0."""
    flagged = any(
        workload["more_failed"]
        or any(row["verdict"] == "outside" for row in workload["metrics"])
        for workload in summary
    )
    return 1 if flagged else 0


def report(summary: list[dict], pair_count: int) -> None:
    print(f"{pair_count} pair(s); columns: rev q1/median/q3, tree q1/median/q3, "
          f"tree/rev, tree wins, bound, verdict; then rev/tree of each pair in run "
          f"order (odd pairs ran the rev first)")
    for workload in summary:
        failed, attempted = workload["failed"], workload["attempted"]
        flag = "  LARGER FAILED SHARE" if workload["more_failed"] else ""
        print(f"\n{workload['workload']}: failed rev {failed[0]}/{attempted[0]}, "
              f"tree {failed[1]}/{attempted[1]}{flag}")
        for row in workload["metrics"]:
            (r1, rm, r3), (t1, tm, t3) = row["rev"], row["tree"]
            ratio = f"{tm / rm:.3f}x" if rm else "n/a"
            bound = "-" if row["bound"] is None else f"{row['bound']:.0%}"
            print(f"  {row['name']:36s} {r1:.4g}/{rm:.4g}/{r3:.4g}  {t1:.4g}/{tm:.4g}/{t3:.4g}  "
                  f"{ratio}  {row['wins']}/{pair_count}  {bound}  {row['verdict'] or '-'}")
            print("    " + "  ".join(
                f"{number}: {rev:.4g}/{tree:.4g}"
                for number, (rev, tree) in enumerate(row["pairs"], start=1)
            ))


def positive_int(text: str) -> int:
    """An ``argparse`` type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def positive_seconds(text: str) -> float:
    """An ``argparse`` type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="the git revision to compare the working tree with")
    parser.add_argument("--workload", choices=[w["name"] for w in declaration["workloads"]],
                        help="default: every workload")
    parser.add_argument("--pairs", type=positive_int, default=10)
    parser.add_argument("--seconds", type=positive_seconds,
                        default=declaration["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics (traced runs)")
    args = parser.parse_args(argv)
    declared = declaration["end_to_end" if args.trace == "0" else "per_layer"]
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        base = Path(scratch) / "rev"
        checkout(args.rev, base)
        pairs = []
        for number in range(1, args.pairs + 1):
            order = [("rev", base), ("tree", ROOT)]
            if number % 2 == 0:
                order.reverse()
            documents = {}
            for label, side in order:
                print(f"pair {number}/{args.pairs}: {label}", file=sys.stderr, flush=True)
                documents[label] = run(side, args, Path(scratch) / f"{label}-{number}.json")
            pairs.append((documents["rev"], documents["tree"]))
    summary = summarize(pairs, declared)
    report(summary, len(pairs))
    return exit_status(summary)


if __name__ == "__main__":
    sys.exit(main())
