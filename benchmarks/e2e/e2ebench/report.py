"""Compare two result sets against the declared bounds; render one as markdown."""

from __future__ import annotations

import math

from .spec import declared_metrics


def _by_workload(results: dict, traced: bool) -> dict[str, dict]:
    return {r["workload"]: r for r in results["results"] if r["traced"] == traced}


def _resolution(entry: dict) -> float:
    """How finely a median of ``n`` samples is known, as a share of itself.

    The distance between the samples' quartiles over the root of their
    number: about the standard error of their median (0 if unknown).
    """
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"]) / math.sqrt(entry["n"])


def compare(first: dict, second: dict, declaration: dict) -> list[dict]:
    """One row per (workload, end-to-end metric): is ``second`` within bounds?

    ``outside``: worse than ``first`` by more than the bound (or operations
    failed); ``unresolved``: either side's median is known no more finely
    than the bound, so the pair cannot show a change that small; else
    ``within``.
    """
    declared = declared_metrics(declaration, traced=False)
    rows = []
    base, other = _by_workload(first, False), _by_workload(second, False)
    for workload in base.keys() & other.keys():
        a, b = base[workload], other[workload]
        if a["failed"] or b["failed"]:
            rows.append({
                "workload": workload, "metric": "failed", "first": a["failed"],
                "second": b["failed"], "change": 0.0, "bound": 0.0,
                "verdict": "outside",
            })
        for name, entry in declared.items():
            if name not in a["metrics"] or name not in b["metrics"]:
                continue
            x, y = a["metrics"][name], b["metrics"][name]
            change = (y["value"] - x["value"]) / x["value"]
            worse = change if entry["better"] == "lower" else -change
            if max(_resolution(x), _resolution(y)) > entry["bound"]:
                verdict = "unresolved"
            elif worse > entry["bound"]:
                verdict = "outside"
            else:
                verdict = "within"
            rows.append({
                "workload": workload, "metric": name, "first": x["value"],
                "second": y["value"], "change": change, "bound": entry["bound"],
                "verdict": verdict,
            })
    order = [w["name"] for w in declaration["workloads"]]
    names = list(declared)
    rows.sort(key=lambda r: (order.index(r["workload"]),
                             names.index(r["metric"]) if r["metric"] in names else -1))
    return rows


def render_comparison(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        lines.append(
            f"{row['verdict']:<10} {row['workload']:<20} {row['metric']:<14} "
            f"{row['first']:>12.4f} -> {row['second']:>12.4f} "
            f"({row['change']:+.1%}, bound {row['bound']:.0%})"
        )
    return "\n".join(lines)


def _number(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def render(results: dict, declaration: dict) -> str:
    """A result set as markdown: end-to-end table, then per-layer per workload."""
    meta = results["meta"]
    lines = [
        "# Benchmark results",
        "",
        "Generated by `run.py --render`; do not edit.",
        "",
        f"rev `{meta['git_rev']}`, seed {meta['seed']}, {meta['seconds']} s per run, "
        f"{meta['nproc']} cores, Python {meta['python']}.",
        "",
        "## End to end",
        "",
        "Times are at reference speed (README, *Reference speed*); `as measured`",
        "is the same median as the clocks read it.",
        "",
        "| workload | metric | median | q1 | q3 | n | as measured | unit | better | bound |",
        "|---|---|---:|---:|---:|---:|---:|---|---|---:|",
    ]
    declared = declared_metrics(declaration, traced=False)
    order = [w["name"] for w in declaration["workloads"]]
    plain, traced = _by_workload(results, False), _by_workload(results, True)
    for workload in order:
        result = plain.get(workload)
        if result is None:
            continue
        for name, entry in declared.items():
            value = result["metrics"][name]
            lines.append(
                f"| {workload} | {name} | {_number(value['value'])} | "
                f"{_number(value['q1']) if 'q1' in value else ''} | "
                f"{_number(value['q3']) if 'q3' in value else ''} | "
                f"{value.get('n', 1)} | "
                f"{_number(value['raw']) if 'raw' in value else ''} | "
                f"{entry['unit']} | {entry['better']} | "
                f"{entry['bound']:.0%} |"
            )
        lines.append(
            f"| {workload} | failed / attempted | {result['failed']} / "
            f"{result['attempted']} | | | | | count | lower | 0% |"
        )
    layers = declared_metrics(declaration, traced=True)
    for workload in order:
        result = traced.get(workload)
        if result is None:
            continue
        lines += ["", f"## Per layer: {workload}", "",
                  "| metric | value | unit | bases |", "|---|---:|---|---|"]
        for name, entry in layers.items():
            value = result["metrics"][name]
            bases = ""
            if "den" in value:
                bases = f"{_number(value['num'])} / {_number(value['den'])}"
            elif "n" in value:
                bases = f"n = {value['n']}"
            lines.append(f"| {name} | {_number(value['value'])} | {entry['unit']} | {bases} |")
    return "\n".join(lines) + "\n"
