"""``tools/ab.py``: its usage errors and its verdict, on synthetic run documents.

Nothing here runs a benchmark: a usage error must exit 2 before anything is
checked out, and the verdict is a pure function of the ``run.py`` documents.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

DECLARED = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    {"name": "select_p50_ms", "better": "lower", "bound": 0.2},
    {"name": "api.write_p50_ms", "better": "lower"},
]


@pytest.fixture
def no_checkout(monkeypatch):
    def refuse(rev, directory):
        raise AssertionError("a usage error must stop ab.py before the checkout")

    monkeypatch.setattr(ab, "checkout", refuse)


@pytest.mark.parametrize("argv", [
    ["--pairs", "0"],
    ["--pairs", "-2"],
    ["--pairs", "1.5"],
    ["--pairs", "many"],
    ["--seconds", "nan"],
    ["--seconds", "-1"],
    ["--seconds", "0"],
    ["--seconds", "inf"],
    ["--seconds", "-inf"],
    ["--seconds", "soon"],
])
def test_bad_counts_exit_2_before_any_checkout(argv, no_checkout, capsys):
    with pytest.raises(SystemExit) as stopped:
        ab.main(["HEAD", *argv])
    assert stopped.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_good_counts_reach_the_checkout(monkeypatch):
    def stop(rev, directory):
        raise RuntimeError(f"checkout {rev}")

    monkeypatch.setattr(ab, "checkout", stop)
    with pytest.raises(RuntimeError, match="checkout HEAD"):
        ab.main(["HEAD", "--pairs", "1", "--seconds", "0.5"])


def test_the_count_types():
    assert ab.positive_int("12") == 12
    assert ab.positive_seconds("0.5") == 0.5
    assert ab.positive_seconds("12") == 12.0


def document(workload: str, failed: int, attempted: int, **metrics) -> dict:
    return {"results": [{
        "workload": workload,
        "failed": failed,
        "attempted": attempted,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }]}


def pairs_of(rev: list[dict], tree: list[dict]) -> list[tuple[dict, dict]]:
    return list(zip(rev, tree))


def rows_by_name(summary):
    return {row["name"]: row for row in summary[0]["metrics"]}


def test_the_verdict_follows_the_medians_and_the_bound():
    rev = [document("w", 0, 100, ops_per_s=100.0, select_p50_ms=5.0, **{"api.write_p50_ms": 1.0})
           for _ in range(3)]
    tree = [
        document("w", 0, 100, ops_per_s=79.0, select_p50_ms=5.9, **{"api.write_p50_ms": 9.0}),
        document("w", 0, 100, ops_per_s=79.5, select_p50_ms=6.0, **{"api.write_p50_ms": 9.0}),
        document("w", 0, 100, ops_per_s=200.0, select_p50_ms=6.1, **{"api.write_p50_ms": 9.0}),
    ]
    summary = ab.summarize(pairs_of(rev, tree), DECLARED)
    rows = rows_by_name(summary)
    assert rows["ops_per_s"]["verdict"] == "outside"  # median 79.5 < 80
    assert rows["ops_per_s"]["wins"] == 1
    assert rows["select_p50_ms"]["verdict"] == "same"  # median 6.0, bound 6.0
    assert rows["api.write_p50_ms"]["verdict"] is None  # no declared bound
    assert ab.exit_status(summary) == 1


@pytest.mark.parametrize("rev_median, tree_median, better, expected", [
    (100.0, 120.0, "higher", "better"),
    (100.0, 100.0, "higher", "same"),
    (100.0, 80.0, "higher", "same"),
    (100.0, 79.9, "higher", "outside"),
    (5.0, 4.0, "lower", "better"),
    (5.0, 6.0, "lower", "same"),
    (5.0, 6.01, "lower", "outside"),
    (0.0, 0.0, "lower", "same"),
    (0.0, 0.1, "lower", "outside"),
])
def test_verdict_of_one_metric(rev_median, tree_median, better, expected):
    metric = {"name": "m", "better": better, "bound": 0.2}
    assert ab.verdict(rev_median, tree_median, metric) == expected


def test_a_larger_failed_share_is_flagged_even_when_every_metric_is_better():
    rev = [document("w", 1, 100, ops_per_s=100.0), document("w", 0, 100, ops_per_s=100.0)]
    tree = [document("w", 1, 50, ops_per_s=150.0), document("w", 0, 50, ops_per_s=150.0)]
    summary = ab.summarize(pairs_of(rev, tree), DECLARED)
    assert summary[0]["failed"] == [1, 1] and summary[0]["attempted"] == [200, 100]
    assert summary[0]["more_failed"]
    assert rows_by_name(summary)["ops_per_s"]["verdict"] == "better"
    assert ab.exit_status(summary) == 1


def test_a_clean_comparison_exits_0():
    rev = [document("w", 2, 100, ops_per_s=100.0, select_p50_ms=5.0)]
    tree = [document("w", 1, 100, ops_per_s=95.0, select_p50_ms=4.0)]
    summary = ab.summarize(pairs_of(rev, tree), DECLARED)
    assert not summary[0]["more_failed"]
    assert [row["verdict"] for row in summary[0]["metrics"]] == ["same", "better"]
    assert ab.exit_status(summary) == 0


def test_no_failures_on_either_side_is_not_a_larger_share():
    summary = ab.summarize(pairs_of([document("w", 0, 0)], [document("w", 0, 0)]), DECLARED)
    assert not summary[0]["more_failed"]
    assert summary[0]["metrics"] == []
    assert ab.exit_status(summary) == 0


def test_the_report_prints_each_verdict(capsys):
    rev = [document("w", 0, 10, ops_per_s=100.0, select_p50_ms=5.0)]
    tree = [document("w", 1, 10, ops_per_s=50.0, select_p50_ms=4.0)]
    ab.report(ab.summarize(pairs_of(rev, tree), DECLARED), 1)
    out = capsys.readouterr().out
    assert "LARGER FAILED SHARE" in out
    assert "outside" in out and "better" in out
