"""Tests of the benchmark harness itself (tiny sizes, a few seconds in all)."""

from __future__ import annotations

import collections
import copy
import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from e2ebench import harness, metrics, report  # noqa: E402
from e2ebench.spec import WORKLOADS, declared_metrics, load_declaration  # noqa: E402
from e2ebench.stream import Op, OpStream, check, make_rows, select_sql  # noqa: E402
from e2ebench.trace import Span, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
DECLARATION = load_declaration()


def stream_bytes(name: str, seed: int, count: int = 300) -> bytes:
    spec = WORKLOADS[name]
    stream = OpStream(spec, make_rows(seed, 200), seed)
    return "\n".join(op.to_json() for op in stream.take(count)).encode()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stream_is_deterministic_per_seed_and_differs_across_seeds(name):
    assert stream_bytes(name, 5) == stream_bytes(name, 5)
    assert stream_bytes(name, 5) != stream_bytes(name, 6)


def test_stream_mix_follows_the_spec_and_oracle_tracks_live_rows():
    spec = WORKLOADS["mixed_crud_cluster"]
    stream = OpStream(spec, make_rows(1, 200), 1)
    ops = stream.take(2000)
    kinds = {kind: sum(op.kind == kind for op in ops) for kind in
             ("select", "insert", "update", "delete")}
    assert stream.live_count == 200 + kinds["insert"] - kinds["delete"]
    for kind, share in spec.mix.items():
        assert abs(kinds[kind] / len(ops) - share) < 0.03


def test_department_quotas_do_not_depend_on_the_seed():
    sizes = [
        sorted(collections.Counter(row[1] for row in make_rows(seed, 500)).values())
        for seed in (1, 2)
    ]
    assert sizes[0] == sizes[1] and sum(sizes[0]) == 500


def tiny_run(name: str, traced: bool, **kwargs):
    return harness.run_workload(
        WORKLOADS[name], seed=3, seconds=0.05, traced=traced,
        table_rows=40, segment_ops=8, **kwargs,
    )


def test_oracle_catches_an_injected_wrong_answer(monkeypatch):
    real = harness.execute
    rows = make_rows(3, 40)
    calls = {"n": 0}

    def lying(db, op):
        calls["n"] += 1
        if calls["n"] == 20:  # answer with another employee's row
            wrong = next(row for row in rows if row not in op.expected)
            return real(db, Op("select", select_sql("name", wrong[0])))
        return real(db, op)

    monkeypatch.setattr(harness, "execute", lying)
    run = tiny_run("scan_select", traced=False)
    assert run.failed == 1 and "disagreed with the oracle" in run.errors[0]


def test_check_compares_counts_for_deletes_and_updates():
    assert check(Op("delete", "q", expected=1), 1)
    assert not check(Op("delete", "q", expected=1), 0)
    assert not check(Op("update", "q", changes={"salary": 1}, expected=1), 2)
    assert check(Op("insert", row=("a", "HR", 1)), None)


def test_self_time_is_duration_minus_children():
    #  root 0..10 ; a 1..4 ; a1 2..3 ; b 5..9
    spans = [
        Span("api", "select", 0.0, -1, 1, 10.0),
        Span("schemes", "a", 1.0, 0, 1, 4.0),
        Span("protocol", "a1", 2.0, 1, 1, 3.0),
        Span("net", "b", 5.0, 0, 1, 9.0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_declared_names_are_well_formed_and_unique():
    names = [w["name"] for w in DECLARATION["workloads"]]
    names += [m["name"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in DECLARATION["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in DECLARATION["end_to_end"])


@pytest.mark.parametrize("name", ["scan_select", "hot_read_cached", "mixed_crud_cluster"])
def test_measured_metrics_are_exactly_the_declared_ones(name):
    plain = tiny_run(name, traced=False)
    traced = tiny_run(name, traced=True)
    assert plain.failed == 0 and traced.failed == 0, plain.errors + traced.errors
    assert metrics.end_to_end(plain).keys() == declared_metrics(DECLARATION, False).keys()
    layers = metrics.per_layer(traced)
    assert layers.keys() == declared_metrics(DECLARATION, True).keys()
    assert all(value["value"] > 0 for value in metrics.end_to_end(plain).values())
    # The layers a deployment does not have report nothing; the ones it has do.
    assert (layers["cluster.shard_requests_per_op"]["value"] > 0) == (name == "mixed_crud_cluster")
    assert (layers["cache.hit_ratio"]["den"] > 0) == (name == "hot_read_cached")
    assert layers["net.round_trips_per_op"]["value"] > 0
    assert 0 <= layers["obs.unattributed_share"]["value"] < 1


def result_set(ops_per_s: float) -> dict:
    entry = {"value": ops_per_s, "q1": ops_per_s * 0.99, "q3": ops_per_s * 1.01, "n": 9}
    return {"meta": {}, "results": [{
        "workload": "scan_select", "traced": False, "failed": 0, "attempted": 10,
        "metrics": {"ops_per_s": entry},
    }]}


def test_compare_passes_an_identical_pair_and_flags_an_out_of_bound_one():
    bound = declared_metrics(DECLARATION, False)["ops_per_s"]["bound"]
    same = report.compare(result_set(100.0), result_set(100.0), DECLARATION)
    assert [row["verdict"] for row in same] == ["within"]
    slower = report.compare(result_set(100.0), result_set(100.0 * (1 - bound) - 1), DECLARATION)
    assert [row["verdict"] for row in slower] == ["outside"]
    faster = report.compare(result_set(100.0), result_set(150.0), DECLARATION)
    assert [row["verdict"] for row in faster] == ["within"]
    noisy = copy.deepcopy(result_set(100.0))
    noisy["results"][0]["metrics"]["ops_per_s"]["q3"] = 100.0 * (1 + 4 * bound)
    assert report.compare(noisy, result_set(100.0), DECLARATION)[0]["verdict"] == "unresolved"
    failed = result_set(100.0)
    failed["results"][0]["failed"] = 1
    assert report.compare(result_set(100.0), failed, DECLARATION)[0]["verdict"] == "outside"


def test_render_is_a_function_of_the_results(tmp_path):
    baseline = Path(__file__).resolve().parents[1] / "baseline.json"
    text = report.render(json.loads(baseline.read_text()), DECLARATION)
    assert text == (baseline.with_suffix(".md")).read_text()
