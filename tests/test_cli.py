"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, build_scheme, main
from repro.schemes.registry import available_schemes
from repro.workloads import EmployeeWorkload, employee_schema


SECONDS_OPTIONS = [
    ("stats", "tcp://127.0.0.1:1", "--watch"),
    ("stats", "tcp://127.0.0.1:1", "--timeout"),
    ("trace", "tcp://127.0.0.1:1", "--watch"),
    ("trace", "tcp://127.0.0.1:1", "--timeout"),
    ("cluster status", "cluster://127.0.0.1:1", "--timeout"),
]


class TestSecondsOptions:
    """Every ``--watch`` / ``--timeout`` is a finite number of seconds above zero."""

    @pytest.mark.parametrize("command, url, option", SECONDS_OPTIONS)
    @pytest.mark.parametrize("bad", ["-1", "nan", "0", "inf", "-inf", "soon", ""])
    def test_a_bad_value_is_a_usage_error(self, command, url, option, bad, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command.split(), url, f"{option}={bad}"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage:")
        assert "finite and > 0" in error

    @pytest.mark.parametrize("command, url, option", SECONDS_OPTIONS)
    def test_a_positive_value_parses(self, command, url, option):
        args = build_parser().parse_args([*command.split(), url, option, "0.25"])
        assert getattr(args, option.lstrip("-")) == 0.25


BAD_NUMBERS = [
    ("demo --size -3", "--size", ">= 0"),
    ("attack john --size 0", "--size", ">= 1"),
    ("attack hospital --size -1", "--size", ">= 1"),
    ("attack salary-pair --trials 0", "--trials", ">= 1"),
    ("attack salary-pair --trials -1", "--trials", ">= 1"),
    ("serve --max-audit-events -1", "--max-audit-events", ">= 1"),
    ("serve --max-audit-events 0", "--max-audit-events", ">= 1"),
    ("serve --port -5", "--port", "in [0, 65535]"),
    ("serve --port 65536", "--port", "in [0, 65535]"),
    ("serve --port http", "--port", "in [0, 65535]"),
    ("serve --max-frame-size 0", "--max-frame-size", ">= 1"),
    ("serve --stats-interval -1", "--stats-interval", "finite and >= 0"),
    ("serve --stats-interval nan", "--stats-interval", "finite and >= 0"),
    ("cluster spawn --max-audit-events 0", "--max-audit-events", ">= 1"),
    ("trace tcp://127.0.0.1:1 --limit -1", "--limit", ">= 0"),
]

EDGE_NUMBERS = [
    ("demo --size 0", "size", 0),
    ("attack john --size 1", "size", 1),
    ("attack salary-pair --trials 1", "trials", 1),
    ("serve --port 0", "port", 0),
    ("serve --port 65535", "port", 65535),
    ("serve --max-frame-size 1", "max_frame_size", 1),
    ("serve --max-audit-events 1", "max_audit_events", 1),
    ("serve --stats-interval 0", "stats_interval", 0.0),
    ("cluster spawn --max-audit-events 1", "max_audit_events", 1),
    ("trace tcp://127.0.0.1:1 --limit 0", "limit", 0),
]


class TestParser:
    @pytest.mark.parametrize("argv, option, wanted", BAD_NUMBERS)
    def test_a_number_out_of_range_is_a_usage_error(self, argv, option, wanted, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv.split())
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage:")
        assert f"argument {option}: want " in error and wanted in error
        assert "Traceback" not in error

    @pytest.mark.parametrize("argv, attribute, value", EDGE_NUMBERS)
    def test_edge_values_parse(self, argv, attribute, value):
        assert getattr(build_parser().parse_args(argv.split()), attribute) == value

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scheme == "swp"
        assert args.size == 500

    def test_attack_choices(self):
        args = build_parser().parse_args(["attack", "john", "--size", "300"])
        assert args.attack == "john"
        assert args.size == 300
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "unknown-attack"])

    def test_cluster_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cluster"])

    def test_cluster_spawn_defaults(self):
        args = build_parser().parse_args(["cluster", "spawn"])
        assert args.shards == 2
        assert args.host == "127.0.0.1"

    def test_serve_stats_interval_flag(self):
        args = build_parser().parse_args(["serve", "--stats-interval", "2.5"])
        assert args.stats_interval == 2.5

    def test_serve_dispatch_workers_flag(self):
        args = build_parser().parse_args(["serve", "--dispatch-workers", "8"])
        assert args.dispatch_workers == 8
        assert build_parser().parse_args(["serve"]).dispatch_workers == 4

    def test_cluster_manifest_flags(self):
        spawn = build_parser().parse_args(
            ["cluster", "spawn", "--manifest", "fleet.json"]
        )
        assert spawn.manifest == "fleet.json"
        status = build_parser().parse_args(
            ["cluster", "status", "--manifest", "fleet.json"]
        )
        assert status.manifest == "fleet.json"
        assert status.url is None


class TestBuildScheme:
    def test_every_choice_is_constructible(self):
        schema = employee_schema()
        names = {build_scheme(name, schema).name for name in available_schemes()}
        assert len(names) == len(available_schemes())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            build_scheme("nope", employee_schema())


class TestCommands:
    def test_demo_runs(self, capsys):
        exit_code = main(["demo", "--scheme", "index", "--size", "60", "--seed", "1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Outsourced 60 tuples" in captured.out
        assert "false positive" in captured.out

    @pytest.mark.parametrize("scheme", available_schemes())
    def test_demo_runs_on_every_scheme(self, scheme, capsys):
        assert main(["demo", "--scheme", scheme, "--size", "40", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        label = build_scheme(scheme, employee_schema()).name
        assert lines[0].startswith(f"Outsourced 40 tuples with {label}: ")
        assert int(lines[0].split(": ")[1].split()[0]) > 0
        hr = EmployeeWorkload.generate(40, seed=2).relation.select_equal("dept", "HR")
        assert lines[1] == "SELECT * FROM Emp WHERE dept = 'HR'"
        assert lines[2].startswith(f"  -> {len(hr)} tuple(s), ")

    def test_demo_of_an_empty_relation(self, capsys):
        assert main(["demo", "--size", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Outsourced 0 tuples with dph-swp: 0 ciphertext bytes.")
        assert out.count("-> 0 tuple(s), 0 false positive(s) filtered") == 2

    def test_attack_salary_pair(self, capsys):
        exit_code = main(["attack", "salary-pair", "--trials", "20", "--scheme", "deterministic"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "salary-pair attack vs deterministic" in captured.out
        assert "success 1.00" in captured.out

    def test_attack_john(self, capsys):
        exit_code = main(["attack", "john", "--size", "200", "--seed", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "target 'John'" in captured.out

    def test_attack_hospital(self, capsys):
        exit_code = main(["attack", "hospital", "--size", "300", "--seed", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "query identification correct: True" in captured.out

    def test_experiments_unknown_id(self, capsys):
        exit_code = main(["experiments", "--only", "E99"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown experiment" in captured.err

    def test_experiments_single_run(self, capsys):
        exit_code = main(["experiments", "--only", "E9"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "E9" in captured.out
        assert "expansion" in captured.out

    def test_experiments_ids_are_case_insensitive(self, capsys):
        assert main(["experiments", "--only", "e9"]) == 0
        assert "[E9]" in capsys.readouterr().out

    def test_experiments_rejects_the_retired_e10(self, capsys):
        assert main(["experiments", "--only", "E10"]) == 2
        assert "E10" in capsys.readouterr().err

    def test_bench_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["bench", "run"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestClusterCommands:
    def test_route_distribution_is_offline_and_balanced(self, capsys):
        exit_code = main([
            "cluster", "route",
            "cluster://10.0.0.1:7707,10.0.0.2:7707,10.0.0.3:7707",
            "--keys", "3000",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "ring of 3 shard(s)" in captured.out
        assert "max deviation" in captured.out

    def test_route_single_key(self, capsys):
        exit_code = main([
            "cluster", "route", "cluster://a:1,b:2", "--key", "deadbeef",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "deadbeef -> tcp://" in captured.out

    def test_route_rejects_garbage(self, capsys):
        assert main(["cluster", "route", "cluster://"]) == 2
        assert main(["cluster", "route", "cluster://h:1", "--key", "zz"]) == 2
        assert main(["cluster", "route", "cluster://h:1", "--keys", "0"]) == 2
        assert main(["cluster", "route", "cluster://h:1", "--replicas", "0"]) == 2
        assert main(["cluster", "route", "cluster://h:1", "--replicas", "2"]) == 2
        assert main(["cluster", "route", "cluster://h:1", "--virtual-nodes", "0"]) == 2
        assert main(["cluster", "route", "cluster://h:1?quorum=2"]) == 2

    def test_route_reports_replica_placement(self, capsys):
        exit_code = main([
            "cluster", "route", "cluster://a:1,b:2,c:3?replicas=2",
            "--keys", "500",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "replication factor 2" in captured.out
        assert "1000 copies" in captured.out
        assert "up to 1 shard(s) down" in captured.out

    def test_route_single_key_lists_the_replica_set(self, capsys):
        exit_code = main([
            "cluster", "route", "cluster://a:1,b:2,c:3", "--key", "deadbeef",
            "--replicas", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        line = [l for l in captured.out.splitlines() if l.startswith("deadbeef")][0]
        shards = line.split(" -> ")[1].split(", ")
        assert len(shards) == len(set(shards)) == 2

    def test_spawn_rejects_a_zero_fleet(self, capsys):
        assert main(["cluster", "spawn", "--shards", "0"]) == 2

    def test_spawn_rejects_impossible_replication(self, capsys):
        assert main(["cluster", "spawn", "--shards", "2", "--replicas", "0"]) == 2
        assert main(["cluster", "spawn", "--shards", "2", "--replicas", "3"]) == 2

    def test_status_reports_live_shards(self, capsys):
        from repro.api import EncryptedDatabase
        from repro.net import ThreadedTcpServer

        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            url = f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port}"
            with EncryptedDatabase.connect(url) as db:
                db.create_table(
                    "T(name:string[8], v:int[4])",
                    rows=[(f"n{i}", i) for i in range(20)],
                )
                exit_code = main(["cluster", "status", url])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2/2 shard(s) up" in captured.out
        assert "T=" in captured.out

    def test_status_flags_a_down_shard(self, capsys):
        from repro.net import ThreadedTcpServer

        with ThreadedTcpServer() as one:
            exit_code = main([
                "cluster", "status",
                f"cluster://127.0.0.1:{one.port},127.0.0.1:1",
                "--timeout", "2",
            ])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "DOWN" in captured.out
        assert "1/2 shard(s) up" in captured.out

    def test_status_rejects_an_impossible_replication_factor(self, capsys):
        assert main(["cluster", "status", "cluster://h:1,i:2?replicas=5"]) == 2
        assert "impossible" in capsys.readouterr().err

    def test_status_explains_replicated_outage_tolerance(self, capsys):
        from repro.net import ThreadedTcpServer

        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            exit_code = main([
                "cluster", "status",
                f"cluster://127.0.0.1:{one.port},127.0.0.1:{two.port},"
                f"127.0.0.1:1?replicas=2",
                "--timeout", "2",
            ])
        captured = capsys.readouterr()
        assert exit_code == 1  # a shard is still down, even if reads survive
        assert "replication factor 2: reads stay complete" in captured.out

    def test_status_from_a_manifest_file(self, capsys, tmp_path):
        from repro.cluster import ClusterManifest, ShardEntry
        from repro.net import ThreadedTcpServer

        with ThreadedTcpServer() as one, ThreadedTcpServer() as two:
            path = ClusterManifest(
                shards=(
                    ShardEntry("shard-0", f"tcp://127.0.0.1:{one.port}"),
                    ShardEntry("shard-1", f"tcp://127.0.0.1:{two.port}"),
                ),
            ).save(tmp_path / "fleet.json")
            exit_code = main(["cluster", "status", "--manifest", str(path)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2/2 shard(s) up" in captured.out
        assert "shard-0" in captured.out

    def test_status_needs_exactly_one_topology_source(self, capsys, tmp_path):
        assert main(["cluster", "status"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main([
            "cluster", "status", "cluster://h:1", "--manifest", str(tmp_path / "f.json")
        ]) == 2

    def test_status_rejects_a_broken_manifest(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["cluster", "status", "--manifest", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_serve_rejects_zero_dispatch_workers(self, capsys):
        assert main(["serve", "--dispatch-workers", "0"]) == 2
        assert "dispatch-workers" in capsys.readouterr().err
