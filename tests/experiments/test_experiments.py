"""Tests for the experiment harness (reduced parameters).

These tests run every experiment with tiny parameters and assert both the
mechanical contract (rows, table rendering) and the qualitative shape each
benchmark later verifies at full size.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib

import pytest

import repro.experiments
from repro.experiments import (
    EXPERIMENTS,
    run_e1_bucketization_attack,
    run_e2_damiani_attack,
    run_e3_dph_indistinguishability,
    run_e4_theorem21,
    run_e5_hospital_inference,
    run_e6_active_adversary,
    run_e7_false_positives,
    run_e8_throughput,
    run_e9_storage_overhead,
)


class TestAttackExperiments:
    def test_e1_shape(self):
        result = run_e1_bucketization_attack(trials=30, bucket_counts=(16,))
        assert len(result.rows) == 2  # one bucketization row + the SWP reference
        bucket_row = result.rows[0]
        assert bucket_row.scheme == "bucketization"
        assert bucket_row.success_rate >= 0.9
        assert "E1" in result.to_table().render()

    def test_e2_shape(self):
        result = run_e2_damiani_attack(trials=30, hash_value_counts=(256,))
        damiani_row = result.rows[0]
        assert damiani_row.success_rate >= 0.9
        assert result.rows[-1].scheme == "deterministic"

    def test_e3_shape(self):
        result = run_e3_dph_indistinguishability(trials=40)
        assert {row.scheme for row in result.rows} == {"dph-swp", "dph-index"}
        assert all(abs(row.advantage) <= 0.4 for row in result.rows)

    def test_e4_shape(self):
        result = run_e4_theorem21(trials=15, table_size=6)
        broken = [r for r in result.rows if r.parameter in ("q=1 active", "q=1 passive")]
        immune = [r for r in result.rows if r.parameter == "q=0 active"]
        assert all(r.success_rate >= 0.9 for r in broken)
        assert all(abs(r.advantage) <= 0.6 for r in immune)


class TestInferenceExperiments:
    def test_e5_shape(self):
        result = run_e5_hospital_inference(sizes=(400,), trials=2)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.identification_rate >= 0.5
        assert row.max_absolute_error <= 0.1
        assert "E5" in result.to_table().render()

    def test_e6_shape(self):
        result = run_e6_active_adversary(sizes=(400,), trials=2)
        row = result.rows[0]
        assert row.full_success_rate == 1.0
        assert row.mean_oracle_queries <= 6


class TestPerformanceExperiments:
    def test_e7_shape(self):
        result = run_e7_false_positives(check_lengths=(1,), words_per_setting=3000)
        row = result.rows[0]
        assert row.predicted_rate == pytest.approx(1 / 256)
        assert 0 <= row.observed_rate < 0.05

    def test_e8_shape(self):
        result = run_e8_throughput(sizes=(50,))
        schemes = {row.scheme for row in result.rows}
        assert "dph-swp" in schemes and "plaintext" in schemes
        assert all(row.encrypt_ms >= 0 for row in result.rows)
        assert all(row.result_size > 0 for row in result.rows)

    def test_e9_shape(self):
        result = run_e9_storage_overhead(sizes=(100,))
        by_scheme = {row.scheme: row for row in result.rows}
        assert by_scheme["dph-swp"].expansion > by_scheme["plaintext"].expansion
        assert all(row.expansion >= 1.0 for row in result.rows)


ROOT = pathlib.Path(__file__).resolve().parents[2]

#: The one benchmark that is an ablation, not a registered paper experiment.
ABLATION = ("A1", "benchmarks/bench_a1_variable_length.py")

SPECS = {spec.identifier: spec for spec in EXPERIMENTS}


def _load_experiments_md_tool():
    """Import ``tools/generate_experiments_md.py`` from its path."""
    path = ROOT / "tools" / "generate_experiments_md.py"
    module_spec = importlib.util.spec_from_file_location("generate_experiments_md", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


SECTIONS = {section[0]: section for section in _load_experiments_md_tool().SECTIONS}


class TestRegistry:
    def test_every_experiment_is_registered(self):
        identifiers = [spec.identifier for spec in EXPERIMENTS]
        assert identifiers == [f"E{i}" for i in range(1, 10)]

    def test_registry_entries_point_to_existing_benchmarks(self):
        for spec in EXPERIMENTS:
            assert (ROOT / spec.benchmark).exists(), spec.benchmark

    def test_every_benchmark_script_is_registered(self):
        scripts = {
            path.relative_to(ROOT).as_posix()
            for path in (ROOT / "benchmarks").glob("bench_*.py")
        }
        assert scripts == {spec.benchmark for spec in EXPERIMENTS} | {ABLATION[1]}

    def test_experiments_md_sections_follow_the_registry(self):
        module = _load_experiments_md_tool()
        sections = {
            identifier: f"benchmarks/bench_{stem}.py"
            for identifier, stem, *_ in module.SECTIONS
        }
        expected = {spec.identifier: spec.benchmark for spec in EXPERIMENTS}
        assert sections == {**expected, ABLATION[0]: ABLATION[1]}

    def test_quick_parameters_are_usable(self):
        # Run the cheapest registry entry end to end through run_quick().
        spec = next(s for s in EXPERIMENTS if s.identifier == "E9")
        result = spec.run_quick()
        assert result.rows


class TestRegistryEntries:
    """Every registry entry is runnable, exported and wired to its benchmark."""

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_quick_run_renders_a_titled_table(self, identifier):
        result = SPECS[identifier].run_quick()
        assert result.rows
        assert result.to_table().render().startswith(f"== {identifier}:")

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_quick_parameters_bind_to_the_runner(self, identifier):
        spec = SPECS[identifier]
        inspect.signature(spec.runner).bind(**spec.quick_parameters)

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_runner_is_exported_by_the_package(self, identifier):
        runner = SPECS[identifier].runner
        assert runner.__name__.startswith(f"run_{identifier.lower()}_")
        assert runner.__name__ in repro.experiments.__all__
        assert getattr(repro.experiments, runner.__name__) is runner

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_benchmark_script_runs_the_registered_runner(self, identifier):
        spec = SPECS[identifier]
        source = (ROOT / spec.benchmark).read_text(encoding="utf-8")
        assert f"from repro.experiments import {spec.runner.__name__}" in source

    @pytest.mark.parametrize("identifier", list(SECTIONS))
    def test_benchmark_writes_the_table_its_section_embeds(self, identifier):
        # The script records results/<stem>.txt; the generator reads that file.
        stem = SECTIONS[identifier][1]
        source = (ROOT / "benchmarks" / f"bench_{stem}.py").read_text(encoding="utf-8")
        assert f'record_table("{stem}",' in source

    @pytest.mark.parametrize("identifier", list(SECTIONS))
    def test_section_text_carries_the_labels_the_generator_strips(self, identifier):
        _, _, title, claim, expected, measured = SECTIONS[identifier]
        assert title
        assert claim.startswith("Paper claim")
        assert expected.startswith("Expected shape: ")
        assert measured.startswith("Measured: ")


class TestExperimentsDocument:
    """``tools/generate_experiments_md.py`` renders the tables the benchmarks wrote."""

    @pytest.fixture
    def tool(self, tmp_path, monkeypatch):
        module = _load_experiments_md_tool()
        monkeypatch.setattr(module, "ROOT", tmp_path)
        monkeypatch.setattr(module, "RESULTS", tmp_path / "results")
        return module

    @staticmethod
    def _render(tool, capsys) -> str:
        assert tool.main() == 0
        assert "wrote" in capsys.readouterr().out
        return (tool.ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")

    def test_missing_results_directory_fails(self, tool, capsys):
        assert tool.main() == 1
        assert "--benchmark-only" in capsys.readouterr().err
        assert not (tool.ROOT / "EXPERIMENTS.md").exists()

    @pytest.mark.parametrize("identifier", list(SECTIONS))
    def test_each_section_embeds_its_table(self, tool, capsys, identifier):
        tool.RESULTS.mkdir()
        for _, stem, *_ in tool.SECTIONS:
            (tool.RESULTS / f"{stem}.txt").write_text(f"table of {stem}\n", encoding="utf-8")
        document = self._render(tool, capsys)
        _, stem, title, *_ = SECTIONS[identifier]
        section = document.split(f"\n## {identifier} — {title}\n", 1)[1].split("\n## ", 1)[0]
        assert f"```text\ntable of {stem}\n```" in section
        assert f"`pytest benchmarks/bench_{stem}.py --benchmark-only`" in section

    def test_a_missing_table_renders_a_placeholder(self, tool, capsys):
        tool.RESULTS.mkdir()
        document = self._render(tool, capsys)
        assert document.count("(table not generated yet)") == len(tool.SECTIONS)

    def test_labels_are_bold_and_not_repeated(self, tool, capsys):
        tool.RESULTS.mkdir()
        document = self._render(tool, capsys)
        for label in ("Paper claim", "Expected shape", "Measured"):
            assert document.count(f"**{label}.**") == len(tool.SECTIONS)
        assert "Paper claim: " not in document
        assert "Expected shape: " not in document

    def test_sections_follow_preamble_in_order_then_closing(self, tool, capsys):
        tool.RESULTS.mkdir()
        document = self._render(tool, capsys)
        assert document.startswith(tool.PREAMBLE)
        headings = [line[3:].split(" — ")[0] for line in document.splitlines()
                    if line.startswith("## ") and " — " in line]
        assert headings == [f"E{i}" for i in range(1, 10)] + ["A1"]
        assert document.rstrip().endswith(tool.CLOSING.rstrip())
