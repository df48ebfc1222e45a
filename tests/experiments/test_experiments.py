"""The paper-claims suite: E1-E9 and the ablation A1 at their registered parameters.

Every experiment runs once per kernel path (``match_kernel``: the C kernel
and the Python references) and the result is cached for the module, so the
shape checks, the rendered tables, the cross-kernel differential and the
``EXPERIMENTS.md`` check share one run per path.  Each ``check_*`` function
holds one experiment's bounds; the mutation checks at the bottom plant a
defect and assert that the experiment's own check then fails, on both paths.
"""

from __future__ import annotations

import importlib.util
import inspect
import pathlib
import shutil
from collections import defaultdict

import pytest

import repro.experiments
from repro import native
from repro.analysis.reporting import ExperimentTable
from repro.experiments import EXPERIMENTS, attacks
from repro.searchable.swp import DOCUMENT_ID_LEN, SwpMatcher, SwpScheme
from repro.security.attacks import RandomGuessAdversary, SalaryPairAdversary, paper_salary_tables

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPECS = {spec.identifier: spec for spec in EXPERIMENTS}

#: The kernel this host built, captured before any test swaps it out.
BUILT_KERNEL = native.kernel

_RUNS: dict[tuple[str, str], object] = {}


def run(identifier: str, kernel: str):
    """The result of one experiment on one kernel path, run once per module."""
    key = (identifier, kernel)
    if key not in _RUNS:
        if kernel == "native" and BUILT_KERNEL is None:
            pytest.skip("the native kernel did not build on this host")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "kernel", BUILT_KERNEL if kernel == "native" else None)
            _RUNS[key] = SPECS[identifier].run()
    return _RUNS[key]


def _load_experiments_md_tool():
    """Import ``tools/generate_experiments_md.py`` from its path."""
    path = ROOT / "tools" / "generate_experiments_md.py"
    module_spec = importlib.util.spec_from_file_location("generate_experiments_md", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- #
# Each experiment's bounds
# --------------------------------------------------------------------------- #

def check_e1(result) -> None:
    """The salary-pair attack breaks bucketization; the construction resists it."""
    bucket_rows = [r for r in result.rows if r.scheme == "bucketization"]
    swp_rows = [r for r in result.rows if r.scheme == "dph-swp"]
    assert len(bucket_rows) == len(SPECS["E1"].parameters["bucket_counts"])
    assert result.rows[0].scheme == "bucketization" and len(swp_rows) == 1
    for row in bucket_rows:
        assert row.success_rate >= 0.9, f"{row.adversary} wins {row.success_rate:.3f} at {row.parameter}"
    for row in swp_rows:
        assert abs(row.advantage) <= 0.25, f"{row.adversary} has advantage {row.advantage:.3f}"


def check_e2(result) -> None:
    """The same attack breaks the hashed index unless the two salaries collide."""
    by_parameter = {r.parameter: r for r in result.rows if r.scheme == "damiani-hash"}
    assert by_parameter["hash-values=256"].success_rate >= 0.95
    assert by_parameter["hash-values=64"].success_rate >= 0.9
    # Collision probability 1/2 still lets Eve win 3 trials out of 4.
    assert by_parameter["hash-values=2"].success_rate >= 0.6
    assert result.rows[-1].scheme == "deterministic"
    assert result.rows[-1].success_rate >= 0.95


def check_e3(result) -> None:
    """Every q = 0 distinguisher has advantage ~0 against both backends."""
    assert {row.scheme for row in result.rows} == {"dph-swp", "dph-index"}
    for row in result.rows:
        assert abs(row.advantage) <= 0.22, (
            f"{row.adversary} achieved advantage {row.advantage:.3f} against {row.scheme}"
        )
        assert not row.result.broken_by(threshold=0.5)


def check_e4(result) -> None:
    """Theorem 2.1: every scheme falls once q > 0, none at q = 0."""
    with_queries = [r for r in result.rows if r.parameter in ("q=1 active", "q=1 passive")]
    without_queries = [r for r in result.rows if r.parameter == "q=0 active"]
    assert with_queries and without_queries
    assert all(r.success_rate >= 0.9 for r in with_queries)
    assert all(abs(r.advantage) <= 0.35 for r in without_queries)


def check_e5(result) -> None:
    """Eve identifies the queries and recovers the fatality ratios almost exactly."""
    assert [r.database_size for r in result.rows] == list(SPECS["E5"].parameters["sizes"])
    for row in result.rows:
        assert row.identification_rate >= 2 / 3
        # The construction introduces no false positives at default settings.
        assert row.mean_absolute_error <= 0.02
        assert row.max_absolute_error <= 0.05
    # Larger databases make the size-based identification easier, never harder.
    assert all(r.identification_rate == 1.0 for r in result.rows if r.database_size == 8000)


def check_e6(result) -> None:
    """The active attack finds John's hospital and outcome within 6 oracle queries."""
    assert [r.database_size for r in result.rows] == list(SPECS["E6"].parameters["sizes"])
    for row in result.rows:
        assert row.hospital_success_rate == 1.0
        assert row.outcome_success_rate == 1.0
        assert row.full_success_rate == 1.0
        assert row.mean_oracle_queries <= 6.0


def check_e7(result) -> None:
    """The false-positive rate tracks 2^-8m."""
    by_m = {row.check_length_bytes: row for row in result.rows}
    assert by_m[1].predicted_rate == pytest.approx(1 / 256)
    # m = 1 byte: the same order as the predicted 1/256.
    assert 0.0005 <= by_m[1].observed_rate <= 0.02, f"m = 1 rate {by_m[1].observed_rate:.4f}"
    # m = 2 bytes: predicted 1/65536, so ~0-3 hits in 30 000 words.
    assert by_m[2].false_positives <= 5
    # m = 3 bytes: essentially impossible at this sample size.
    assert by_m[3].false_positives == 0
    assert by_m[1].observed_rate >= by_m[2].observed_rate >= by_m[3].observed_rate


def check_e8(result) -> None:
    """Every phase completes, grows at most linearly, and the construction costs more
    than plaintext."""
    sizes = SPECS["E8"].parameters["sizes"]
    by_scheme = defaultdict(dict)
    for row in result.rows:
        by_scheme[row.scheme][row.relation_size] = row
    assert set(by_scheme) == {
        "dph-swp", "dph-index", "bucketization", "damiani-hash", "deterministic", "plaintext",
    }
    for scheme, per_size in by_scheme.items():
        for row in per_size.values():
            assert row.result_size > 0, scheme
            assert min(
                row.encrypt_ms, row.query_encrypt_ms, row.server_eval_ms, row.decrypt_filter_ms
            ) >= 0, scheme
        # 50x more tuples must not cost more than 500x: clearly not quadratic.
        small, large = per_size[sizes[0]], per_size[sizes[-1]]
        growth = sizes[-1] / sizes[0]
        assert large.encrypt_ms <= max(1.0, small.encrypt_ms) * growth * 10, scheme
        assert large.server_eval_ms <= max(1.0, small.server_eval_ms) * growth * 10, scheme
    assert by_scheme["dph-swp"][sizes[-1]].encrypt_ms >= by_scheme["plaintext"][sizes[-1]].encrypt_ms


def check_e9(result) -> None:
    """Expansion is a per-tuple constant between the plaintext floor and ~12x."""
    sizes = SPECS["E9"].parameters["sizes"]
    by_scheme_size = {(r.scheme, r.relation_size): r for r in result.rows}
    schemes = {r.scheme for r in result.rows}
    assert "dph-swp" in schemes and "plaintext" in schemes
    for row in result.rows:
        assert 1.0 <= row.expansion < 12.0, row
    for size in sizes:
        plaintext = by_scheme_size[("plaintext", size)].expansion
        assert by_scheme_size[("dph-swp", size)].expansion > plaintext
        assert by_scheme_size[("bucketization", size)].expansion >= plaintext
    # Independent of the table size, within 10%.
    for scheme in schemes:
        small = by_scheme_size[(scheme, sizes[0])].expansion
        large = by_scheme_size[(scheme, sizes[-1])].expansion
        assert abs(small - large) / small < 0.1, scheme


def check_a1(result) -> None:
    """Both layouts keep the homomorphism; the variable one stores >= 20% fewer bytes."""
    by_key = {(r.layout, r.relation_size): r for r in result.rows}
    for size in SPECS["A1"].parameters["sizes"]:
        fixed = by_key[("fixed-width", size)]
        variable = by_key[("variable-width", size)]
        assert fixed.homomorphism_holds and variable.homomorphism_holds
        assert variable.ciphertext_bytes <= fixed.ciphertext_bytes * 0.8


CHECKS = {
    "E1": check_e1, "E2": check_e2, "E3": check_e3, "E4": check_e4, "E5": check_e5,
    "E6": check_e6, "E7": check_e7, "E8": check_e8, "E9": check_e9, "A1": check_a1,
}


class TestPaperClaims:
    """Each experiment's bounds at its registered parameters, on both kernel paths."""

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_claim_holds(self, match_kernel, identifier):
        CHECKS[identifier](run(identifier, match_kernel))

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_run_renders_a_titled_table(self, match_kernel, identifier):
        result = run(identifier, match_kernel)
        assert result.rows
        assert result.to_table().render().startswith(f"== {identifier}:")

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_table_is_the_same_on_both_kernel_paths(self, identifier):
        # A whole-stack differential of the C sealer, matcher and opener.
        native_table = run(identifier, "native").to_table()
        python_table = run(identifier, "python").to_table()
        rendered = native_table.comparable(native_table.render())
        assert rendered == python_table.comparable(python_table.render())


class TestMutations:
    """A planted defect fails its experiment's own check on both kernel paths."""

    def test_deterministic_swp_words_fail_e3(self, match_kernel, monkeypatch):
        seal = SwpScheme.seal_documents

        def seal_under_one_id(self, documents, document_ids):
            return seal(self, documents, [bytes(DOCUMENT_ID_LEN)] * len(document_ids))

        monkeypatch.setattr(SwpScheme, "seal_documents", seal_under_one_id)
        result = SPECS["E3"].run()
        salary_pair = next(
            r for r in result.rows
            if r.scheme == "dph-swp" and r.adversary == SalaryPairAdversary.name
        )
        assert salary_pair.advantage > 0.22
        with pytest.raises(AssertionError, match="advantage"):
            check_e3(result)

    def test_an_swp_check_accepting_every_word_fails_e7(self, match_kernel, monkeypatch):
        def accept_every_word(self, items, words):
            return [item for item, item_words in zip(items, words) if tuple(item_words)]

        monkeypatch.setattr(SwpMatcher, "select", accept_every_word)
        result = SPECS["E7"].run()
        assert not 0.0005 <= result.rows[0].observed_rate <= 0.02
        with pytest.raises(AssertionError, match="m = 1 rate"):
            check_e7(result)

    def test_a_guessing_adversary_fails_e1(self, match_kernel, monkeypatch):
        tables = paper_salary_tables()
        monkeypatch.setattr(attacks, "SalaryPairAdversary", lambda: RandomGuessAdversary(*tables))
        result = SPECS["E1"].run()
        assert any(r.success_rate < 0.9 for r in result.rows if r.scheme == "bucketization")
        with pytest.raises(AssertionError, match="random-guess wins"):
            check_e1(result)


class TestRegistry:
    def test_every_experiment_is_registered_once(self):
        identifiers = [spec.identifier for spec in EXPERIMENTS]
        assert identifiers == [f"E{i}" for i in range(1, 10)] + ["A1"]
        assert set(CHECKS) == set(identifiers)

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_parameters_bind_to_the_runner(self, identifier):
        spec = SPECS[identifier]
        inspect.signature(spec.runner).bind(**spec.parameters)

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_runner_is_exported_by_the_package(self, identifier):
        runner = SPECS[identifier].runner
        assert runner.__name__.startswith(f"run_{identifier.lower()}_")
        assert runner.__name__ in repro.experiments.__all__
        assert getattr(repro.experiments, runner.__name__) is runner

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_prose_is_declared_without_its_labels(self, identifier):
        spec = SPECS[identifier]
        for text in (spec.title, spec.claim, spec.expected, spec.measured):
            assert text and text == text.strip()
        assert not spec.claim.startswith("Paper claim")
        assert not spec.expected.startswith("Expected shape")
        assert not spec.measured.startswith("Measured")


class TestTimingColumns:
    def test_a_timing_column_must_be_a_column(self):
        with pytest.raises(ValueError, match="not columns"):
            ExperimentTable("T", ["a", "b"], timing=("c",))

    @pytest.mark.parametrize("identifier, timing", [
        ("E8", ("encrypt ms", "Eq ms", "server ms", "decrypt+filter ms")),
        ("A1", ("encrypt ms", "server ms")),
    ])
    def test_wall_clock_columns_are_declared_on_the_table(self, match_kernel, identifier, timing):
        assert run(identifier, match_kernel).to_table().timing == timing

    def test_only_e8_and_a1_measure_wall_clock(self, match_kernel):
        untimed = [i for i in SPECS if i not in ("E8", "A1")]
        assert all(not run(i, match_kernel).to_table().timing for i in untimed)

    def test_comparable_blanks_timing_cells_only(self):
        table = ExperimentTable("T: t", ["scheme", "ms"], timing=("ms",))
        table.add_row("swp", 1.5)
        wider = ExperimentTable("T: t", ["scheme", "ms"], timing=("ms",))
        wider.add_row("swp", 12345.25)
        assert table.comparable(table.render()) == table.comparable(wider.render())
        assert table.comparable(table.render()) == ["== T: t ==", "scheme | ms", "swp | "]
        other = ExperimentTable("T: t", ["scheme", "ms"], timing=("ms",))
        other.add_row("index", 1.5)
        assert table.comparable(table.render()) != table.comparable(other.render())


class TestExperimentsDocument:
    """``EXPERIMENTS.md`` is generated from the cached runs and checked in."""

    @pytest.fixture
    def tables(self, match_kernel):
        return {identifier: run(identifier, match_kernel).to_table() for identifier in SPECS}

    @pytest.fixture
    def tool(self, tmp_path, monkeypatch, tables):
        """The generator, pointed at a copy of the document, reusing the cached runs."""
        module = _load_experiments_md_tool()
        shutil.copy(ROOT / "EXPERIMENTS.md", tmp_path / "EXPERIMENTS.md")
        monkeypatch.setattr(module, "TARGET", tmp_path / "EXPERIMENTS.md")
        monkeypatch.setattr(module, "run_all", lambda: tables)
        return module

    @staticmethod
    def _edit(tool, old: str, new: str) -> None:
        text = tool.TARGET.read_text(encoding="utf-8")
        assert text.count(old) == 1, old
        tool.TARGET.write_text(text.replace(old, new), encoding="utf-8")

    @staticmethod
    def _edit_cell(tool, tables, identifier: str, row: int, column: str, value: str) -> None:
        """Rewrite one cell of one table of the document."""
        text = tool.TARGET.read_text(encoding="utf-8")
        table = tables[identifier]
        lines = text.splitlines()
        at = lines.index(f"== {table.title} ==") + 3 + row
        cells = lines[at].split(" | ")
        cells[table.columns.index(column)] = value
        lines[at] = " | ".join(cells)
        tool.TARGET.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_the_checked_in_document_is_current(self, tool, capsys):
        assert tool.main(["--check"]) == 0, capsys.readouterr().err

    def test_check_ignores_an_edited_timing_cell(self, tool, tables):
        self._edit_cell(tool, tables, "E8", 0, "encrypt ms", "98765.432")
        self._edit_cell(tool, tables, "A1", 3, "server ms", "0.001    ")
        assert tool.main(["--check"]) == 0

    @pytest.mark.parametrize("identifier, row, column", [
        ("E8", 0, "hits"), ("E7", 0, "false positives"), ("A1", 1, "ciphertext bytes"),
    ])
    def test_check_fails_on_an_edited_cell(self, tool, tables, capsys, identifier, row, column):
        self._edit_cell(tool, tables, identifier, row, column, "7")
        assert tool.main(["--check"]) == 1
        assert "EXPERIMENTS.md is stale" in capsys.readouterr().err

    def test_check_fails_on_an_edited_prose_line(self, tool, capsys):
        self._edit(tool, "127 false positives in 30 000 words", "128 false positives in 30 000 words")
        assert tool.main(["--check"]) == 1
        assert "128 false positives" in capsys.readouterr().err

    def test_check_fails_on_a_missing_document(self, tool):
        tool.TARGET.unlink()
        assert tool.main(["--check"]) == 1

    def test_main_writes_what_the_check_accepts(self, tool, capsys):
        tool.TARGET.unlink()
        assert tool.main([]) == 0
        assert "wrote" in capsys.readouterr().out
        assert tool.main(["--check"]) == 0

    def test_sections_follow_the_registry(self, tool, tables):
        document = tool.generate(tables)
        assert document.startswith(tool.PREAMBLE)
        assert document.rstrip().endswith(tool.CLOSING.rstrip())
        headings = [line[3:].split(" — ")[0] for line in document.splitlines()
                    if line.startswith("## ") and " — " in line]
        assert headings == list(SPECS)
        for label in ("Paper claim", "Expected shape", "Measured"):
            assert document.count(f"**{label}.**") == len(SPECS)

    @pytest.mark.parametrize("identifier", list(SPECS))
    def test_each_section_embeds_its_prose_parameters_and_table(self, tool, tables, identifier):
        spec = SPECS[identifier]
        document = tool.generate(tables)
        section = document.split(f"\n## {identifier} — {spec.title}\n", 1)[1].split("\n## ", 1)[0]
        assert f"**Measured.** {spec.measured}" in section
        assert f"`{', '.join(f'{k}={v!r}' for k, v in spec.parameters.items())}`" in section
        assert f"```text\n{tables[identifier].render()}\n```" in section
