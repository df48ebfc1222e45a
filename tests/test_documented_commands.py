"""Every ``python`` / ``pytest`` command the docs give names something that exists.

A command that names a missing script, or a pytest target that pytest does
not collect by default, runs nothing and can still exit 0 (``pytest`` on a
file it does not collect reports 0 tests).  The commands are read from the
README's fenced ``sh`` blocks and from the code spans of the verify skill.
"""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: pytest options whose value is the next word.
PYTEST_VALUED_OPTIONS = {"-k", "-m", "-o", "-p", "-c", "--rootdir", "--durations"}


def _readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", text, re.S | re.M)
    return [line for block in blocks for line in block.splitlines() if line.strip()]


def _skill_commands() -> list[str]:
    text = (ROOT / ".claude" / "skills" / "verify" / "SKILL.md").read_text(encoding="utf-8")
    return re.findall(r"`([^`]+)`", text.replace("\n", " "))


def _segments(command: str) -> list[list[str]]:
    """The words of each simple command in a line (comments dropped)."""
    words = shlex.split(command, comments=True)
    segments, current = [], []
    for word in words:
        if word in ("&&", "||", "|", ";"):
            segments.append(current)
            current = []
        else:
            current.append(word)
    return segments + [current]


def _named_paths(words: list[str]) -> list[str]:
    """The files and directories one simple command runs (empty if it runs none)."""
    for index, word in enumerate(words):
        name = word.rsplit("/", 1)[-1]
        if name == "pytest":
            return _pytest_targets(words[index + 1:])
        if re.fullmatch(r"python3?(\.\d+)?", name):
            return _python_targets(words[index + 1:])
    return []


def _python_targets(arguments: list[str]) -> list[str]:
    while arguments and arguments[0].startswith("-"):
        option, arguments = arguments[0], arguments[1:]
        if option == "-c":
            return []
        if option == "-X":
            arguments = arguments[1:]
        elif option == "-m":
            module, arguments = arguments[0], arguments[1:]
            if module == "pytest":
                return _pytest_targets(arguments)
            if module.split(".")[0] == "repro":
                path = "src/" + module.replace(".", "/")
                return [path + ".py" if (ROOT / (path + ".py")).exists() else path]
            return []
    return arguments[:1]


def _pytest_targets(arguments: list[str]) -> list[str]:
    targets = []
    skip = False
    for word in arguments:
        if skip:
            skip = False
        elif word.startswith("-"):
            skip = word in PYTEST_VALUED_OPTIONS
        else:
            target = word.split("::")[0]
            name = target.rsplit("/", 1)[-1]
            assert not name.endswith(".py") or name.startswith("test_"), (
                f"pytest does not collect {target} by default"
            )
            targets.append(target)
    return targets


COMMAND = re.compile(r"^(?!#).*(^|\s)(\S*/)?(python3?|pytest)(\s|$)")

COMMANDS = sorted(
    {("README.md", line) for line in _readme_commands() if COMMAND.match(line)}
    | {("SKILL.md", span) for span in _skill_commands() if COMMAND.match(span)}
)


def test_the_docs_give_commands():
    sources = {source for source, _ in COMMANDS}
    assert sources == {"README.md", "SKILL.md"}
    assert any("tests/experiments" in command for _, command in COMMANDS)


@pytest.mark.parametrize("source, command", COMMANDS)
def test_a_documented_command_names_what_exists(source, command):
    for words in _segments(command):
        for path in _named_paths(words):
            assert (ROOT / path).exists(), f"{source}: `{command}` names {path}, which is missing"


@pytest.mark.parametrize("command, paths", [
    ("PYTHONPATH=src python -m pytest -q tests/test_a.py tests/b::C -k 'x or y'", ["tests/test_a.py", "tests/b"]),
    ("timeout 180 python3 benchmarks/e2e/run.py --workload w", ["benchmarks/e2e/run.py"]),
    ("python -X dev -m repro.cli demo", ["src/repro/cli.py"]),
    ("python -c 'import repro'", []),
    ("python3 -m venv V && V/bin/python setup.py develop", ["setup.py"]),
    ("make check # python x.py", []),
])
def test_the_command_reader(command, paths):
    assert [p for words in _segments(command) for p in _named_paths(words)] == paths


def test_a_pytest_file_it_does_not_collect_is_refused():
    with pytest.raises(AssertionError, match="does not collect"):
        _named_paths(shlex.split("python -m pytest tools/check_tables.py"))


WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A repository path a workflow step runs or reads.
WORKFLOW_PATH = re.compile(r"(?<![\w$./-])((?:tools|examples|benchmarks|tests)/[\w./*-]*[\w*])")


def _workflow_paths() -> list[str]:
    import yaml

    workflow = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    runs = [
        step["run"]
        for job in workflow["jobs"].values()
        for step in job["steps"]
        if "run" in step
    ]
    return sorted({path for run in runs for path in WORKFLOW_PATH.findall(run)})


def test_the_ci_workflow_parses_and_names_what_exists():
    """The workflow is YAML GitHub can read, and every script, example,
    benchmark and test path its steps name (globs included) exists."""
    paths = _workflow_paths()
    assert "tools/ci_smoke_cluster.py" in paths
    assert "benchmarks/e2e/run.py" in paths
    missing = [path for path in paths if not any(ROOT.glob(path))]
    assert not missing, f"{WORKFLOW.name} names missing paths: {missing}"
