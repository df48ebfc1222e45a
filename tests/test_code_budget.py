"""The size budgets of ROADMAP item 11, checked on every revision.

Lines are counted as ``find src -name '*.py' | xargs cat | wc -l`` counts
them: newline characters, comments and docstrings included.
"""

from __future__ import annotations

import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Path under the repository root -> the most Python lines it may hold.
BUDGETS = {
    "src": 17_200,
    "src/repro/index": 369,
    "src/repro/net": 1_569,
    "src/repro/cluster/router.py": 841,
    "src/repro/outsourcing/storage.py": 349,
}


def python_lines(path: pathlib.Path) -> int:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(file.read_bytes().count(b"\n") for file in files)


def test_the_code_stays_within_its_budgets():
    measured = {name: python_lines(ROOT / name) for name in BUDGETS}
    over = {
        name: f"{lines} lines, budget {BUDGETS[name]}"
        for name, lines in measured.items()
        if lines > BUDGETS[name]
    }
    assert not over, f"over budget: {over}; measured: {measured}"
