"""``tools/gc_share.py``: one short run end to end, and its usage errors."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gc_share.py"


def test_a_one_second_run_reports_every_generation():
    done = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "large_result_tcp", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert re.match(r"large_result_tcp: \d+ operations, [\d.]+ ms per operation .* 0 failed$",
                    lines[0]), lines[0]
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert set(rows) == {"0", "1", "2", "all"}
    assert int(rows["all"][0]) == sum(int(rows[g][0]) for g in "012")
    assert "% of the time inside the timed calls" in lines[-1]


@pytest.mark.parametrize("argv", [["--seconds", "0"], ["--seconds", "nan"],
                                  ["--workload", "no_such_workload"]])
def test_a_usage_error_exits_2_before_anything_runs(argv):
    done = subprocess.run([sys.executable, str(TOOL), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2, done.stdout + done.stderr
    assert done.stdout == ""
