"""CI smoke test of the standalone provider.

Starts ``repro serve`` as a real subprocess over a file-backed ``--data-dir``,
runs one remote query through ``EncryptedDatabase.connect("tcp://...")`` and
checks that the query's trace holds the provider's own spans (the trace id
crossed the wire), then drives the writes through a ``?index=1`` session --
``insert_many`` of 3 rows, an ``update`` and a ``delete``, one envelope
each -- checking ``count`` and an indexed select after each.  It lists the
provider's recent traces with ``repro trace --limit 1`` and ``--limit 0``,
then shuts the provider down with SIGTERM and checks it exits cleanly.  Every wait is bounded so a hung
provider fails the CI step instead of wedging it (the workflow additionally
wraps the whole script in ``timeout``).

Usage::

    PYTHONPATH=src python tools/ci_smoke_serve.py
"""

from __future__ import annotations

import re
import signal
import subprocess
import sys
import tempfile

STARTUP_TIMEOUT_S = 30
SHUTDOWN_TIMEOUT_S = 15
CLI_TIMEOUT_S = 30


def recent_trace_count(url: str, limit: int) -> str:
    """The ``N recent trace(s)`` phrase of ``repro trace URL --limit limit``."""
    listing = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", url, "--limit", str(limit),
         "--timeout", str(CLI_TIMEOUT_S)],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    match = re.search(r"\d+ recent trace\(s\)", listing.stdout)
    if listing.returncode != 0 or match is None:
        return f"exit {listing.returncode}: {listing.stdout}{listing.stderr}"
    return match.group(0)


def indexed_writes(url: str) -> str | None:
    """``insert_many``, ``update`` and ``delete`` on an indexed session; the
    first wrong ``count`` or indexed select, or None."""
    from repro.api import EncryptedDatabase

    steps = (
        (lambda db: db.insert_many("Writes", [("a", 1), ("b", 2), ("c", 1)]), 3, 2),
        (lambda db: db.update("SELECT * FROM Writes WHERE name = 'b'", {"value": 1}), 3, 3),
        (lambda db: db.delete("SELECT * FROM Writes WHERE name = 'a'"), 2, 2),
    )
    with EncryptedDatabase.connect(f"{url}?index=1", timeout=STARTUP_TIMEOUT_S) as db:
        db.create_table("Writes(name:string[10], value:int[4])")
        for step, (write, count, selected) in enumerate(steps):
            write(db)
            outcome = db.select("SELECT * FROM Writes WHERE value = 1")
            got = (db.count("Writes"), len(outcome.relation), outcome.evaluation.examined)
            # An index lookup examines only what it returns.
            if got != (count, selected, selected):
                return f"step {step}: count, rows, examined {got}, expected {count}, {selected}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as data_dir:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--data-dir", data_dir, "--max-audit-events", "100",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            match = re.search(r"tcp://([\d.]+):(\d+)", banner)
            if not match:
                print(f"FAIL: no listening banner, got {banner!r}")
                return 1
            url = f"tcp://{match.group(1)}:{match.group(2)}"
            print(f"provider up at {url}")

            from repro.api import EncryptedDatabase

            with EncryptedDatabase.connect(url, timeout=STARTUP_TIMEOUT_S) as db:
                db.create_table(
                    "Smoke(name:string[10], value:int[4])",
                    rows=[("a", 1), ("b", 2), ("c", 1)],
                )
                outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
                if len(outcome.relation) != 2:
                    print(f"FAIL: expected 2 rows, got {len(outcome.relation)}")
                    return 1
                print("remote query answered correctly")
                spans = {span["name"] for span in db.fetch_trace()["spans"]}
                if not any(name.startswith("provider.") for name in spans):
                    print(f"FAIL: no provider span in the select's trace: {sorted(spans)}")
                    return 1
                print("the select's trace id reached the provider")

            failure = indexed_writes(url)
            if failure is not None:
                print(f"FAIL: indexed writes: {failure}")
                return 1
            print("indexed insert_many / update / delete: counts and selects right")

            for limit in (1, 0):
                listed = recent_trace_count(url, limit)
                if listed != f"{limit} recent trace(s)":
                    print(f"FAIL: repro trace --limit {limit}: {listed}")
                    return 1
            print("repro trace --limit 1 / --limit 0 list 1 / 0 traces")

            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
            if proc.returncode != 0:
                print(f"FAIL: provider exited {proc.returncode}\n{output}")
                return 1
            if "stopped" not in output:
                print(f"FAIL: no graceful-shutdown banner\n{output}")
                return 1
            print(f"provider shut down cleanly: {output.strip().splitlines()[-1]}")
            return 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
