"""CI smoke test of the standalone provider.

Starts ``repro serve`` as a real subprocess over a file-backed ``--data-dir``,
runs one remote query through ``EncryptedDatabase.connect("tcp://...")`` and
checks that the query's trace holds the provider's own spans (the trace id
crossed the wire), then drives the writes through a ``?index=1`` session --
``insert_many`` of 3 rows, an ``update`` and a ``delete``, one envelope
each -- checking ``count`` and an indexed select after each.  It lists the
provider's recent traces with ``repro trace --limit 1`` and ``--limit 0``,
then shuts the provider down with SIGTERM and checks it exits cleanly.
Then the data directory has to survive restarts: a provider restarted on it
serves both tables to a session that attaches them (``Smoke``, and the
indexed ``Writes``), takes one more row and one indexed delete in each --
the delete rewrites the relation file -- and is killed with SIGKILL once
they are acknowledged; a provider restarted after that counts every
acknowledged row, none of the deleted ones, and answers an indexed select
right.  Every wait is
bounded so a hung provider fails the CI step instead of wedging it (the
workflow additionally wraps the whole script in ``timeout``).

Usage::

    PYTHONPATH=src python tools/ci_smoke_serve.py
"""

from __future__ import annotations

import re
import select
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


SMOKE = "Smoke(name:string[10], value:int[4])"
WRITES = "Writes(name:string[10], value:int[4])"


def start_provider(data_dir: str) -> tuple[subprocess.Popen, str | None]:
    """``repro serve`` on ``data_dir``, and its URL (None: no banner came)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--data-dir", data_dir, "--max-audit-events", "100",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], STARTUP_TIMEOUT_S)
    banner = proc.stdout.readline() if ready else ""
    match = re.search(r"tcp://([\d.]+):(\d+)", banner)
    if not match:
        print(f"FAIL: no listening banner, got {banner!r}")
        return proc, None
    return proc, f"tcp://{match.group(1)}:{match.group(2)}"


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)


#: What every restarted provider must serve once ``("d", 1)`` went into
#: each table and ``c`` was deleted from it: table -> (count, names of the
#: rows with ``value = 1``).
ACKNOWLEDGED = {
    "Smoke": (3, ["a", "d"]),
    "Writes": (2, ["b", "d"]),  # after indexed_writes
}


def attached_rows(url: str, key, write: bool) -> str | None:
    """Attach both tables on an indexed session (inserting ``("d", 1)`` into
    each and deleting ``c`` from it when ``write``), then check each table's
    ``count`` and indexed select against :data:`ACKNOWLEDGED`; the first
    mismatch, or None."""
    from repro.api import EncryptedDatabase

    with EncryptedDatabase.connect(
        f"{url}?index=1", key, timeout=STARTUP_TIMEOUT_S
    ) as db:
        for declaration in (SMOKE, WRITES):
            db.attach_table(declaration)
        for table, expected in ACKNOWLEDGED.items():
            if write:
                db.insert_many(table, [("d", 1)])
                if db.delete(f"SELECT * FROM {table} WHERE name = 'c'") != 1:
                    return f"{table}: the indexed delete of c did not delete one row"
            outcome = db.select(f"SELECT * FROM {table} WHERE value = 1")
            got = (db.count(table), sorted(row["name"] for row in outcome.relation))
            if got != expected:
                return f"{table}: count, names {got}, expected {expected}"
            if outcome.evaluation.examined != len(outcome.relation):
                return f"{table}: the select did not go through the index"
    return None


def indexed_writes(url: str, key) -> str | None:
    """``insert_many``, ``update`` and ``delete`` on an indexed session; the
    first wrong ``count`` or indexed select, or None."""
    from repro.api import EncryptedDatabase

    steps = (
        (lambda db: db.insert_many("Writes", [("a", 1), ("b", 2), ("c", 1)]), 3, 2),
        (lambda db: db.update("SELECT * FROM Writes WHERE name = 'b'", {"value": 1}), 3, 3),
        (lambda db: db.delete("SELECT * FROM Writes WHERE name = 'a'"), 2, 2),
    )
    with EncryptedDatabase.connect(f"{url}?index=1", key, timeout=STARTUP_TIMEOUT_S) as db:
        db.create_table(WRITES)
        for step, (write, count, selected) in enumerate(steps):
            write(db)
            outcome = db.select("SELECT * FROM Writes WHERE value = 1")
            got = (db.count("Writes"), len(outcome.relation), outcome.evaluation.examined)
            # An index lookup examines only what it returns.
            if got != (count, selected, selected):
                return f"step {step}: count, rows, examined {got}, expected {count}, {selected}"
    return None


def main() -> int:
    from repro.crypto.keys import SecretKey

    key = SecretKey.generate()
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as data_dir:
        proc, url = start_provider(data_dir)
        try:
            if url is None:
                return 1
            print(f"provider up at {url}")
            failure = first_run(proc, url, key)
            if failure is not None:
                print(f"FAIL: {failure}")
                return 1
        finally:
            stop(proc)
        return restarts(data_dir, key)


def first_run(proc: subprocess.Popen, url: str, key) -> str | None:
    """The remote query, the indexed writes, the trace listing and a clean
    SIGTERM shutdown; the first failure, or None."""
    from repro.api import EncryptedDatabase

    with EncryptedDatabase.connect(url, key, timeout=STARTUP_TIMEOUT_S) as db:
        db.create_table(SMOKE, rows=[("a", 1), ("b", 2), ("c", 1)])
        outcome = db.select("SELECT * FROM Smoke WHERE value = 1")
        if len(outcome.relation) != 2:
            return f"expected 2 rows, got {len(outcome.relation)}"
        print("remote query answered correctly")
        spans = {span["name"] for span in db.fetch_trace()["spans"]}
        if not any(name.startswith("provider.") for name in spans):
            return f"no provider span in the select's trace: {sorted(spans)}"
        print("the select's trace id reached the provider")

    failure = indexed_writes(url, key)
    if failure is not None:
        return f"indexed writes: {failure}"
    print("indexed insert_many / update / delete: counts and selects right")

    for limit in (1, 0):
        listed = recent_trace_count(url, limit)
        if listed != f"{limit} recent trace(s)":
            return f"repro trace --limit {limit}: {listed}"
    print("repro trace --limit 1 / --limit 0 list 1 / 0 traces")

    proc.send_signal(signal.SIGTERM)
    output, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
    if proc.returncode != 0:
        return f"provider exited {proc.returncode}\n{output}"
    if "stopped" not in output:
        return f"no graceful-shutdown banner\n{output}"
    print(f"provider shut down cleanly: {output.strip().splitlines()[-1]}")
    return None


def restarts(data_dir: str, key) -> int:
    """Restart on the data directory, insert, delete and SIGKILL, restart again."""
    for write, step in ((True, "after SIGTERM"), (False, "after SIGKILL")):
        proc, url = start_provider(data_dir)
        try:
            if url is None:
                return 1
            failure = attached_rows(url, key, write)
            if failure is not None:
                print(f"FAIL: restarted {step}: {failure}")
                return 1
            print(f"restarted {step}: every acknowledged row counted and selected")
            proc.kill()  # SIGKILL, once the rows are acknowledged
            proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        finally:
            stop(proc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
