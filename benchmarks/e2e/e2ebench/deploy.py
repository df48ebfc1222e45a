"""Provider subprocesses on ephemeral ports, and process CPU / memory readings."""

from __future__ import annotations

import collections
import os
import re
import subprocess
import sys
import threading

from .spec import SRC_DIR

START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
_LISTENING = re.compile(r"listening on tcp://([\d.]+:\d+)")


class DeployError(RuntimeError):
    """A provider subprocess did not come up."""


class _Provider:
    """One ``python -m repro.cli serve --port 0`` subprocess."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
        )
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.address: str | None = None
        self.output: collections.deque = collections.deque(maxlen=50)
        self._listening = threading.Event()
        # Draining the pipe for the provider's whole life keeps it from ever
        # blocking on a full pipe, and keeps its last words for error reports.
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.output.append(line.rstrip())
            match = _LISTENING.search(line)
            if match and self.address is None:
                self.address = match.group(1)
                self._listening.set()
        self._listening.set()  # EOF: wake a waiter so it can report the failure

    def wait_listening(self) -> str:
        self._listening.wait(START_TIMEOUT_S)
        if self.address is None:
            raise DeployError(
                "provider did not start listening: " + " | ".join(self.output)
            )
        return self.address

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(STOP_TIMEOUT_S)
        self.process.stdout.close()


class ProviderFleet:
    """``count`` providers, up on entry and stopped (and waited for) on exit."""

    def __init__(self, count: int) -> None:
        self._count = count
        self._providers: list[_Provider] = []
        self.addresses: list[str] = []

    @property
    def pids(self) -> list[int]:
        return [provider.process.pid for provider in self._providers]

    def __enter__(self) -> "ProviderFleet":
        try:
            for _ in range(self._count):
                self._providers.append(_Provider())
            self.addresses = [p.wait_listening() for p in self._providers]
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for provider in self._providers:
            provider.stop()


def cpu_seconds(pids: list[int]) -> float:
    """CPU time the given processes' live threads have used so far.

    Read from ``schedstat`` (nanoseconds on a CPU, per thread) because the
    user/system tick counters in ``stat`` step by 10 ms, a tenth of a
    segment.
    """
    nanoseconds = 0
    for pid in pids:
        for task in os.listdir(f"/proc/{pid}/task"):
            try:
                with open(f"/proc/{pid}/task/{task}/schedstat", encoding="ascii") as handle:
                    nanoseconds += int(handle.read().split()[0])
            except FileNotFoundError:
                continue  # the thread ended between the listing and the read
    return nanoseconds / 1e9


def peak_rss_mib(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes."""
    kib = 0
    for pid in pids:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    kib += int(line.split()[1])
                    break
    return kib / 1024.0
