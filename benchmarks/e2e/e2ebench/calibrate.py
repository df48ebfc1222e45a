"""A fixed unit of interpreter work, timed beside everything that is measured.

The sandbox this benchmark is sized for shares its cores: the same Python
code runs up to twice as fast or slow from one stretch of a few hundred
milliseconds or a few seconds to the next, which is several times any
regression bound.  Every measured interval is therefore a *chunk* of a few
tens of milliseconds bracketed by this probe, and is reported *at reference
speed*: multiplied by ``REFERENCE_SECONDS / probe time``.

The probe is the benchmark's own code and touches nothing of the product,
so no change to the product can move it.  It comes in two kinds, because
under a busy neighbour compute and memory access slow down by different
amounts.  The in-process deployment is one interpreter running HMACs, and
is steadiest (1 to 5 % between runs, against 8 to 10 %) when scaled by
compute alone: HMAC, integer, bytes and dict work in a plain loop.  A
deployment with provider subprocesses alternates several interpreters'
working sets on the core, and is steadiest (2 to 9 %, against 6 to 13 %)
when half of the probe is a walk in random order over a few megabytes of
small objects.
"""

from __future__ import annotations

import array
import hashlib
import hmac
import random
import time

#: The probe's duration on the machine state the reported numbers refer to.
REFERENCE_SECONDS = 0.006
_HMAC_ROUNDS = 2000
_OBJECTS = 100_000
_WALK = 8000
_KEY = b"e2ebench-calibration-probe-key-0"


class Probe:
    """Callable that runs the fixed work once and returns the seconds it took."""

    def __init__(self, walk_memory: bool) -> None:
        self._rounds = _HMAC_ROUNDS // 2 if walk_memory else _HMAC_ROUNDS
        self._objects = [bytes(48) for _ in range(_OBJECTS)] if walk_memory else []
        order = list(range(len(self._objects)))
        random.Random(0).shuffle(order)
        self._order = array.array("I", order)
        self._position = 0

    def __call__(self) -> float:
        start = time.perf_counter()
        accumulator = 0
        recent = {}
        for number in range(self._rounds):
            digest = hmac.new(_KEY, number.to_bytes(8, "big"), hashlib.sha256).digest()
            accumulator ^= int.from_bytes(digest[:8], "big")
            recent[number & 63] = digest
            accumulator += len(b"x%d" % number)
        objects = self._objects
        if objects:
            position = self._position
            for index in self._order[position:position + _WALK]:
                accumulator += len(objects[index])
            self._position = (position + _WALK) % _OBJECTS
        return time.perf_counter() - start


def speed_factor(before: float, after: float) -> float:
    """What to multiply a time measured between two probes by."""
    return REFERENCE_SECONDS / ((before + after) / 2.0)
