"""Event-gated provider used by the pipelining/concurrency tests.

Lives next to ``tests/conftest.py`` (which puts this directory on
``sys.path``) so net and cluster tests share one implementation.  A
"slow" relation is modelled deterministically: requests for a gated
relation block on a :class:`threading.Event` instead of a sleep, so
ordering assertions never race the clock.  The gate is inside the
relation's lock (the provider's ``_serve`` step), so requests queued
behind a gated one for the same relation wait for the lock in arrival
order.
"""

from __future__ import annotations

import threading

from repro.crypto.keys import SecretKey
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageV2
from repro.relational import RelationSchema
from repro.schemes.plaintext import PlaintextDph


class GatedServer(OutsourcedDatabaseServer):
    """A provider whose requests for chosen relations block on an event."""

    def __init__(self) -> None:
        super().__init__()
        self.gates: dict[str, threading.Event] = {}
        self.entered: dict[str, threading.Event] = {}

    def gate(self, relation: str) -> threading.Event:
        """Block every request for ``relation`` until the event is set."""
        self.gates[relation] = threading.Event()
        self.entered[relation] = threading.Event()
        return self.gates[relation]

    def pass_gate(self, name: str) -> None:
        """Wait at ``name``'s gate, if it has one."""
        gate = self.gates.get(name)
        if gate is not None:
            self.entered[name].set()
            assert gate.wait(timeout=30), f"gate for {name!r} never released"

    def _serve(self, request: MessageV2) -> bytes:
        self.pass_gate(request.relation_name)
        return super()._serve(request)


def store_empty(database: OutsourcedDatabaseServer, decl: str) -> None:
    """Create an empty (plaintext-scheme) relation on a provider."""
    schema = RelationSchema.parse(decl)
    scheme = PlaintextDph(schema, SecretKey.generate())
    database.deploy(schema.name, schema, scheme.server_evaluator())
