"""Event-gated provider used by the pipelining/concurrency tests.

Lives next to ``tests/conftest.py`` (which puts this directory on
``sys.path``) so net and cluster tests share one implementation.  A
"slow" relation is modelled deterministically: requests for a gated
relation block on a :class:`threading.Event` instead of a sleep, so
ordering assertions never race the clock.
"""

from __future__ import annotations

import threading

from repro.core.dph import EncryptedRelation
from repro.crypto.keys import SecretKey
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import parse_message
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

    def bounded_work(self, kind, name: str) -> bool:
        """A gated relation parks its caller: never on the event loop."""
        return name not in self.gates and super().bounded_work(kind, name)

    def handle_message(self, raw: bytes) -> bytes:
        name = parse_message(raw).relation_name
        gate = self.gates.get(name)
        if gate is not None:
            self.entered[name].set()
            assert gate.wait(timeout=30), f"gate for {name!r} never released"
        return super().handle_message(raw)


def store_empty(database: OutsourcedDatabaseServer, decl: str) -> None:
    """Create an empty (plaintext-scheme) relation on a provider."""
    schema = RelationSchema.parse(decl)
    scheme = PlaintextDph(schema, SecretKey.generate())
    database.store_relation(
        schema.name,
        EncryptedRelation(schema=schema, encrypted_tuples=()),
        scheme.server_evaluator(),
    )
