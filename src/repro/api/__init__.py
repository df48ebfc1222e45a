"""Stable public API of the reproduction.

:class:`EncryptedDatabase` is the one object applications (and benchmarks)
drive: it opens a keyed, multi-relation session against any registered
scheme and exposes the full CRUD surface over the versioned outsourcing
protocol::

    from repro.api import EncryptedDatabase

    db = EncryptedDatabase.open(scheme="swp")
    db.create_table("Emp(name:string[10], dept:string[5], salary:int[6])")
    db.insert("Emp", {"name": "Montgomery", "dept": "HR", "salary": 7500})
    outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
    db.update("SELECT * FROM Emp WHERE name = 'Montgomery'", {"salary": 7600})
    db.delete("SELECT * FROM Emp WHERE dept = 'HR'")

The provider can just as well live elsewhere: ``connect`` takes its
address -- ``"tcp://host:port"`` for a standalone ``repro serve`` provider
(see :mod:`repro.net`), ``"cluster://h1:p1,h2:p2?replicas=2"`` or
``"cluster+file://fleet.json"`` for a sharded fleet (see
:mod:`repro.cluster`) -- and ``open(server=...)`` takes a provider object.
"""

from repro.api.database import DatabaseError, EncryptedDatabase, TableHandle

__all__ = ["DatabaseError", "EncryptedDatabase", "TableHandle"]
