"""Reproduction of *Provable Security for Outsourcing Database Operations*.

Evdokimov, Fischmann, Günther -- ICDE 2006.

The library implements, from scratch:

* the **database privacy homomorphism** framework of Definition 1.1
  (:mod:`repro.core`), including the paper's construction of a DPH preserving
  exact selects from searchable encryption (Section 3);
* the **searchable encryption substrate** (:mod:`repro.searchable`): the
  Song--Wagner--Perrig scheme and a secure-index optimization;
* the **relational substrate** (:mod:`repro.relational`): schemas, relations,
  exact-select queries, a small SQL parser and a plaintext reference engine;
* the **baseline schemes** the paper attacks (:mod:`repro.schemes`):
  Hacigumus bucketization, Damiani hashed indexes, deterministic encryption;
* the **security framework** (:mod:`repro.security`): the indistinguishability
  games of Definitions 1.2 and 2.1, the concrete attacks of Sections 1 and 2,
  the generic Theorem-2.1 adversary and empirical advantage estimation;
* the **outsourcing protocol** (:mod:`repro.outsourcing`): an untrusted server
  (Eve) with pluggable ciphertext storage and the one byte-level envelope
  the client exchanges with it for every data, index and DDL operation;
* the **network serving layer** (:mod:`repro.net`): length-prefixed framing,
  a threaded TCP provider (``repro serve``) for many concurrent clients, and
  a pooled client proxy so ``EncryptedDatabase.connect("tcp://host:port")``
  targets a remote provider transparently;
* the **cluster layer** (:mod:`repro.cluster`): consistent-hash sharding of
  one logical database across many providers with scatter-gather query
  execution and rebalancing, so
  ``EncryptedDatabase.connect("cluster://h1:p1,h2:p2")`` targets a whole
  fleet transparently (``repro cluster`` spawns/inspects one);
* the **public session API** (:mod:`repro.api`): the
  :class:`~repro.api.EncryptedDatabase` facade -- the client (Alex), who
  holds the key -- driving any scheme registered in
  :mod:`repro.schemes.registry` through the wire protocol;
* **workload generators** and **analysis utilities** for the experiment suite
  (:mod:`repro.workloads`, :mod:`repro.analysis`).

Quickstart::

    from repro import EncryptedDatabase

    db = EncryptedDatabase.open(scheme="swp")   # fresh key, in-memory provider
    db.create_table(
        "Emp(name:string[10], dept:string[5], salary:int[6])",
        rows=[("Montgomery", "HR", 7500), ("Smith", "IT", 5200)],
    )
    outcome = db.select("SELECT * FROM Emp WHERE dept = 'HR'")
    print(outcome.relation.tuples)
    db.update("SELECT * FROM Emp WHERE name = 'Smith'", {"salary": 5500})
    db.delete("SELECT * FROM Emp WHERE dept = 'HR'")

The lower-level objects (``SearchableSelectDph``, the provider's
``OutsourcedDatabaseServer``, the security games) remain available for experiments that need to drive single
pieces of the stack.
"""

from repro.api import DatabaseError, EncryptedDatabase
from repro.core.construction import SearchableSelectDph
from repro.core.dph import (
    DatabasePrivacyHomomorphism,
    EncryptedQuery,
    EncryptedRelation,
    EncryptedTuple,
)
from repro.crypto.keys import SecretKey
from repro.schemes.registry import available_schemes

__version__ = "1.3.0"

__all__ = [
    "DatabaseError",
    "EncryptedDatabase",
    "SearchableSelectDph",
    "DatabasePrivacyHomomorphism",
    "EncryptedQuery",
    "EncryptedRelation",
    "EncryptedTuple",
    "SecretKey",
    "available_schemes",
    "__version__",
]
