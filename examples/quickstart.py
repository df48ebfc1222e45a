"""Quickstart: the :class:`EncryptedDatabase` session facade, end to end.

The worked example of Section 3 of the paper, driven through the public API:

1. open a keyed session against an (untrusted, in-process) provider with the
   scheme built on searchable encryption;
2. create the relation ``Emp(name, dept, salary)`` -- tuples become documents
   of words like ``"MontgomeryN"``, encrypted and shipped over the versioned
   wire protocol;
3. run ``SELECT``s -- each query is encrypted into a search trapdoor,
   evaluated by the provider over ciphertext, decrypted and filtered by the
   client;
4. ``UPDATE`` and ``DELETE`` -- true matches are resolved client-side, then
   addressed at the provider by their public random tuple ids (protocol v2).

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import EncryptedDatabase, SecretKey, available_schemes


def main() -> None:
    # 1. A keyed session: one master secret, any registered scheme.
    print(f"Registered schemes: {', '.join(available_schemes())}")
    key = SecretKey.generate()
    db = EncryptedDatabase.open(key, scheme="swp")
    print(f"Session opened with scheme {db.scheme_name!r}")

    # 2. Create and populate the outsourced relation.
    db.create_table(
        "Emp(name:string[10], dept:string[5], salary:int[6])",
        rows=[
            ("Montgomery", "HR", 7500),
            ("Smith", "IT", 5200),
            ("Weaver", "HR", 6800),
            ("Jones", "SALES", 4100),
        ],
    )
    print(f"Created table Emp with {db.count('Emp')} tuples "
          f"({db.server.storage_in_bytes('Emp')} ciphertext bytes at the provider).")

    # 3. Exact selects over ciphertext (SQL is routed via the FROM clause).
    for statement in (
        "SELECT * FROM Emp WHERE name = 'Montgomery'",
        "SELECT name, salary FROM Emp WHERE dept = 'HR'",
        "SELECT * FROM Emp WHERE salary = 4100",
    ):
        outcome = db.select(statement)
        rows = outcome.projected_rows or [t.as_dict() for t in outcome.relation]
        print(f"\n{statement}")
        print(f"  -> {len(outcome.relation)} tuple(s), "
              f"{outcome.false_positives} false positive(s) filtered")
        for row in rows:
            print(f"     {row}")

    # 4. Full CRUD: update and delete travel as v2 protocol messages.
    updated = db.update("SELECT * FROM Emp WHERE name = 'Smith'", {"salary": 5500})
    deleted = db.delete("SELECT * FROM Emp WHERE dept = 'HR'")
    print(f"\nUpdated {updated} tuple(s), deleted {deleted} tuple(s); "
          f"{db.count('Emp')} remain.")

    # 5. What the provider saw (and did not see).
    print("\nProvider's audit log:", db.server.audit_log.summary())
    stored = db.server.stored_relation("Emp")
    leaked = b"".join(t.payload for t in stored)
    print("Provider stores plaintext names?", b"Montgomery" in leaked)


if __name__ == "__main__":
    main()
