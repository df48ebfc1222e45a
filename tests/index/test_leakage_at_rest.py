"""What an indexed table reveals to the provider at rest, before any query.

The index is its postings: one ``(label, tuple_id)`` pair per stored tuple
and attribute, the label a PRF of ``attribute = value``.  So a bulk load
and a row-by-row insert reveal the same postings, and the provider's stored
index groups the live ids exactly by equal value, for every attribute --
the equality pattern that the paper's Section 1 attacks read off
bucketization and hashed indexes, and that the README's leakage caveats
state.  The index design that would hide it is ROADMAP item 3's.
"""

from __future__ import annotations

from collections import Counter

from repro.api import EncryptedDatabase
from repro.crypto.rng import DeterministicRng
from repro.index.wire import decode_index_delta, decode_index_snapshot
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import MessageKind, decode_insert_tuples, parse_message

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
#: Equal values in every attribute but ``name``, and one equal name too.
ROWS = [
    ("Montgomery", "HR", 7500),
    ("Smith", "IT", 7500),
    ("Garcia", "HR", 4200),
    ("Smith", "OPS", 3100),
    ("Lee", "IT", 7500),
    ("Ito", "HR", 3100),
]
KEY = b"index-at-rest-test-master-key-32"


class Recorder(OutsourcedDatabaseServer):
    """A provider that keeps every request envelope it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.requests = []

    def handle_message(self, raw: bytes) -> bytes:
        self.requests.append(parse_message(raw))
        return super().handle_message(raw)

    def bodies(self, kind: MessageKind) -> list[bytes]:
        return [request.body for request in self.requests if request.kind is kind]


def _session(provider: Recorder) -> EncryptedDatabase:
    return EncryptedDatabase.open(KEY, server=provider, rng=DeterministicRng(5), index=True)


def test_the_index_reveals_each_attributes_equality_pattern_at_rest():
    bulk, one_by_one = Recorder(), Recorder()
    _session(bulk).create_table(EMP_DECL, rows=ROWS)
    session = _session(one_by_one)
    session.create_table(EMP_DECL)
    session.insert_many("Emp", ROWS)

    # A create's rows go as the insert that inserting them after it sends:
    # an empty index, then one INSERT_TUPLES carrying every posting.
    stored = bulk.stored_relation("Emp").encrypted_tuples
    (put,) = bulk.bodies(MessageKind.INDEX_PUT)
    assert decode_index_snapshot(put) == ()
    (insert,) = bulk.bodies(MessageKind.INSERT_TUPLES)
    assert one_by_one.bodies(MessageKind.INSERT_TUPLES) == [insert]
    postings, inserted = decode_insert_tuples(insert)
    assert [t.tuple_id for t in inserted] == [t.tuple_id for t in stored]  # same ids
    assert len(decode_index_delta(postings).additions) == len(ROWS) * 3

    # Without any query, the stored index partitions the ids by value.
    by_value = Counter()
    for position in range(3):
        groups: dict[object, set[bytes]] = {}
        for row, encrypted_tuple in zip(ROWS, stored):
            groups.setdefault(row[position], set()).add(encrypted_tuple.tuple_id)
        by_value.update(frozenset(ids) for ids in groups.values())
    index = bulk.relation_index("Emp")
    assert Counter(frozenset(ids) for ids in index.postings.values()) == by_value

