"""The router's wire bytes, pinned against the commit before the rewrite.

One seeded workload is driven through ``ShardRouter`` over recording
shards; for every routed ``MessageKind`` and envelope version the bytes
each shard received and the bytes the session got back are folded into a
digest.  ``GOLDEN`` holds the digests captured on the parent commit
(54addf2, where the router still had its if-chain and scatter twins), so
a plan-table entry that addresses other shards, re-frames an envelope or
merges differently fails here by kind.  The DDL and metadata kinds
(``deploy-evaluator`` ... ``list-relations``) were pinned when they became
envelopes; the v1 entries went with the v1 envelope.  The write entries
were re-pinned when each write became one envelope carrying its postings
(``insert-tuples``, and ``delete-tuples`` answering the ids that went, in
place of ``insert-tuple``, ``index-delta`` and ``delete-tuples-exact``);
every read kind kept its digest.

Regenerate (only when a wire change is intended):
``PYTHONPATH=src python tests/cluster/test_wire_bytes_golden.py``
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import ShardRouter
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import (
    MessageKind,
    MessageV2,
    attach_trace,
    decode_evaluation_result,
    encode_encrypted_tuple,
    parse_message,
)
from repro.relational import Selection

EMP_DECL = "Emp(name:string[14], dept:string[5], salary:int[6])"
ROWS = [(f"emp{i}", "HR" if i % 2 else "IT", 1000 + i) for i in range(24)]
TRACE_ID = bytes(range(16))

CONFIGS = {
    "replicas=1": dict(replicas=1, cache=None),
    "replicas=2": dict(replicas=2, cache=None),
    "replicas=2,cache": dict(replicas=2, cache=True),
}


class RecordingShard(OutsourcedDatabaseServer):
    """Keeps every envelope it is handed, in arrival order."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: list[bytes] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.requests.append(raw)
        return super().handle_message(raw)


class SessionTap:
    """The router's duck-type with every envelope exchange folded into digests."""

    def __init__(self, router: ShardRouter, shards: list[RecordingShard]) -> None:
        self._router = router
        self._shards = shards
        self.sent: list[bytes] = []
        self.digests: dict[str, "hashlib._Hash"] = {}

    def __getattr__(self, name):
        return getattr(self._router, name)

    def handle_message(self, raw: bytes) -> bytes:
        self.sent.append(raw)
        marks = [len(shard.requests) for shard in self._shards]
        response = self._router.handle_message(raw)
        request = parse_message(raw)
        digest = self.digests.setdefault(
            f"{request.kind.value}/v{request.version}", hashlib.sha256()
        )
        for shard, mark in zip(self._shards, marks):
            # Per-shard order is deterministic; cross-shard arrival order
            # (a thread-pool scatter) is not, so shards are folded in turn.
            for envelope in shard.requests[mark:]:
                digest.update(len(envelope).to_bytes(4, "big") + envelope)
            digest.update(b"|")
        pinned = response
        if request.kind is MessageKind.INDEX_LOOKUP:
            pinned = _order_free(response)
        digest.update(len(pinned).to_bytes(4, "big") + pinned)
        return response


def transcript(replicas: int, cache) -> dict[str, str]:
    """Digest per ``kind/version`` of one seeded workload through a router."""
    shards = [RecordingShard() for _ in range(3)]
    router = ShardRouter(shards, replicas=replicas, cache=cache)
    tap = SessionTap(router, shards)
    key = SecretKey.generate(rng=DeterministicRng(7))

    indexed = EncryptedDatabase.open(
        key, server=tap, rng=DeterministicRng(11), index=True
    )
    # RELATION_NAMES, REGISTER_EVALUATOR, STORE_RELATION, INDEX_PUT
    indexed.create_table(EMP_DECL, rows=ROWS)
    indexed.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
    for _ in range(2):  # INDEX_LOOKUP; the repeat is a hit on a cached router
        indexed.select(Selection.equals("dept", "HR"), table="Emp")
    indexed.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp")
    indexed.delete(Selection.equals("name", "emp5"), table="Emp")  # DELETE_TUPLES + postings
    indexed.count("Emp")  # TUPLE_COUNT
    tap.handle_message(
        MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp").to_bytes()
    )

    plain = EncryptedDatabase.open(key, server=tap, rng=DeterministicRng(13))
    plain.attach_table(EMP_DECL)  # RELATION_NAMES, FETCH_RELATION, REGISTER_EVALUATOR
    for _ in range(2):  # QUERY; the repeat is a hit on a cached router
        plain.select(Selection.equals("dept", "IT"), table="Emp")
    plain.select_many(  # BATCH_QUERY: one element already cached, one new
        [Selection.equals("dept", "IT"), Selection.equals("dept", "NEW")],
        table="Emp",
    )
    plain.delete(Selection.equals("name", "emp7"), table="Emp")  # DELETE_TUPLES
    plain.insert("Emp", {"name": "Yan", "dept": "IT", "salary": 2})

    # An empty delete, an unknown relation, and a kind the router refuses.
    for envelope in (
        MessageV2(MessageKind.DELETE_TUPLES, "Emp", b"\x00\x00\x00\x00"),
        MessageV2(MessageKind.QUERY, "Nope", _body(tap, MessageKind.QUERY)),
        MessageV2(MessageKind.ACK, "Emp", b""),
        MessageV2(MessageKind.DROP_RELATION, "Nope"),
    ):
        tap.handle_message(envelope.to_bytes())

    # The same requests again as v3 (traced).  Replays mutate the fleet,
    # deterministically.
    recorded = list(tap.sent)
    for raw in recorded:
        tap.handle_message(attach_trace(raw, TRACE_ID))
    plain.drop_table("Emp")  # DROP_RELATION of a stored relation
    router.close()
    return {label: digest.hexdigest()[:16] for label, digest in sorted(tap.digests.items())}


def _order_free(response: bytes) -> bytes:
    """An index lookup's answer with its tuples sorted.

    A provider walks its posting sets in hash order, which varies from
    one interpreter run to the next; everything else about the answer
    (envelope, which tuples, the work counters) is still pinned.
    """
    parsed = parse_message(response)
    if parsed.kind is not MessageKind.QUERY_RESULT:
        return response
    result, _ = decode_evaluation_result(parsed.body)
    tuples = sorted(map(encode_encrypted_tuple, result.matching.encrypted_tuples))
    counters = f"{result.examined}/{result.token_evaluations}".encode()
    return b"".join([type(parsed).__name__.encode(), counters, *tuples])


def _body(tap: SessionTap, kind: MessageKind) -> bytes:
    return next(
        request.body for request in map(parse_message, tap.sent) if request.kind is kind
    )


GOLDEN = {'replicas=1': {'ack/v2': '444c08f3560e97a2',
                'ack/v3': '444c08f3560e97a2',
                'batch-query/v2': 'd4e04991b6412d40',
                'batch-query/v3': 'cf87bf62b8552433',
                'count-tuples/v2': '67bdb67547a14250',
                'count-tuples/v3': '67bdb67547a14250',
                'delete-relation/v2': '2cfb04c654c1737a',
                'delete-relation/v3': '19c05051ee30cb20',
                'delete-tuples/v2': '41e8afac9e4f5ed1',
                'delete-tuples/v3': 'bbee27d37a9fd0ba',
                'deploy-evaluator/v2': '8a99d022a27b526c',
                'deploy-evaluator/v3': '475ec6bb71858696',
                'fetch-relation/v2': '7f1f0c3004f5ec90',
                'fetch-relation/v3': '993f051ecffa827f',
                'index-lookup/v2': '3a944f80a98e11a2',
                'index-lookup/v3': '093dd4655cf81cbc',
                'index-put/v2': '31af14edb9954ec0',
                'index-put/v3': '9eae7367ff33aa02',
                'insert-tuples/v2': '51ce36bc617b408c',
                'insert-tuples/v3': '51ce36bc617b408c',
                'list-relations/v2': '245a7ee962d04f7f',
                'list-relations/v3': 'b258e1b3a95dfb53',
                'list-tuple-ids/v2': 'a1e67b8d85a85e26',
                'list-tuple-ids/v3': '7ac91d6b3dda3f7d',
                'query/v2': '6444b8aac00bfcc0',
                'query/v3': 'f1e7d064ded56364',
                'store-relation/v2': '4bc45e1668c4e185',
                'store-relation/v3': '4bc45e1668c4e185'},
 'replicas=2': {'ack/v2': '444c08f3560e97a2',
                'ack/v3': '444c08f3560e97a2',
                'batch-query/v2': '835755508e34ca9d',
                'batch-query/v3': '7ec332569b306f4d',
                'count-tuples/v2': '67bdb67547a14250',
                'count-tuples/v3': '67bdb67547a14250',
                'delete-relation/v2': '2cfb04c654c1737a',
                'delete-relation/v3': '19c05051ee30cb20',
                'delete-tuples/v2': '41e8afac9e4f5ed1',
                'delete-tuples/v3': 'bbee27d37a9fd0ba',
                'deploy-evaluator/v2': '8a99d022a27b526c',
                'deploy-evaluator/v3': '475ec6bb71858696',
                'fetch-relation/v2': '8b90b1d0c2fc1f21',
                'fetch-relation/v3': 'ef151380c7de13ca',
                'index-lookup/v2': 'fd45db56ff9f4b97',
                'index-lookup/v3': '7b1bc77e308abad7',
                'index-put/v2': '31af14edb9954ec0',
                'index-put/v3': '9eae7367ff33aa02',
                'insert-tuples/v2': 'aea924b44d65106e',
                'insert-tuples/v3': 'aea924b44d65106e',
                'list-relations/v2': '245a7ee962d04f7f',
                'list-relations/v3': 'b258e1b3a95dfb53',
                'list-tuple-ids/v2': 'a1e67b8d85a85e26',
                'list-tuple-ids/v3': '7ac91d6b3dda3f7d',
                'query/v2': '7b75aef482761fcb',
                'query/v3': 'fad1d263c697befc',
                'store-relation/v2': '5a9fe0e98125ba93',
                'store-relation/v3': '5a9fe0e98125ba93'},
 'replicas=2,cache': {'ack/v2': '444c08f3560e97a2',
                      'ack/v3': '444c08f3560e97a2',
                      'batch-query/v2': 'b27155d56ae1bf6d',
                      'batch-query/v3': 'b27155d56ae1bf6d',
                      'count-tuples/v2': '67bdb67547a14250',
                      'count-tuples/v3': '67bdb67547a14250',
                      'delete-relation/v2': '2cfb04c654c1737a',
                      'delete-relation/v3': '19c05051ee30cb20',
                      'delete-tuples/v2': '41e8afac9e4f5ed1',
                      'delete-tuples/v3': 'bbee27d37a9fd0ba',
                      'deploy-evaluator/v2': '8a99d022a27b526c',
                      'deploy-evaluator/v3': '475ec6bb71858696',
                      'fetch-relation/v2': '8b90b1d0c2fc1f21',
                      'fetch-relation/v3': 'ef151380c7de13ca',
                      'index-lookup/v2': '879e82c837196621',
                      'index-lookup/v3': '89cf47b2a3b4658c',
                      'index-put/v2': '31af14edb9954ec0',
                      'index-put/v3': '9eae7367ff33aa02',
                      'insert-tuples/v2': 'aea924b44d65106e',
                      'insert-tuples/v3': 'aea924b44d65106e',
                      'list-relations/v2': '245a7ee962d04f7f',
                      'list-relations/v3': 'b258e1b3a95dfb53',
                      'list-tuple-ids/v2': 'a1e67b8d85a85e26',
                      'list-tuple-ids/v3': '7ac91d6b3dda3f7d',
                      'query/v2': '4c1b3816f5faaddb',
                      'query/v3': 'a549c1d2dd55d8f3',
                      'store-relation/v2': '5a9fe0e98125ba93',
                      'store-relation/v3': '5a9fe0e98125ba93'}}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_wire_bytes_match_the_parent_commit(config):
    assert transcript(**CONFIGS[config]) == GOLDEN[config]


def test_every_routed_kind_is_pinned():
    routed = set(ShardRouter._PLANS)
    assert MessageKind.REGISTER_EVALUATOR in routed
    for config, digests in GOLDEN.items():
        pinned = {label.split("/")[0] for label in digests}
        assert {kind.value for kind in routed} <= pinned, config
        assert {label.split("/")[1] for label in digests} == {"v2", "v3"}, config


if __name__ == "__main__":
    import pprint

    pprint.pprint({name: transcript(**options) for name, options in CONFIGS.items()})
