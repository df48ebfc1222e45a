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
every read kind kept its digest.  ``GOLDEN`` was re-pinned when
``INDEX_PUT`` became the rows' ``(label, tuple_id)`` postings: the snapshot
stopped drawing dummy ids and shuffles from the session's rng, so every
later draw moved.  A copy whose snapshot drew, and discarded, exactly the
old draws reproduced every earlier digest except ``index-put/*``.
``store-relation/*`` went, and ``deploy-evaluator/*``, ``index-put/*`` and
``insert-tuples/*`` were re-pinned, when a create became the deploy (which
now carries the schema and creates the relation empty), an empty
``INDEX_PUT`` and one ``INSERT_TUPLES`` of its rows; every read kind kept
its digest, so the seeded ciphertexts did not change.

The same workload over ``tcp://`` shards, with the fleet opened through
every spelling of the ``async`` key a cluster URL or manifest may carry,
sends the same bytes: the key has no effect.  A URL names its shards by
address, so those transcripts are compared with the in-process router
under the same ring ids; the manifest names them ``shard-<index>`` and
meets ``GOLDEN`` itself.  A single ``tcp://`` provider driven through the
proxy a ``?async=1`` URL opens receives what the plain URL's proxy sends.

Regenerate (only when a wire change is intended):
``PYTHONPATH=src python tests/cluster/test_wire_bytes_golden.py``
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib

import pytest

from repro.api import EncryptedDatabase
from repro.cluster import ClusterManifest, ShardRouter
from repro.crypto.keys import SecretKey
from repro.crypto.rng import DeterministicRng
from repro.net import ThreadedTcpServer
from repro.net.client import RemoteServerProxy
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
    "replicas=1": dict(replicas=1),
    "replicas=2": dict(replicas=2),
}


class RecordingShard(OutsourcedDatabaseServer):
    """Keeps every envelope it is handed, in arrival order."""

    def __init__(self) -> None:
        super().__init__()
        self.requests: list[bytes] = []

    def handle_message(self, raw: bytes) -> bytes:
        self.requests.append(raw)
        return super().handle_message(raw)


class SocketRecordingShard(RecordingShard):
    """A :class:`RecordingShard` served over ``tcp://``.

    A proxy attaches the session's ambient trace id (random per operation)
    to every envelope it ships; an in-process shard sees that envelope
    untraced.  Only that id is dropped from the record, so the digests
    compare what the router sent.
    """

    def handle_message(self, raw: bytes) -> bytes:
        message = parse_message(raw)
        if message.trace_id in (None, TRACE_ID):
            return super().handle_message(raw)
        self.requests.append(dataclasses.replace(message, trace_id=None).to_bytes())
        return OutsourcedDatabaseServer.handle_message(self, raw)


#: Every spelling of the ``async`` key: ``(urls, replicas) -> router``.
FORMS = {
    "async=1": lambda urls, replicas: ShardRouter.connect(_url(urls, replicas, "&async=1")),
    "async=0": lambda urls, replicas: ShardRouter.connect(_url(urls, replicas, "&async=0")),
    "plain": lambda urls, replicas: ShardRouter.connect(_url(urls, replicas, "")),
    "async-manifest": lambda urls, replicas: ShardRouter.from_manifest(
        ClusterManifest.from_json(
            {
                "version": 1,
                "replicas": replicas,
                "async": True,
                "shards": [
                    {"shard_id": f"shard-{index}", "url": url}
                    for index, url in enumerate(urls)
                ],
            }
        )
    ),
}


def _url(urls, replicas: int, option: str) -> str:
    hosts = ",".join(url[len("tcp://"):] for url in urls)
    return f"cluster://{hosts}?replicas={replicas}{option}"


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
            # (providers work at once) is not, so shards are folded in turn.
            for envelope in shard.requests[mark:]:
                digest.update(len(envelope).to_bytes(4, "big") + envelope)
            digest.update(b"|")
        pinned = response
        if request.kind is MessageKind.INDEX_LOOKUP:
            pinned = _order_free(response)
        digest.update(len(pinned).to_bytes(4, "big") + pinned)
        return response


def transcript(replicas: int, shard_ids=None) -> dict[str, str]:
    """Digest per ``kind/version`` of one seeded workload through a router."""
    shards = [RecordingShard() for _ in range(3)]
    return _drive(ShardRouter(shards, shard_ids=shard_ids, replicas=replicas), shards)


def socket_transcript(replicas: int, form: str) -> tuple[dict[str, str], tuple]:
    """The digests over ``tcp://`` shards opened through ``FORMS[form]``,
    plus the router's ring ids."""
    shards = [SocketRecordingShard() for _ in range(3)]
    with contextlib.ExitStack() as stack:
        urls = [
            f"tcp://127.0.0.1:{stack.enter_context(ThreadedTcpServer(shard)).port}"
            for shard in shards
        ]
        router = FORMS[form](urls, replicas)
        assert all(type(router.shard(i)) is RemoteServerProxy for i in router.shard_ids)
        return _drive(router, shards), router.shard_ids


def _drive(router: ShardRouter, shards: list[RecordingShard]) -> dict[str, str]:
    tap = SessionTap(router, shards)
    key = SecretKey.generate(rng=DeterministicRng(7))

    indexed = EncryptedDatabase.open(
        key, server=tap, rng=DeterministicRng(11), index=True
    )
    # RELATION_NAMES, REGISTER_EVALUATOR, INDEX_PUT (empty), INSERT_TUPLES
    indexed.create_table(EMP_DECL, rows=ROWS)
    indexed.insert("Emp", {"name": "Zoe", "dept": "NEW", "salary": 1})
    for _ in range(2):  # INDEX_LOOKUP, twice
        indexed.select(Selection.equals("dept", "HR"), table="Emp")
    indexed.update(Selection.equals("name", "emp3"), {"salary": 9}, table="Emp")
    indexed.delete(Selection.equals("name", "emp5"), table="Emp")  # DELETE_TUPLES + postings
    indexed.count("Emp")  # TUPLE_COUNT
    tap.handle_message(
        MessageV2(kind=MessageKind.LIST_TUPLE_IDS, relation_name="Emp").to_bytes()
    )

    plain = EncryptedDatabase.open(key, server=tap, rng=DeterministicRng(13))
    plain.attach_table(EMP_DECL)  # RELATION_NAMES, FETCH_RELATION, REGISTER_EVALUATOR
    for _ in range(2):  # QUERY, twice
        plain.select(Selection.equals("dept", "IT"), table="Emp")
    plain.select_many(  # BATCH_QUERY: one element already asked, one new
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
    kinds = [parse_message(raw).kind for raw in recorded]
    create = kinds.index(MessageKind.REGISTER_EVALUATOR)
    for position, raw in enumerate(recorded):
        if position == create:
            # A replayed deploy no longer empties the relation, so it is
            # dropped, untapped: the replay then meets the state it always met.
            router.handle_message(MessageV2(MessageKind.DROP_RELATION, "Emp").to_bytes())
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
                'batch-query/v2': '320a19fc1c910287',
                'batch-query/v3': '08fa788629fb587a',
                'count-tuples/v2': '67bdb67547a14250',
                'count-tuples/v3': '67bdb67547a14250',
                'delete-relation/v2': '2cfb04c654c1737a',
                'delete-relation/v3': '19c05051ee30cb20',
                'delete-tuples/v2': '41e8afac9e4f5ed1',
                'delete-tuples/v3': 'bbee27d37a9fd0ba',
                'deploy-evaluator/v2': '7dbeecee0deaac7c',
                'deploy-evaluator/v3': '52cfb7aaf6088fae',
                'fetch-relation/v2': '6ddec66c5642f1f0',
                'fetch-relation/v3': 'b499d9a2e3d57577',
                'index-lookup/v2': '3a944f80a98e11a2',
                'index-lookup/v3': '093dd4655cf81cbc',
                'index-put/v2': 'df4b7b5c443c31c1',
                'index-put/v3': '231c590ba8f43cc9',
                'insert-tuples/v2': '76043e91235aaa03',
                'insert-tuples/v3': '76043e91235aaa03',
                'list-relations/v2': '245a7ee962d04f7f',
                'list-relations/v3': 'b258e1b3a95dfb53',
                'list-tuple-ids/v2': 'ebc8d9e78bc0ac2f',
                'list-tuple-ids/v3': '3e6862d38059d656',
                'query/v2': '6444b8aac00bfcc0',
                'query/v3': 'f1e7d064ded56364'},
 'replicas=2': {'ack/v2': '444c08f3560e97a2',
                'ack/v3': '444c08f3560e97a2',
                'batch-query/v2': '14e81960f923abe5',
                'batch-query/v3': '425e5db60922f9d4',
                'count-tuples/v2': '67bdb67547a14250',
                'count-tuples/v3': '67bdb67547a14250',
                'delete-relation/v2': '2cfb04c654c1737a',
                'delete-relation/v3': '19c05051ee30cb20',
                'delete-tuples/v2': '41e8afac9e4f5ed1',
                'delete-tuples/v3': 'bbee27d37a9fd0ba',
                'deploy-evaluator/v2': '7dbeecee0deaac7c',
                'deploy-evaluator/v3': '52cfb7aaf6088fae',
                'fetch-relation/v2': 'aa9110184d2991ea',
                'fetch-relation/v3': '37f5b824656e4201',
                'index-lookup/v2': 'fd45db56ff9f4b97',
                'index-lookup/v3': '7b1bc77e308abad7',
                'index-put/v2': 'df4b7b5c443c31c1',
                'index-put/v3': '231c590ba8f43cc9',
                'insert-tuples/v2': '473a021db5608474',
                'insert-tuples/v3': '473a021db5608474',
                'list-relations/v2': '245a7ee962d04f7f',
                'list-relations/v3': 'b258e1b3a95dfb53',
                'list-tuple-ids/v2': 'ebc8d9e78bc0ac2f',
                'list-tuple-ids/v3': '3e6862d38059d656',
                'query/v2': '7b75aef482761fcb',
                'query/v3': 'fad1d263c697befc'}}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_wire_bytes_match_the_parent_commit(config):
    assert transcript(**CONFIGS[config]) == GOLDEN[config]


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_async_spelling_sends_the_same_bytes(config, form):
    digests, shard_ids = socket_transcript(form=form, **CONFIGS[config])
    if form == "async-manifest":
        assert digests == GOLDEN[config]
    else:
        assert digests == transcript(shard_ids=shard_ids, **CONFIGS[config])


def provider_transcript(query: str) -> dict[str, str]:
    """The digests of the workload through one ``tcp://`` provider, its
    proxy opened from a URL carrying ``query``."""
    shard = SocketRecordingShard()
    with ThreadedTcpServer(shard) as server:
        proxy = RemoteServerProxy.connect(f"tcp://127.0.0.1:{server.port}{query}")
        assert type(proxy) is RemoteServerProxy
        return _drive(proxy, [shard])


def test_a_tcp_async_url_sends_the_same_bytes():
    plain = provider_transcript("")
    assert provider_transcript("?async=1") == plain
    assert provider_transcript("?async=0") == plain


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
