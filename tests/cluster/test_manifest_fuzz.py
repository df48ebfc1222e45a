"""Hostile fleet manifests: any file content is a manifest or a ``ManifestError``.

``ClusterManifest.load`` reads a file an operator (or anything that can
write next to the fleet) controls, and ``connect("cluster+file://...")``
promises a :class:`~repro.api.DatabaseError` for a bad one.  Any bytes,
any JSON value, and a well-shaped document whose fields hold any JSON value
are written to the file; loading it must return a manifest or raise
:class:`ManifestError` -- never ``RecursionError`` (nesting deeper than the
parser's limit), ``UnicodeDecodeError`` (bytes that are not UTF-8) or
``OverflowError`` (``1e400`` parses as an infinity) -- within a bounded time.
A ``virtual_nodes`` past :data:`~repro.cluster.ring.MAX_VIRTUAL_NODES` is refused
within a second by the manifest, the ring, the router, a session and
``repro cluster route``.
"""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import DatabaseError, EncryptedDatabase
from repro.cli import main
from repro.cluster import (
    ClusterError,
    ClusterManifest,
    ConsistentHashRing,
    ManifestError,
    RingError,
    ShardRouter,
)
from repro.cluster.ring import MAX_VIRTUAL_NODES
from repro.outsourcing import OutsourcedDatabaseServer

#: The longest one load may take.
TIMEOUT_S = 5.0

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=16,
)
#: Field values of the wrong type, or of the right type out of range.
wrong_fields = json_values | st.sampled_from([
    0, -1, 1, 2, 2**63, -(2**70), "1" * 5000, True, [], {},
])
shard_entries = st.lists(
    st.fixed_dictionaries(
        {"shard_id": wrong_fields, "url": wrong_fields | st.just("tcp://127.0.0.1:1")}
    )
    | json_values,
    max_size=3,
)
documents = st.fixed_dictionaries(
    {"version": st.just(1) | wrong_fields},
    optional={
        "replicas": wrong_fields,
        "virtual_nodes": wrong_fields,
        "shards": shard_entries | wrong_fields,
        "async": wrong_fields,
    },
)


contents = st.one_of(
    st.binary(max_size=128),
    json_values.map(lambda value: json.dumps(value).encode()),
    documents.map(lambda value: json.dumps(value).encode()),
    st.integers(1, 200_000).map(lambda depth: b"[" * depth + b"]" * depth),
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(raw=contents)
@example(raw=b"[" * 100_000)
@example(raw=b'{"version": 1, "shards": [], "name": "\xff\xfe"}')
@example(raw=b'{"version": 1, "replicas": 1e400, "shards": [{"shard_id": "a", "url": "tcp://h:1"}]}')
@example(raw=b'{"version": 1, "virtual_nodes": -1e400, "shards": []}')
@example(raw=b'{"version": 1, "replicas": ' + b"9" * 5000 + b', "shards": []}')
def test_a_manifest_file_loads_or_is_a_manifest_error(tmp_path, raw):
    path = tmp_path / "fleet.json"
    path.write_bytes(raw)
    started = time.monotonic()
    try:
        manifest = ClusterManifest.load(path)
    except ManifestError:
        pass
    else:
        assert isinstance(manifest, ClusterManifest)
    assert time.monotonic() - started < TIMEOUT_S


@pytest.mark.parametrize(
    "raw",
    [b"[" * 100_000, b"\xff\xfe{}", b'{"version": 1, "replicas": 1e400, "shards": []}'],
    ids=["deep", "not-utf-8", "infinite-replicas"],
)
def test_a_session_over_a_hostile_manifest_is_a_database_error(tmp_path, raw):
    path = tmp_path / "fleet.json"
    path.write_bytes(raw)
    with pytest.raises(DatabaseError):
        EncryptedDatabase.connect(f"cluster+file://{path}")


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(virtual_nodes=st.integers(MAX_VIRTUAL_NODES + 1, 2**64)
       | st.sampled_from([MAX_VIRTUAL_NODES + 1, 2**62]))
def test_virtual_nodes_past_the_bound_are_refused_within_a_second(tmp_path, virtual_nodes):
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps({
        "version": 1,
        "virtual_nodes": virtual_nodes,
        "shards": [{"shard_id": "a", "url": "tcp://127.0.0.1:1"}],
    }))
    started = time.monotonic()
    with pytest.raises(ManifestError, match="virtual_nodes"):
        ClusterManifest.load(path)
    with pytest.raises(DatabaseError):
        EncryptedDatabase.connect(f"cluster+file://{path}")
    with pytest.raises(RingError, match="virtual nodes"):
        ConsistentHashRing(["a"], virtual_nodes=virtual_nodes)
    with pytest.raises(ClusterError, match="virtual_nodes"):
        ShardRouter([OutsourcedDatabaseServer()], virtual_nodes=virtual_nodes)
    assert main(["cluster", "route", f"cluster+file://{path}"]) == 2
    route = ["cluster", "route", "cluster://h:1", "--virtual-nodes", str(virtual_nodes)]
    assert main(route) == 2
    assert time.monotonic() - started < 1.0


def test_the_bound_itself_is_a_ring():
    ring = ConsistentHashRing(["a", "b"], virtual_nodes=MAX_VIRTUAL_NODES)
    assert len(ring._points) == 2 * MAX_VIRTUAL_NODES
    assert main(["cluster", "route", "cluster://h:1", "--virtual-nodes",
                 str(MAX_VIRTUAL_NODES), "--keys", "10"]) == 0
