"""Hostile provider addresses: any text is an address or a refusal.

An address is read by one of two parsers: a ``tcp://`` URL by
:func:`~repro.net.client.parse_tcp_options`, a fleet address
(``cluster://``, ``cluster+file://``) by
:meth:`~repro.cluster.ClusterManifest.from_url`.  Any text, and URLs built
from hostile parts -- out-of-range and non-numeric ports, empty hosts,
repeated and unknown options, impossible replication factors, paths,
fragments, non-ASCII, manifest files that are missing, garbage, directories
or past the virtual-node bound -- must parse or raise a :class:`~repro.cluster.ClusterError`
or :class:`~repro.net.client.RemoteError`, never anything else.  An address
that does not parse makes :meth:`EncryptedDatabase.connect` raise
:class:`DatabaseError` before any socket is opened.
"""

from __future__ import annotations

import json
import socket
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import DatabaseError, EncryptedDatabase
from repro.cluster import FLEET_URL_PREFIXES, ClusterError, ClusterManifest, ShardEntry
from repro.net.client import RemoteError, parse_tcp_options


def parse(address: str):
    """The address as the session reads it: the one parser for its scheme."""
    if address.startswith(FLEET_URL_PREFIXES):
        return ClusterManifest.from_url(address)
    return parse_tcp_options(address)


hosts = st.sampled_from(["127.0.0.1", "localhost", "", "[::1]", "[::1", "hé", "ｈ", "h h"])
ports = st.sampled_from(["1", "7707", "65535", "0", "65536", "-1", "x", "", "١", "99999999999"])
options = st.sampled_from([
    "index=1", "cache=0", "async=1", "async=yes", "index=2", "cache=", "asnyc=1", "=1",
    "replicas=1", "replicas=0", "replicas=-1", f"replicas={2**70}", "replicas=1e400",
    "replicas=two", "replicas=٢", "quorum=2",
])
queries = st.lists(options, max_size=4).map(lambda items: "?" + "&".join(items) if items else "")
tails = st.sampled_from(["", "/", "/path", "#frag", "?", "\t", "\n", "\x00", "é"])
shard = st.builds(lambda host, port: f"{host}:{port}" if port else host, hosts, ports)
shard_lists = st.lists(shard, min_size=0, max_size=4).map(",".join)

built_urls = st.one_of(
    st.builds(lambda s, q, t: f"tcp://{s}{q}{t}", shard, queries, tails),
    st.builds(lambda s, q, t: f"cluster://{s}{q}{t}", shard_lists, queries, tails),
    st.builds(lambda s, t: f"{s}{t}", shard, tails),
)


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """Manifest files, good and bad, and names that are not files."""
    root = tmp_path_factory.mktemp("fleets")
    ClusterManifest(
        shards=(ShardEntry("a", "tcp://127.0.0.1:1"), ShardEntry("b", "tcp://127.0.0.1:2")),
        replicas=2,
    ).save(root / "fleet.json")
    huge = {"version": 1, "virtual_nodes": 2**62, "shards": [{"shard_id": "a", "url": "tcp://h:1"}]}
    (root / "huge.json").write_text(json.dumps(huge))
    (root / "garbage.json").write_bytes(b"\xff{not json")
    (root / "empty.json").write_bytes(b"")
    (root / "dir.json").mkdir()
    return [
        f"{root}/{name}{tail}"
        for name in (
            "fleet.json", "huge.json", "garbage.json", "empty.json", "dir.json", "absent.json"
        )
        for tail in ("", "?cache=1", "#frag", "\x00")
    ] + ["", str(root)]


def _refused_without_a_socket(address: str) -> None:
    with mock.patch.object(socket, "create_connection", side_effect=AssertionError), \
            mock.patch.object(socket.socket, "connect", side_effect=AssertionError):
        with pytest.raises(DatabaseError):
            EncryptedDatabase.connect(address)


def _check(address: str) -> None:
    try:
        parse(address)
    except (ClusterError, RemoteError):
        _refused_without_a_socket(address)


@settings(max_examples=300, deadline=None)
@given(address=st.one_of(
    st.text(max_size=40),
    st.text(max_size=30).map(lambda text: "tcp://" + text),
    st.text(max_size=30).map(lambda text: "cluster://" + text),
    st.text(max_size=30).map(lambda text: "cluster+file://" + text),
    built_urls,
))
def test_any_address_parses_or_is_refused(address):
    _check(address)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_manifest_address_loads_or_is_refused(manifests, data):
    _check("cluster+file://" + data.draw(st.sampled_from(manifests)))


@pytest.mark.parametrize("address", [
    "tcp://127.0.0.1:0",
    "tcp://127.0.0.1:65536",
    "tcp://:7707",
    "tcp://127.0.0.1:7707?index=1&index=1",
    "tcp://127.0.0.1:7707/path",
    "tcp://127.0.0.1:7707#frag",
    "tcp://127.0.0.1:\t7707",
    "cluster://127.0.0.1:1?replicas=0",
    "cluster://127.0.0.1:1?replicas=-1",
    f"cluster://127.0.0.1:1?replicas={2**70}",
    "cluster://127.0.0.1:1?replicas=1e400",
    "cluster://127.0.0.1:1,127.0.0.1:1",
    "cluster://[::1",
    "cluster+file://",
])
def test_hostile_parts_are_refused(address):
    with pytest.raises((ClusterError, RemoteError)):
        parse(address)
    _refused_without_a_socket(address)


def test_a_manifest_past_the_virtual_node_bound_is_refused_within_a_second(manifests):
    address = "cluster+file://" + next(m for m in manifests if m.endswith("huge.json"))
    started = time.monotonic()
    with pytest.raises(ClusterError, match="virtual_nodes"):
        parse(address)
    _refused_without_a_socket(address)
    assert time.monotonic() - started < 1.0
