"""Round-trips and error handling of the index wire codecs."""

from __future__ import annotations

import pytest

from repro.core import SearchableSelectDph
from repro.index.wire import (
    IndexDelta,
    IndexLookupRequest,
    IndexSnapshot,
    decode_index_delta,
    decode_index_lookup,
    decode_index_snapshot,
    encode_index_delta,
    encode_index_lookup,
    encode_index_snapshot,
)
from repro.outsourcing.protocol import ProtocolError
from repro.relational import Selection


def _ids(*values):
    return tuple(bytes([v]) * 16 for v in values)


class TestSnapshotCodec:
    def test_round_trip(self):
        snapshot = IndexSnapshot(
            bucket_capacity=3,
            entries={
                b"L1" * 16: (_ids(1, 2, 3), _ids(4, 5, 6)),
                b"L2" * 16: (_ids(7, 8, 9),),
            },
        )
        decoded = decode_index_snapshot(encode_index_snapshot(snapshot))
        assert decoded == snapshot
        assert decoded.posting_slots() == 9

    def test_empty_snapshot_round_trips(self):
        snapshot = IndexSnapshot(bucket_capacity=8, entries={})
        assert decode_index_snapshot(encode_index_snapshot(snapshot)) == snapshot

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_index_snapshot(b"\x00\x00")

    def test_zero_capacity_rejected(self):
        raw = encode_index_snapshot(IndexSnapshot(bucket_capacity=1, entries={}))
        with pytest.raises(ProtocolError, match="capacity"):
            decode_index_snapshot(b"\x00\x00\x00\x00" + raw[4:])

    def test_overfull_bucket_rejected(self):
        raw = encode_index_snapshot(
            IndexSnapshot(bucket_capacity=2, entries={b"L": (_ids(1, 2, 3),)})
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_index_snapshot(raw)

    def test_trailing_bytes_rejected(self):
        raw = encode_index_snapshot(IndexSnapshot(bucket_capacity=2, entries={}))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_index_snapshot(raw + b"x")


class TestDeltaCodec:
    def test_round_trip(self):
        delta = IndexDelta(
            additions=((b"L1", _ids(1)[0]), (b"L2", _ids(2)[0])),
            removals=((b"L1", _ids(3)[0]),),
        )
        assert decode_index_delta(encode_index_delta(delta)) == delta

    def test_empty_delta_is_falsy(self):
        delta = decode_index_delta(encode_index_delta(IndexDelta()))
        assert not delta
        assert delta == IndexDelta()

    def test_trailing_bytes_rejected(self):
        raw = encode_index_delta(IndexDelta(removals=((b"L1", _ids(1)[0]),)))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_index_delta(raw + b"x")

    def test_the_empty_delta_is_no_bytes(self):
        """What a session without an index puts in its writes."""
        assert encode_index_delta(IndexDelta()) == b""
        assert decode_index_delta(b"") == IndexDelta()
        assert decode_index_delta(bytes(8)) == IndexDelta()  # two empty pair lists


class TestLookupCodec:
    def test_round_trip_without_fallback(self):
        request = IndexLookupRequest(labels=(b"A" * 32, b"B" * 32))
        decoded = decode_index_lookup(encode_index_lookup(request))
        assert decoded == request
        assert decoded.fallback_query is None

    def test_round_trip_with_fallback(
        self, employee_schema, secret_key, rng
    ):
        dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
        fallback = dph.encrypt_query(Selection.equals("dept", "HR"))
        request = IndexLookupRequest(labels=(b"A" * 32,), fallback_query=fallback)
        decoded = decode_index_lookup(encode_index_lookup(request))
        assert decoded.labels == request.labels
        assert decoded.fallback_query is not None

    def test_truncated_rejected(self):
        raw = encode_index_lookup(IndexLookupRequest(labels=(b"A",)))
        with pytest.raises(ProtocolError, match="truncated"):
            decode_index_lookup(raw[:-1])

    def test_unknown_flag_rejected(self):
        raw = encode_index_lookup(IndexLookupRequest(labels=(b"A",)))
        with pytest.raises(ProtocolError, match="flag"):
            decode_index_lookup(raw[:-1] + b"\x07")

    def test_bare_lookup_trailing_bytes_rejected(self):
        raw = encode_index_lookup(IndexLookupRequest(labels=(b"A",)))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_index_lookup(raw + b"x")
