"""Round-trips and error handling of the index wire codecs."""

from __future__ import annotations

import pytest

from repro.core import SearchableSelectDph
from repro.index.wire import (
    IndexDelta,
    IndexLookupRequest,
    decode_index_delta,
    decode_index_lookup,
    decode_index_snapshot,
    encode_index_delta,
    encode_index_lookup,
    encode_index_snapshot,
)
from repro.outsourcing.protocol import ProtocolError, _encode_sequence, encode_encrypted_query
from repro.relational import Selection


def _ids(*values):
    return tuple(bytes([v]) * 16 for v in values)


class TestSnapshotCodec:
    def test_round_trip(self):
        postings = tuple(
            (label, tuple_id)
            for label, ids in ((b"L1" * 16, _ids(1, 2, 3)), (b"L2" * 16, _ids(1, 4)))
            for tuple_id in ids
        )
        assert decode_index_snapshot(encode_index_snapshot(postings)) == postings

    def test_empty_snapshot_round_trips(self):
        assert decode_index_snapshot(encode_index_snapshot(())) == ()

    def test_the_put_body_is_the_deltas_pair_codec(self):
        postings = ((b"L1", _ids(1)[0]), (b"L2", _ids(1)[0]))
        body = encode_index_snapshot(postings)
        assert body + bytes(4) == encode_index_delta(IndexDelta(additions=postings))

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_index_snapshot(b"\x00\x00")

    def test_trailing_bytes_rejected(self):
        raw = encode_index_snapshot(((b"L", _ids(1)[0]),))
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


@pytest.fixture
def fallback(employee_schema, secret_key, rng):
    dph = SearchableSelectDph(employee_schema, secret_key, backend="swp", rng=rng)
    return dph.encrypt_query(Selection.equals("dept", "HR"))


class TestLookupCodec:
    def test_round_trip(self, fallback):
        request = IndexLookupRequest(labels=(b"A" * 32, b"B" * 32), fallback_query=fallback)
        assert decode_index_lookup(encode_index_lookup(request)) == request

    def test_the_body_is_labels_flag_one_and_the_fallback(self, fallback):
        request = IndexLookupRequest(labels=(b"A" * 32,), fallback_query=fallback)
        assert encode_index_lookup(request) == (
            _encode_sequence([b"A" * 32]) + b"\x01" + encode_encrypted_query(fallback)
        )

    def test_a_lookup_without_its_fallback_is_refused(self):
        with pytest.raises(ProtocolError, match="every lookup carries its fallback"):
            decode_index_lookup(_encode_sequence([b"A"]) + b"\x00")

    def test_truncated_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_index_lookup(_encode_sequence([b"A"]))

    def test_unknown_flag_rejected(self, fallback):
        raw = encode_index_lookup(IndexLookupRequest(labels=(b"A",), fallback_query=fallback))
        labels = len(_encode_sequence([b"A"]))
        with pytest.raises(ProtocolError, match="flag 7"):
            decode_index_lookup(raw[:labels] + b"\x07" + raw[labels + 1:])

    def test_trailing_bytes_rejected(self, fallback):
        raw = encode_index_lookup(IndexLookupRequest(labels=(b"A",), fallback_query=fallback))
        with pytest.raises(ProtocolError, match="trailing"):
            decode_index_lookup(raw + b"x")
