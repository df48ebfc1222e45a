"""The native payload opener against ``SymmetricCipher.decrypt_bytes``.

``SealedPayloadDph.decrypt_tuples`` opens a result's payloads with
``SymmetricCipher.open_many`` -- one ``open_payloads`` call when
:mod:`repro.native` loaded its kernel, every row ``None`` otherwise -- and
runs ``decrypt_bytes`` (the reference) on each row left ``None``, in row
order.  For Hypothesis-drawn batches -- bodies of 0, 1, 31, 32, 33, 64 and
200 bytes, raw payloads of 47 and exactly 48 bytes, a flipped bit in the
nonce, tag, body or associated data, empty associated data, ``bytearray`` /
``memoryview`` payloads and ids -- that composition must yield, with the
kernel and without it, the same plaintexts as ``decrypt_bytes`` row by row,
or raise the same exception class at the same row.  The kernel is also
checked on its own, since the composition re-runs the reference on every row
the kernel leaves unopened and so would hide a kernel that opens nothing:
every authentic plain-buffer row must come back opened, and every other one
as ``None``.
"""

from __future__ import annotations

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.crypto.errors import DecryptionError, IntegrityError, ParameterError
from repro.crypto.kdf import derive_key
from repro.crypto.mac import TAG_LEN
from repro.crypto.prf import Prf, hmac_block_key
from repro.crypto.prg import KEYSTREAM_BLOCK_LEN
from repro.crypto.symmetric import NONCE_LEN, SymmetricCipher

needs_kernel = pytest.mark.skipif(
    native.kernel is None, reason="the native kernel did not build on this host"
)

KEY = bytes(range(32))
CIPHER = SymmetricCipher(KEY)
BODY_LENGTHS = (0, 1, 31, 32, 33, 64, 200)
MUTATIONS = ("none", "nonce", "tag", "body", "ad", "47 bytes", "48 forged bytes")
CONTAINERS = {"bytes": bytes, "bytearray": bytearray, "memoryview": memoryview}


def kernel_keys(key: bytes) -> tuple[bytes, bytes, bytes]:
    """``open_payloads``'s key arguments for ``SymmetricCipher(key)``, derived anew."""
    stream = Prf(derive_key(key, "symmetric/enc"), label=b"ks")
    _, _, suffix, stream_key = stream.single_block(KEYSTREAM_BLOCK_LEN)
    return stream_key, suffix, hmac_block_key(derive_key(key, "symmetric/mac"))


def flip(data: bytes, position: int) -> bytes:
    flipped = bytearray(data)
    flipped[position] ^= 0x01
    return bytes(flipped)


def mutate(raw: bytes, ad: bytes, how: str, position: int) -> tuple[bytes, bytes]:
    body_length = len(raw) - NONCE_LEN - TAG_LEN
    if how == "nonce":
        return flip(raw, position % NONCE_LEN), ad
    if how == "tag":
        return flip(raw, NONCE_LEN + position % TAG_LEN), ad
    if how == "body" and body_length:
        return flip(raw, NONCE_LEN + TAG_LEN + position % body_length), ad
    if how == "ad" and ad:
        return raw, flip(ad, position % len(ad))
    if how == "47 bytes":
        return raw[:47], ad
    if how == "48 forged bytes":
        return os.urandom(48), ad
    return raw, ad


@st.composite
def rows(draw):
    """One ``(raw, ad)`` row, possibly tampered with, in drawn containers."""
    body = draw(st.one_of(st.sampled_from(BODY_LENGTHS),
                          st.integers(min_value=0, max_value=200)))
    ad = draw(st.one_of(st.just(b""), st.binary(min_size=1, max_size=24)))
    raw = CIPHER.encrypt_bytes(draw(st.binary(min_size=body, max_size=body)), ad)
    how = draw(st.sampled_from(MUTATIONS))
    raw, ad = mutate(raw, ad, how, draw(st.integers(min_value=0, max_value=1000)))
    raw_type = draw(st.sampled_from(sorted(CONTAINERS)))
    ad_type = draw(st.sampled_from(sorted(CONTAINERS)))
    return CONTAINERS[raw_type](raw), CONTAINERS[ad_type](ad)


def outcome(opened) -> tuple[list[bytes], type | None]:
    """What iterating ``opened`` yields before it raises, and the class it raises."""
    plaintexts = []
    try:
        for plaintext in opened:
            plaintexts.append(plaintext)
    except Exception as exc:  # noqa: BLE001 -- the class and the row are compared
        return plaintexts, type(exc)
    return plaintexts, None


def open_rows(raws, ads):
    """The batch as ``decrypt_tuples`` opens it: ``open_many``, then
    ``decrypt_bytes`` on each row it left ``None``, yielded in row order."""
    opened = CIPHER.open_many(raws, ads)
    return (
        CIPHER.decrypt_bytes(raw, ad) if plaintext is None else plaintext
        for plaintext, raw, ad in zip(opened, raws, ads)
    )


def both_paths(raws, ads, monkeypatch):
    """``(native, python)`` outcomes of :func:`open_rows` over one batch."""
    native_side = outcome(open_rows(raws, ads))
    with monkeypatch.context() as patch:
        patch.setattr(native, "kernel", None)
        python_side = outcome(open_rows(raws, ads))
    return native_side, python_side


def reference(raw, ad) -> bytes | None:
    try:
        return CIPHER.decrypt_bytes(raw, ad)
    except (DecryptionError, IntegrityError):
        return None


@needs_kernel
@given(batch=st.lists(rows(), max_size=8))
@settings(max_examples=300, deadline=None)
def test_open_many_then_decrypt_bytes_equals_decrypt_bytes_row_by_row(batch):
    raws = [raw for raw, _ in batch]
    ads = [ad for _, ad in batch]
    with pytest.MonkeyPatch.context() as monkeypatch:
        native_side, python_side = both_paths(raws, ads, monkeypatch)
    assert native_side == python_side
    per_row = outcome(CIPHER.decrypt_bytes(raw, ad) for raw, ad in batch)
    assert native_side == per_row


@needs_kernel
@given(batch=st.lists(rows(), max_size=8))
@settings(max_examples=300, deadline=None)
def test_the_kernel_opens_exactly_the_authentic_rows(batch):
    raws = [raw for raw, _ in batch]
    ads = [ad for _, ad in batch]
    opened = native.kernel.open_payloads(raws, ads, *kernel_keys(KEY))
    assert opened == [reference(raw, ad) for raw, ad in batch]


@needs_kernel
@pytest.mark.parametrize("body", BODY_LENGTHS)
def test_every_tag_byte_is_compared(body):
    ad = os.urandom(16)
    raw = CIPHER.encrypt_bytes(os.urandom(body), ad)
    forged = [flip(raw, NONCE_LEN + i) for i in range(TAG_LEN)]
    opened = native.kernel.open_payloads(
        [raw, *forged], [ad] * (1 + TAG_LEN), *kernel_keys(KEY)
    )
    assert opened[0] == CIPHER.decrypt_bytes(raw, ad)
    assert opened[1:] == [None] * TAG_LEN


@needs_kernel
def test_lengths_around_the_header():
    ad = os.urandom(16)
    empty = CIPHER.encrypt_bytes(b"", ad)
    assert len(empty) == NONCE_LEN + TAG_LEN == 48
    keys = kernel_keys(KEY)
    assert native.kernel.open_payloads([empty, empty[:47], b""], [ad] * 3, *keys) == [
        b"", None, None,
    ]
    assert list(open_rows([empty], [ad])) == [b""]
    with pytest.raises(DecryptionError):
        list(open_rows([empty, empty[:47]], [ad, ad]))


@pytest.mark.parametrize("bad_row", [0, 3, 6])
@pytest.mark.parametrize("tamper", [
    ("tag", IntegrityError), ("ad", IntegrityError), ("47 bytes", DecryptionError),
])
@pytest.mark.parametrize("path", ["native", "python"])
def test_a_bad_row_raises_where_it_sits(bad_row, tamper, path, monkeypatch):
    if path == "python":
        monkeypatch.setattr(native, "kernel", None)
    elif native.kernel is None:
        pytest.skip("the native kernel did not build on this host")
    how, expected = tamper
    ads = [os.urandom(16) for _ in range(7)]
    plaintexts = [os.urandom(40) for _ in range(7)]
    raws = [CIPHER.encrypt_bytes(p, ad) for p, ad in zip(plaintexts, ads)]
    raws[bad_row], ads[bad_row] = mutate(raws[bad_row], ads[bad_row], how, 5)
    assert outcome(open_rows(raws, ads)) == (plaintexts[:bad_row], expected)


def test_objects_that_are_not_buffers_raise_as_in_python(monkeypatch):
    ad = os.urandom(16)
    raw = CIPHER.encrypt_bytes(b"row", ad)
    for raws, ads in (([raw, None], [ad, ad]), ([raw, raw], [ad, "text"]), ([7], [ad])):
        native_side, python_side = both_paths(raws, ads, monkeypatch)
        assert native_side == python_side
        assert python_side[1] is TypeError


@needs_kernel
def test_malformed_kernel_arguments_raise():
    open_payloads = native.kernel.open_payloads
    stream_key, suffix, mac_key = kernel_keys(KEY)
    with pytest.raises(ValueError):
        open_payloads([], [], b"k" * 63, suffix, mac_key)
    with pytest.raises(ValueError):
        open_payloads([], [], stream_key, suffix, b"k" * 65)
    with pytest.raises(ValueError):
        open_payloads([b"x" * 48], [], stream_key, suffix, mac_key)
    with pytest.raises(TypeError):
        open_payloads(None, [], stream_key, suffix, mac_key)
    with pytest.raises(TypeError):
        open_payloads([], [], "not bytes", suffix, mac_key)


@needs_kernel
def test_malformed_seal_arguments_raise():
    seal_payloads = native.kernel.seal_payloads
    stream_key, suffix, mac_key = kernel_keys(KEY)
    nonce = b"n" * NONCE_LEN
    with pytest.raises(ValueError):
        seal_payloads([], [], [], b"k" * 63, suffix, mac_key)
    with pytest.raises(ValueError):
        seal_payloads([b"x"], [b"id"], [], stream_key, suffix, mac_key)
    with pytest.raises(TypeError):
        seal_payloads(None, [], [], stream_key, suffix, mac_key)
    # Rows the kernel does not seal are left to SymmetricCipher._seal.
    assert seal_payloads(
        [b"x", bytearray(b"x"), b"x", b"x"], [b"id", b"id", "id", b"id"],
        [nonce, nonce, nonce, nonce[:15]], stream_key, suffix, mac_key,
    )[1:] == [None, None, None]


def test_unequal_batches_are_refused_on_both_paths(monkeypatch):
    with pytest.raises(ParameterError):
        CIPHER.open_many([b"x" * 48], [])
    monkeypatch.setattr(native, "kernel", None)
    with pytest.raises(ParameterError):
        CIPHER.open_many([b"x" * 48], [])


@needs_kernel
def test_a_long_open_lets_other_threads_run():
    """The kernel offers the interpreter lock during a long batch, as the
    SWP scan does: a busy thread beside a 500 000-row open is never held off
    for the whole open (it waits a few switch intervals at most)."""
    count = 500_000
    ad = os.urandom(16)
    raws, ads = [CIPHER.encrypt_bytes(os.urandom(8), ad)] * count, [ad] * count
    started = time.perf_counter()
    CIPHER.open_many(raws[: count // 20], ads[: count // 20])
    open_s = (time.perf_counter() - started) * 20
    opening = threading.Thread(target=CIPHER.open_many, args=(raws, ads))
    gaps, last = [], time.perf_counter()
    opening.start()
    while opening.is_alive():
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
    opening.join(timeout=60)
    assert not opening.is_alive()
    assert max(gaps) < max(0.05, open_s / 4), (max(gaps), open_s)


@needs_kernel
def test_a_long_seal_lets_other_threads_run():
    """The encrypt side's ``seal_payloads`` offers the lock as ``open_payloads``
    does: a busy thread beside a 500 000-row seal is never held off for more
    than a quarter of it."""
    count = 500_000
    plaintexts, ads, nonces = [os.urandom(8)] * count, [os.urandom(16)] * count, [
        os.urandom(NONCE_LEN)] * count
    started = time.perf_counter()
    CIPHER.seal_many(plaintexts[: count // 20], ads[: count // 20], nonces[: count // 20])
    seal_s = (time.perf_counter() - started) * 20
    sealing = threading.Thread(target=CIPHER.seal_many, args=(plaintexts, ads, nonces))
    gaps, last = [], time.perf_counter()
    sealing.start()
    while sealing.is_alive():
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
    sealing.join(timeout=60)
    assert not sealing.is_alive()
    assert max(gaps) < max(0.05, seal_s / 4), (max(gaps), seal_s)
