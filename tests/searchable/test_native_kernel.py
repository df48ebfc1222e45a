"""The native SWP select kernel against the Python loop, and its loader.

``SwpMatcher.select`` runs the C kernel of :mod:`repro.native` when one is
loaded and the check is one HMAC (``m <= 32``); setting the loaded kernel to
``None`` runs the Python loop, the reference.  For Hypothesis-drawn
trapdoors, check keys past the 64-byte HMAC block, ``m`` from 1 to 32 and
items whose words are forged matches, wrong-length or empty words, no words
at all, ``bytearray`` / ``memoryview`` copies, wider-than-a-byte buffers and
objects that are not bytes, both must return the same hits or raise the same
exception class -- also when ``items`` and ``words`` differ in length.

Items whose words are an exact tuple of exact ``bytes`` take the kernel's
lane path where it serves (``SWP_CHECK == "sha-ni-2x"``): words checked two
at a time, paired across items.  Scans of up to about 200 such items, with
word and check lengths on both sides of the one-block bound, planted hits in
either lane at every word position and an odd last word, must equal the
Python loop too, and on a host whose CPU has the SHA extensions the lanes
must be what serves.

The encrypt side's ``swp_encrypt_words`` is checked here alone as well (its
differential tests are ``test_swp_encrypt_kernel.py``): a word or id that is
not ``bytes`` of its length comes back ``None`` for Python to decide, and a
malformed sealer, memo or batch raises.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.crypto.prf import Prf
from repro.crypto.rng import DeterministicRng
from repro.searchable.swp import SwpMatcher, SwpScheme
from repro.searchable.tokens import SwpToken

KEY = bytes(range(32))

needs_kernel = pytest.mark.skipif(
    native.kernel is None, reason="the native kernel did not build on this host"
)


def forged(token: SwpToken, stream: bytes, check_length: int) -> bytes:
    """The word ciphertext whose ``T[:w-m]`` is ``stream`` and that passes the check."""
    plain = stream + Prf(token.check_key).fixed(check_length)(stream)
    return bytes(a ^ b for a, b in zip(plain, token.pre_encrypted_word))


def outcome(select):
    try:
        return select()
    except Exception as exc:  # noqa: BLE001 -- the class is what is compared
        return type(exc)


def both_paths(matcher: SwpMatcher, items, words, monkeypatch):
    """``(native, python)`` outcomes of one select, each over fresh iterators."""
    native_side = outcome(lambda: matcher.select(iter(items), iter(words)))
    with monkeypatch.context() as patch:
        patch.setattr(native, "kernel", None)
        python_side = outcome(lambda: matcher.select(iter(items), iter(words)))
    return native_side, python_side


@st.composite
def cases(draw):
    w = draw(st.integers(min_value=2, max_value=48))
    m = draw(st.one_of(st.just(1), st.just(min(32, w - 1)),
                       st.integers(min_value=1, max_value=min(32, w - 1))))
    token = SwpToken(
        pre_encrypted_word=draw(st.binary(min_size=w, max_size=w)),
        check_key=draw(st.binary(min_size=16, max_size=100)),  # >= 64: hashed first
    )
    hit = st.binary(min_size=w - m, max_size=w - m).map(lambda s: forged(token, s, m))
    word = st.one_of(
        hit,
        st.binary(min_size=w, max_size=w),
        st.binary(max_size=w + 3),  # mostly wrong lengths, incl. empty
        hit.map(bytearray),
        hit.map(memoryview),
        # len() is w but bytes() is 2w: OverflowError unless the high half is zero
        st.binary(min_size=2 * w, max_size=2 * w).map(lambda b: memoryview(b).cast("H")),
        hit.map(lambda b: memoryview(bytes(w) + b).cast("H")),
        hit.map(list),  # bytes(list of ints) is the word
        st.sampled_from([None, 7, "x" * w, 1.5]),
    )
    per_item = st.one_of(st.lists(word, max_size=4), st.just(()), st.just(None))
    words = draw(st.lists(per_item, max_size=6))
    item_count = draw(st.integers(min_value=0, max_value=len(words) + 2))
    return w, m, token, list(range(item_count)), words


@needs_kernel
@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_the_kernel_equals_the_python_loop(case):
    w, m, token, items, words = case
    matcher = SwpMatcher(token, w, m)
    with pytest.MonkeyPatch.context() as monkeypatch:
        native_side, python_side = both_paths(matcher, items, words, monkeypatch)
    assert native_side == python_side


#: The suffix an m <= 32 check appends: one HMAC block holds T[:w-m] iff w - m <= 49.
ONE_BLOCK_LEFT = 55 - 6


@st.composite
def byte_scans(draw):
    """Up to ~200 items of exact bytes tuples, a few other items among them."""
    left = draw(st.one_of(st.integers(min_value=1, max_value=60),
                          st.sampled_from([ONE_BLOCK_LEFT, ONE_BLOCK_LEFT + 1])))
    m = draw(st.integers(min_value=1, max_value=32))
    w = left + m
    token = SwpToken(
        pre_encrypted_word=draw(st.binary(min_size=w, max_size=w)),
        check_key=draw(st.binary(min_size=16, max_size=100)),
    )
    count = draw(st.one_of(st.sampled_from([0, 1, 2, 63, 64, 65, 128, 129]),
                           st.integers(min_value=0, max_value=200)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    widths = draw(st.one_of(st.just(1), st.integers(min_value=0, max_value=4)))
    hit_share = draw(st.sampled_from([0.0, 0.02, 0.3]))

    def word() -> bytes:
        roll = rng.random()
        if roll < hit_share:
            return forged(token, rng.randbytes(left), m)
        if roll < hit_share + 0.05:
            return rng.randbytes(rng.choice([0, w - 1, w + 1]))
        return rng.randbytes(w)

    words = [tuple(word() for _ in range(rng.randint(0, widths) if widths > 1 else 1))
             for _ in range(count)]
    for index in draw(st.sets(st.integers(min_value=0, max_value=max(count - 1, 0)), max_size=3)):
        if index < count:  # an item the lanes do not take, walked in its turn
            words[index] = rng.choice([list, lambda ws: tuple(map(bytearray, ws))])(words[index])
    return w, m, token, list(range(count)), words


@needs_kernel
@given(case=byte_scans())
@settings(max_examples=200, deadline=None)
def test_the_lanes_equal_the_python_loop(case):
    w, m, token, items, words = case
    matcher = SwpMatcher(token, w, m)
    with pytest.MonkeyPatch.context() as monkeypatch:
        native_side, python_side = both_paths(matcher, items, words, monkeypatch)
    assert native_side == python_side


@needs_kernel
@pytest.mark.parametrize("m", [6, 32])
@pytest.mark.parametrize("shape", [(1,) * 7, (3, 1, 2, 3), (2, 2, 2), (1, 4)])
def test_a_hit_is_found_in_either_lane_at_every_word_position(shape, m, monkeypatch):
    """One planted hit at each global word index -- lane 1 or 2 by its
    parity, the last word odd or not -- and at each position in its item."""
    w = m + 15
    token = SwpToken(pre_encrypted_word=os.urandom(w), check_key=os.urandom(40))
    matcher = SwpMatcher(token, w, m)
    items = list(range(len(shape)))
    for item, width in enumerate(shape):
        for position in range(width):
            words = [[os.urandom(w) for _ in range(n)] for n in shape]
            words[item][position] = forged(token, os.urandom(w - m), m)
            scan = [tuple(ws) for ws in words]
            assert both_paths(matcher, items, scan, monkeypatch) == ([item], [item])


def sha_extensions() -> bool:
    """Whether this CPU reports SHA, SSE4.1 and SSSE3 (Linux; False elsewhere)."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            flags = next((line.split(":", 1)[1].split() for line in handle
                          if line.startswith("flags")), [])
    except OSError:
        return False
    return {"sha_ni", "sse4_1", "ssse3"} <= set(flags)


@needs_kernel
def test_the_lanes_serve_where_the_cpu_has_the_sha_extensions():
    assert native.kernel.SWP_CHECK in ("sha-ni-2x", "openssl")
    if sha_extensions():
        assert native.kernel.SWP_CHECK == "sha-ni-2x"


@needs_kernel
@pytest.mark.parametrize("m", [1, 6, 32])
def test_bytes_like_words_match_as_bytes_do(m, monkeypatch):
    w = 40
    token = SwpToken(pre_encrypted_word=os.urandom(w), check_key=os.urandom(70))
    word = forged(token, os.urandom(w - m), m)
    matcher = SwpMatcher(token, w, m)
    items = ["bytes", "bytearray", "memoryview", "miss", "empty"]
    words = [(word,), (bytearray(word),), (memoryview(word),), (word[::-1],), ()]
    native_side, python_side = both_paths(matcher, items, words, monkeypatch)
    assert native_side == python_side == ["bytes", "bytearray", "memoryview"]


def test_a_chained_check_stays_on_the_python_loop(monkeypatch):
    class Refusing:
        def swp_select(self, *args):
            raise AssertionError("m > 32 must not reach the kernel")

    w, m = 40, 33
    token = SwpToken(pre_encrypted_word=os.urandom(w), check_key=os.urandom(32))
    word = forged(token, os.urandom(w - m), m)
    monkeypatch.setattr(native, "kernel", Refusing())
    assert SwpMatcher(token, w, m).select([1, 2], [(b"x" * w,), (word,)]) == [2]


@needs_kernel
def test_a_long_scan_lets_other_threads_run():
    """The kernel offers the interpreter lock, as the Python loop's eval loop
    does: a busy thread beside a long scan is never held off for the whole
    scan (it waits a few switch intervals at most)."""
    w, m, count = 15, 6, 2_000_000
    token = SwpToken(pre_encrypted_word=os.urandom(w), check_key=os.urandom(32))
    matcher = SwpMatcher(token, w, m)
    started = time.perf_counter()
    matcher.select(range(count // 20), itertools.repeat((b"x" * w,)))
    scan_s = (time.perf_counter() - started) * 20
    scanning = threading.Thread(
        target=matcher.select, args=(range(count), itertools.repeat((b"x" * w,)))
    )
    gaps, last = [], time.perf_counter()
    scanning.start()
    while scanning.is_alive():
        now = time.perf_counter()
        gaps.append(now - last)
        last = now
    scanning.join(timeout=60)
    assert not scanning.is_alive()
    assert max(gaps) < max(0.05, scan_s / 4), (max(gaps), scan_s)


@needs_kernel
def test_malformed_kernel_arguments_raise():
    kernel = native.kernel
    with pytest.raises(ValueError):
        kernel.swp_select([], [], b"x" * 8, b"k" * 63, b"", 2)
    for m in (0, 8, 33):
        with pytest.raises(ValueError):
            kernel.swp_select([], [], b"x" * 8, b"k" * 64, b"", m)


# --------------------------------------------------------------------------- #
# The loader
# --------------------------------------------------------------------------- #


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "__pycache__"
    monkeypatch.setattr(native, "_CACHE_DIR", str(directory))
    return directory


@needs_kernel
def test_the_encrypt_kernel_leaves_irregular_inputs_to_python():
    """The kernel alone: a word or id that is not bytes of its length is ``None``."""
    swp = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(5))
    encrypt = native.kernel.swp_encrypt_words
    good = b"HR########D"
    trapdoors = encrypt([good, b"short", bytearray(good), None], None, swp._sealer, {}, 4)
    assert trapdoors[0] == (swp.trapdoor(good).pre_encrypted_word, swp.trapdoor(good).check_key)
    assert trapdoors[1:] == [None, None, None]
    sealed = encrypt(
        [[good], [good, b"short"], [good], [bytearray(good)], []],
        [b"n" * 16, b"n" * 16, b"n" * 15, b"n" * 16, b"n" * 16],
        swp._sealer, {}, 4,
    )
    assert sealed == [swp.seal_documents([[good]], [b"n" * 16])[0], None, None, None, ()]


@needs_kernel
def test_malformed_encrypt_kernel_arguments_raise():
    swp = SwpScheme(KEY, word_length=11, check_length=6)
    sealer, encrypt = swp._sealer, native.kernel.swp_encrypt_words
    with pytest.raises(ValueError):
        encrypt([[b"HR########D"]], [], sealer, {}, 4)
    with pytest.raises(ValueError):
        encrypt([], None, sealer, {}, 0)
    with pytest.raises(TypeError):
        encrypt([], None, sealer, [], 4)
    with pytest.raises((TypeError, ValueError)):
        encrypt([], None, b"not a sealer", {}, 4)
    with pytest.raises(TypeError):
        encrypt([b"HR########D"], None, sealer, {b"HR########D": "junk"}, 4)
    key_pair = (bytes(64), b"|\x00\x00\x00\x05\x01")
    make = native.kernel.swp_sealer
    with pytest.raises(ValueError):
        make((key_pair,) * 8, key_pair, key_pair, b"|", 40, 33)  # m past one digest
    with pytest.raises(ValueError):
        make((key_pair,) * 8, key_pair, key_pair, b"|", 40, 1)  # w - m past one digest
    with pytest.raises(ValueError):
        make((), key_pair, key_pair, b"|", 11, 6)
    with pytest.raises(ValueError):
        make(((bytes(63), b"|"),) * 8, key_pair, key_pair, b"|", 11, 6)


def test_a_failing_compiler_leaves_no_kernel_and_no_file(cache_dir, monkeypatch):
    def failing_compiler(command, **kwargs):
        with open(command[command.index("-o") + 1], "wb") as handle:
            handle.write(b"\x7fELF half")
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(subprocess, "run", failing_compiler)
    assert native.load() is None
    assert list(cache_dir.iterdir()) == []


def test_a_missing_compiler_leaves_no_kernel(cache_dir, monkeypatch):
    def no_compiler(command, **kwargs):
        raise FileNotFoundError(command[0])

    monkeypatch.setattr(subprocess, "run", no_compiler)
    assert native.load() is None
    assert list(cache_dir.iterdir()) == []


def test_a_truncated_build_is_rebuilt_or_falls_back(cache_dir):
    with open(native._SOURCE, "rb") as handle:
        target = native._cached_path(handle.read())
    cache_dir.mkdir()
    with open(target, "wb") as handle:
        handle.write(b"\x7fELF\x02\x01\x01")
    loaded = native.load()
    if native.kernel is None:
        assert loaded is None
    else:
        assert loaded.swp_select([1], [()], b"x" * 8, b"k" * 64, b"", 2) == []
        assert [entry.name for entry in cache_dir.iterdir()] == [os.path.basename(target)]


def test_the_cache_name_follows_source_and_flags(monkeypatch):
    first = native._cached_path(b"int x;")
    assert first.endswith(native._SUFFIX)
    assert native._cached_path(b"int y;") != first
    monkeypatch.setattr(native, "_FLAGS", ("-O3",))
    assert native._cached_path(b"int x;") != first


def fake_compiler(command, **kwargs):
    with open(command[command.index("-o") + 1], "wb") as handle:
        handle.write(b"\x7fELF built")


def stale_builds(cache_dir):
    cache_dir.mkdir()
    names = [f"_native-{digest}{native._SUFFIX}" for digest in ("0" * 16, "f" * 16)]
    for name in names:
        (cache_dir / name).write_bytes(b"\x7fELF old")
    (cache_dir / "other.pyc").write_bytes(b"kept")
    return names


def test_a_build_removes_the_stale_builds(cache_dir, monkeypatch):
    stale_builds(cache_dir)
    target = native._cached_path(b"int fresh;")
    monkeypatch.setattr(subprocess, "run", fake_compiler)
    native._build(target)
    assert sorted(entry.name for entry in cache_dir.iterdir()) == sorted(
        [os.path.basename(target), "other.pyc"]
    )
    assert (cache_dir / os.path.basename(target)).read_bytes() == b"\x7fELF built"


def test_a_failing_build_leaves_the_stale_builds(cache_dir, monkeypatch):
    names = stale_builds(cache_dir)

    def failing_compiler(command, **kwargs):
        raise subprocess.CalledProcessError(1, command)

    monkeypatch.setattr(subprocess, "run", failing_compiler)
    with pytest.raises(OSError):
        native._build(native._cached_path(b"int fresh;"))
    assert sorted(entry.name for entry in cache_dir.iterdir()) == sorted([*names, "other.pyc"])
