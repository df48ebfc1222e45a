"""Pseudorandom permutations.

Two permutations are needed by the reproduced schemes:

* :class:`FeistelPrp` -- a balanced Feistel network over byte strings of a
  fixed even length.  It is the keyed, invertible "scrambling" primitive used
  to build the block cipher and to permute fixed-length identifiers.
* :class:`IntegerPrp` -- a permutation over the integer domain ``[0, n)`` for
  arbitrary ``n``, obtained from a Feistel network over the next power of two
  by *cycle walking*.  This is exactly the "secret permutation" with which the
  Hacigumus bucketization scheme encrypts interval identifiers: each bucket
  index is deterministically mapped to another index under the secret key.
"""

from __future__ import annotations

from repro.crypto.errors import ParameterError
from repro.crypto.prf import Prf

#: Number of Feistel rounds.  Four rounds already give a strong PRP in the
#: Luby--Rackoff sense; we use eight for margin since performance is not a
#: bottleneck at reproduction scale.
DEFAULT_ROUNDS = 8


def _round_prfs(key: bytes, label: str, rounds: int) -> list[Prf]:
    """One independent round function per round, derived from ``key`` by label."""
    if rounds < 4:
        raise ParameterError("at least 4 Feistel rounds are required")
    return [Prf(key, label=f"{label}-round-{r}") for r in range(rounds)]


def _walks(plan: list[tuple], crossed: bool) -> tuple[tuple, tuple]:
    """The forward and the backward walk over one round plan.

    A plan entry is ``(evaluate, target, source_len, mask)``: the round XORs
    ``evaluate(prefix || source half)`` (a fixed-length PRF evaluator, its
    output cut to ``mask``) into half ``target``, the other half being the
    source.  The inverse permutation is the same rounds in reverse order.
    ``crossed`` says the network's output is ``(halves[1], halves[0])`` -- a
    classic Feistel network with an odd number of rounds, whose halves swap
    after every round -- so the backward walk reads its input crossed.
    """
    return (tuple(plan), False, crossed), (tuple(reversed(plan)), crossed, False)


def _feistel(walk: tuple, left: int, right: int, prefix: bytes = b"") -> list[int]:
    """The one Feistel loop: run ``walk`` over two halves held as integers."""
    rounds, crossed_in, crossed_out = walk
    halves = [right, left] if crossed_in else [left, right]
    for evaluate, target, source_len, mask in rounds:
        source = halves[1 - target].to_bytes(source_len, "big")
        halves[target] ^= int.from_bytes(evaluate(prefix + source), "big") & mask
    if crossed_out:
        halves.reverse()
    return halves


class _ByteFeistel:
    """A Feistel network over byte strings split at ``left_len``."""

    def __init__(
        self, block_len: int, left_len: int, plan: list[tuple], crossed: bool
    ) -> None:
        self._block_len = block_len
        self._left_len = left_len
        self._right_bits = 8 * (block_len - left_len)
        self._forward, self._backward = _walks(plan, crossed)

    @property
    def block_len(self) -> int:
        """Length in bytes of the strings this permutation acts on."""
        return self._block_len

    def permute(self, block: bytes, tweak: bytes = b"") -> bytes:
        """Apply the forward permutation."""
        return self._apply(self._forward, block, tweak)

    def invert(self, block: bytes, tweak: bytes = b"") -> bytes:
        """Apply the inverse permutation."""
        return self._apply(self._backward, block, tweak)

    def _apply(self, walk: tuple, block: bytes, tweak: bytes) -> bytes:
        if len(block) != self._block_len:
            raise ParameterError(
                f"block must be exactly {self._block_len} bytes, got {len(block)}"
            )
        left, right = _feistel(
            walk,
            int.from_bytes(block[: self._left_len], "big"),
            int.from_bytes(block[self._left_len:], "big"),
            tweak + b"|",
        )
        return (left << self._right_bits | right).to_bytes(self._block_len, "big")


def _byte_mask(length: int) -> int:
    return (1 << 8 * length) - 1



class FeistelPrp(_ByteFeistel):
    """Balanced Feistel permutation over byte strings of length ``block_len``.

    ``block_len`` must be even and at least 2.  Each round function is an
    independent PRF derived from the key and the round index, evaluated over
    the opposite half together with an optional *tweak* so the same key can
    safely permute several independent domains.
    """

    def __init__(self, key: bytes, block_len: int, rounds: int = DEFAULT_ROUNDS) -> None:
        if block_len < 2 or block_len % 2 != 0:
            raise ParameterError("block length must be an even number >= 2")
        half = block_len // 2
        # (L, R) -> (R, L xor F_i(R)): in place, round i masks half i mod 2.
        plan = [
            (prf.fixed(half), index % 2, half, _byte_mask(half))
            for index, prf in enumerate(_round_prfs(key, "feistel", rounds))
        ]
        super().__init__(block_len, half, plan, crossed=rounds % 2 == 1)


class UnbalancedFeistelPrp(_ByteFeistel):
    """Feistel permutation over byte strings of *any* length >= 2.

    For odd lengths a balanced Feistel is impossible, so the string is split
    into a left part of ``ceil(n/2)`` bytes and a right part of ``floor(n/2)``
    bytes and the rounds alternate which half is masked (an alternating
    unbalanced Feistel network).  This is the permutation used to
    pre-encrypt words in the Song--Wagner--Perrig scheme, whose word length
    (longest attribute value + attribute-id width) is rarely even.
    """

    def __init__(self, key: bytes, block_len: int, rounds: int = DEFAULT_ROUNDS) -> None:
        if block_len < 2:
            raise ParameterError("block length must be at least 2 bytes")
        lengths = ((block_len + 1) // 2, block_len // 2)
        prfs = _round_prfs(key, "ufeistel", rounds)
        plan = [
            (
                prf.fixed(lengths[index % 2]),
                index % 2,
                lengths[1 - index % 2],
                _byte_mask(lengths[index % 2]),
            )
            for index, prf in enumerate(prfs)
        ]
        # The rounds alternate their target and the halves never swap.
        super().__init__(block_len, lengths[0], plan, crossed=False)
        one_blocks = [prf.single_block(lengths[index % 2]) for index, prf in enumerate(prfs)]
        #: Each round's ``(hmac_block_key, suffix)`` when every round is one
        #: HMAC (halves of at most 32 bytes), for the native Feistel loop of
        #: ``swp_encrypt_words``; else ``None``.
        self.round_keys = (
            None if None in one_blocks
            else tuple((block_key, suffix) for _, _, suffix, block_key in one_blocks)
        )


class IntegerPrp:
    """A pseudorandom permutation of the integers ``{0, ..., domain_size - 1}``.

    Implemented as a balanced Feistel network over the smallest even number of
    *bits* that covers the domain, with cycle walking for values that land in
    the (at most 4x larger) enclosing power-of-two domain but outside the
    target domain.  The tight enclosing domain keeps the expected number of
    walk steps below four, which matters because the bucketization baseline
    evaluates this permutation once per attribute of every encrypted tuple.
    """

    def __init__(self, key: bytes, domain_size: int, rounds: int = DEFAULT_ROUNDS) -> None:
        if domain_size < 1:
            raise ParameterError("domain size must be at least 1")
        self._domain_size = domain_size
        bits = max(2, max(domain_size - 1, 1).bit_length())
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1
        # Each round hashes the 8-byte source half to 8 bytes, cut to the half width.
        plan = [
            (prf.fixed(8), index % 2, 8, self._half_mask)
            for index, prf in enumerate(_round_prfs(key, "intprp", rounds))
        ]
        self._forward, self._backward = _walks(plan, crossed=rounds % 2 == 1)

    @property
    def domain_size(self) -> int:
        """Number of elements in the permuted domain."""
        return self._domain_size

    def permute(self, value: int) -> int:
        """Map ``value`` to its image under the permutation."""
        return self._cycle_walk(self._forward, value)

    def invert(self, value: int) -> int:
        """Map ``value`` back to its preimage."""
        return self._cycle_walk(self._backward, value)

    def _cycle_walk(self, walk: tuple, value: int) -> int:
        if not 0 <= value < self._domain_size:
            raise ParameterError(
                f"value {value} outside permutation domain [0, {self._domain_size})"
            )
        if self._domain_size == 1:
            return 0
        while True:
            left, right = _feistel(
                walk, value >> self._half_bits & self._half_mask, value & self._half_mask
            )
            value = left << self._half_bits | right
            if value < self._domain_size:
                return value
