"""Cryptographic substrate for the reproduction.

The paper builds its database privacy homomorphism on top of generic
symmetric primitives ("a secure cipher", a searchable encryption scheme,
pseudorandom functions).  This package provides those primitives from
scratch, on top of :mod:`hashlib` / :mod:`hmac` only:

* :mod:`repro.crypto.prf` -- pseudorandom functions (HMAC-SHA256 based) with
  arbitrary output length.
* :mod:`repro.crypto.prg` -- a pseudorandom generator / keystream producer.
* :mod:`repro.crypto.prp` -- pseudorandom permutations: a byte-string Feistel
  network and a small-domain integer permutation (cycle walking), used e.g.
  for the secret bucket permutation of the Hacigumus scheme.
* :mod:`repro.crypto.symmetric` -- a randomized, authenticated symmetric
  encryption scheme (CTR + encrypt-then-MAC), the "secure cipher" used to
  protect tuple payloads.
* :mod:`repro.crypto.mac` -- message authentication codes.
* :mod:`repro.crypto.kdf` -- HKDF-style key derivation, used to derive
  independent sub-keys from a single master key.
* :mod:`repro.crypto.padding` -- the fixed-width ``'#'`` padding used by the
  paper for attribute values.
* :mod:`repro.crypto.keys` -- key generation and hierarchical key management.
* :mod:`repro.crypto.rng` -- deterministic (seedable) and system randomness
  sources.

All primitives are deterministic given their key/nonce inputs, which makes the
security games in :mod:`repro.security` reproducible under a seeded RNG.
"""

from repro.crypto.errors import (
    CryptoError,
    DecryptionError,
    IntegrityError,
    KeyError_,
    PaddingError,
)
from repro.crypto.kdf import hkdf_expand, hkdf_extract, derive_key
from repro.crypto.keys import KeyHierarchy, SecretKey, generate_key
from repro.crypto.mac import Hmac, verify_mac
from repro.crypto.padding import hash_pad, hash_unpad
from repro.crypto.prf import Prf
from repro.crypto.prg import Prg, keystream
from repro.crypto.prp import FeistelPrp, IntegerPrp, UnbalancedFeistelPrp
from repro.crypto.rng import DeterministicRng, SystemRng, RandomSource
from repro.crypto.symmetric import SymmetricCipher, SymmetricCiphertext

__all__ = [
    "CryptoError",
    "DecryptionError",
    "IntegrityError",
    "KeyError_",
    "PaddingError",
    "hkdf_expand",
    "hkdf_extract",
    "derive_key",
    "KeyHierarchy",
    "SecretKey",
    "generate_key",
    "Hmac",
    "verify_mac",
    "hash_pad",
    "hash_unpad",
    "Prf",
    "Prg",
    "keystream",
    "FeistelPrp",
    "IntegerPrp",
    "UnbalancedFeistelPrp",
    "DeterministicRng",
    "SystemRng",
    "RandomSource",
    "SymmetricCipher",
    "SymmetricCiphertext",
]
