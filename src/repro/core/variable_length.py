"""Variable-length attribute optimization (full-version extension).

The poster fixes one global word length -- "the length of the longest
attribute value plus the length of an attribute identifier" -- which wastes
space when one attribute (say, ``name:string[40]``) is much wider than the
rest.  The full version of the paper mentions "a few straight-forward
optimizations such as attributes of variable length"; this module implements
that optimization:

* every attribute gets its **own** word width (its declared maximum plus the
  identifier width) and its **own** independently keyed searchable-encryption
  instance;
* a tuple's ``search_fields`` therefore contain one word ciphertext per
  attribute, each as short as that attribute allows;
* an encrypted query carries the attribute position alongside the trapdoor so
  the keyless evaluator knows which field (and which public word length) to
  test.

Security is unchanged: each per-attribute scheme is the same SWP construction
over a fixed-width domain, and the attribute position of a query token was
already public in the fixed-width construction (the token length reveals it).
The gain is purely storage/throughput and is quantified by the ablation
benchmark ``benchmarks/bench_a1_variable_length.py``.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Sequence

from repro.core.construction import compile_swp_token
from repro.core.dph import (
    DphError,
    EncryptedQuery,
    EncryptedTuple,
    SealedPayloadDph,
    ServerEvaluator,
    TupleFilter,
)
from repro.crypto.keys import KeyHierarchy, SecretKey
from repro.crypto.rng import RandomSource, SystemRng
from repro.crypto.symmetric import SymmetricCipher
from repro.relational.encoding import TupleCodec, ValueCodec
from repro.relational.query import Query, selection_predicates
from repro.relational.schema import RelationSchema
from repro.relational.tuples import RelationTuple
from repro.searchable.swp import DEFAULT_CHECK_LEN, SwpScheme
from repro.searchable.words import WordCodec

#: Wire name of the variable-width construction.
VARIABLE_BACKEND = "dph-swp-variable"


class VariableWidthSelectDph(SealedPayloadDph):
    """Exact-select database PH with per-attribute word widths.

    Parameters mirror :class:`repro.core.construction.SearchableSelectDph`;
    the searchable backend is SWP (the optimization is about word layout, not
    about the index structure).
    """

    def __init__(
        self,
        schema: RelationSchema,
        secret_key: SecretKey | bytes,
        check_length: int = DEFAULT_CHECK_LEN,
        attribute_id_width: int = 1,
        rng: RandomSource | None = None,
    ) -> None:
        if isinstance(secret_key, (bytes, bytearray)):
            secret_key = SecretKey(bytes(secret_key))
        if attribute_id_width != 1:
            raise DphError("attribute identifiers are one character wide in this construction")
        self._schema = schema
        self._keys = KeyHierarchy(secret_key)
        self._rng = rng if rng is not None else SystemRng()
        self._check_length = check_length
        self._tuple_codec = TupleCodec(schema)
        self._payload_cipher = SymmetricCipher(self._keys.get("vdph/payload"), rng=self._rng)

        self._identifiers = tuple(a.identifier.encode("ascii") for a in schema.attributes)
        self._codecs: list[WordCodec] = []
        self._schemes: list[SwpScheme] = []
        for attribute in schema.attributes:
            codec = WordCodec(attribute.max_length, attribute_id_width)
            # The check value must leave at least one stream byte per word.
            effective_check = min(check_length, codec.word_length - 1)
            scheme = SwpScheme(
                self._keys.get(f"vdph/searchable/{attribute.name}"),
                word_length=codec.word_length,
                check_length=effective_check,
                rng=self._rng,
            )
            self._codecs.append(codec)
            self._schemes.append(scheme)

    # ------------------------------------------------------------------ #
    # DatabasePrivacyHomomorphism interface
    # ------------------------------------------------------------------ #

    @property
    def name(self) -> str:
        """Scheme identifier."""
        return VARIABLE_BACKEND

    @property
    def schema(self) -> RelationSchema:
        """The outsourced relation's schema."""
        return self._schema

    def word_length_of(self, attribute_name: str) -> int:
        """The per-attribute word length (value width + identifier width)."""
        index = self._schema.position(attribute_name)
        return self._codecs[index].word_length

    def _searchable(self, relation_tuple: RelationTuple, encoded_values: list[bytes]):
        """The row's word per attribute, each in that attribute's width."""
        return [
            codec.encode_bytes(identifier, value_bytes)
            for codec, identifier, value_bytes in zip(
                self._codecs, self._identifiers, encoded_values
            )
        ]

    def _search_fields(self, searchable, draws):
        """One batch per attribute scheme, every word under its row's tuple id.

        All per-attribute words share the tuple's single random nonce; this is
        safe because each attribute's scheme is independently keyed, and it
        keeps the per-tuple overhead at one nonce regardless of arity.
        """
        tuple_ids = [row[0] for row in draws]
        columns = [
            [
                words[0]
                for words in scheme.seal_documents(
                    [[words[index]] for words in searchable], tuple_ids
                )
            ]
            for index, scheme in enumerate(self._schemes)
        ]
        return [(fields, b"") for fields in zip(*columns)]

    def encrypt_query(self, query: Query) -> EncryptedQuery:
        """``Eq``: a position-tagged trapdoor per predicate, under that attribute's scheme."""
        tokens = []
        for predicate in selection_predicates(query):
            index = self._schema.position(predicate.attribute)
            value_bytes = ValueCodec.encode(self._schema.attributes[index], predicate.value)
            word = self._codecs[index].encode_bytes(self._identifiers[index], value_bytes)
            trapdoor = self._schemes[index].trapdoor(word)
            tokens.append(index.to_bytes(2, "big") + trapdoor.to_bytes())
        return EncryptedQuery(scheme_name=VARIABLE_BACKEND, tokens=tuple(tokens))

    def server_evaluator(self) -> "VariableWidthServerEvaluator":
        """The keyless evaluator (public per-attribute word/check lengths only)."""
        parameters = tuple(
            (codec.word_length, scheme.check_length)
            for codec, scheme in zip(self._codecs, self._schemes)
        )
        return VariableWidthServerEvaluator(parameters)


class VariableWidthServerEvaluator(ServerEvaluator):
    """Keyless evaluation of position-tagged SWP trapdoors over per-attribute fields."""

    def __init__(self, attribute_parameters: tuple[tuple[int, int], ...]) -> None:
        if not attribute_parameters:
            raise DphError("at least one attribute parameter pair is required")
        self._parameters = attribute_parameters

    @property
    def scheme_name(self) -> str:
        """Identifier matched against :attr:`EncryptedQuery.scheme_name`."""
        return VARIABLE_BACKEND

    def describe(self) -> dict:
        """Public parameters for remote deployment (no key material)."""
        return {
            "type": "variable-width",
            "attribute_parameters": [list(pair) for pair in self._parameters],
        }

    def compile_token(self, raw: bytes) -> TupleFilter:
        """The SWP check of the one field at the token's attribute position."""
        if len(raw) < 2:
            raise DphError("malformed variable-width query token")
        index = int.from_bytes(raw[:2], "big")
        if index >= len(self._parameters):
            raise DphError(f"token refers to unknown attribute position {index}")
        matcher = compile_swp_token(raw[2:], *self._parameters[index])
        # A tuple with no field at ``index`` has no word to test.
        field_at = itemgetter(slice(index, index + 1))
        fields = attrgetter("search_fields")

        def keep(tuples: Sequence[EncryptedTuple]) -> list[EncryptedTuple]:
            return matcher.select(tuples, map(field_at, map(fields, tuples)))

        return keep
