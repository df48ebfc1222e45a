"""The batched ``E`` against verbatim copies of the per-tuple ``encrypt_tuple`` it replaced.

``SealedPayloadDph.encrypt_tuples`` encodes and validates every row, draws each
row's tuple id (and, for the secure index, its word payload's nonce) and then
its payload nonce, row by row, and seals the batch in one ``seal_payloads``
call and one ``swp_encrypt_words`` call per searchable scheme.  The reference
below is the tuple-at-a-time code of the construction, the variable-width
variant and the field-match baselines, copied unchanged but for ``self``.

For the three constructions and every registered scheme, over Hypothesis-drawn
relations whose values repeat within a row (the same text in two attributes)
and across rows, a seeded ``encrypt_relation`` must equal the reference's
tuples, and ``encrypt_tuple`` per row under the same seed; for the SWP
constructions it must also equal the Python path's bytes.  Each test runs
once per path (the ``match_kernel`` fixture).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.core.dph import EncryptedTuple
from repro.core.variable_length import VariableWidthSelectDph
from repro.crypto.rng import DeterministicRng
from repro.relational import Relation, RelationSchema
from repro.schemes.base import FieldMatchDph
from repro.schemes.registry import available_schemes, create

pytestmark = pytest.mark.usefixtures("match_kernel")

KEY = bytes(range(32))
SCHEMA = RelationSchema.parse("Emp(name:string[6], dept:string[4], salary:int[4])")
#: ``HR`` is a name and a department; every value repeats across rows.
POOL = {"name": ("HR", "ann", "bob"), "dept": ("HR", "IT"), "salary": (1, 20, 7500)}
#: The registry's schemes (``swp`` and ``index`` are the construction's two
#: backends) and the variable-width construction.
KINDS = (*available_schemes(), "variable")
CONSTRUCTIONS = ("swp", "index", "variable")


# --------------------------------------------------------------------------- #
# The reference: the per-tuple encrypt_tuple, copied unchanged
# --------------------------------------------------------------------------- #


def searchable_encrypt_tuple(self, relation_tuple):
    self._tuple_codec.check_schema(relation_tuple)
    encoded = self._tuple_codec.encode_values(relation_tuple)
    document = self._scheme.encrypt_document(self._tuple_to_words(encoded))
    payload = self._payload_cipher.encrypt_bytes(
        self._tuple_codec.frame(encoded), associated_data=document.document_id
    )
    return EncryptedTuple(
        tuple_id=document.document_id,
        payload=payload,
        search_fields=document.encrypted_words,
        metadata=document.index,
    )


def variable_encrypt_tuple(self, relation_tuple):
    self._tuple_codec.check_schema(relation_tuple)
    encoded = self._tuple_codec.encode_values(relation_tuple)
    tuple_id = self._rng.bytes(16)
    fields = []
    for index, value_bytes in enumerate(encoded):
        word = self._codecs[index].encode_bytes(self._identifiers[index], value_bytes)
        document = self._schemes[index].encrypt_document([word], document_id=tuple_id)
        fields.append(document.encrypted_words[0])
    payload = self._payload_cipher.encrypt_bytes(
        self._tuple_codec.frame(encoded), associated_data=tuple_id
    )
    return EncryptedTuple(
        tuple_id=tuple_id,
        payload=payload,
        search_fields=tuple(fields),
    )


def field_match_encrypt_tuple(self, relation_tuple):
    serialized = self._tuple_codec.encode(relation_tuple)
    tuple_id = self._rng.bytes(16)
    if self._payload_cipher is not None:
        payload = self._payload_cipher.encrypt_bytes(serialized, associated_data=tuple_id)
    else:
        payload = serialized
    fields = tuple(
        self._search_field(attribute, relation_tuple.value(attribute.name))
        for attribute in self._schema.attributes
    )
    return EncryptedTuple(tuple_id=tuple_id, payload=payload, search_fields=fields)


def reference_encrypt(dph, relation):
    if isinstance(dph, VariableWidthSelectDph):
        encrypt_tuple = variable_encrypt_tuple
    elif isinstance(dph, FieldMatchDph):
        encrypt_tuple = field_match_encrypt_tuple
    else:
        encrypt_tuple = searchable_encrypt_tuple
    return tuple(encrypt_tuple(dph, t) for t in relation)


def make(kind, seed):
    rng = DeterministicRng(seed)
    if kind == "variable":
        return VariableWidthSelectDph(SCHEMA, KEY, rng=rng)
    return create(kind, SCHEMA, KEY, rng=rng)


rows = st.lists(
    st.tuples(*(st.sampled_from(POOL[name]) for name in SCHEMA.attribute_names)),
    max_size=12,
)


@pytest.mark.parametrize("kind", KINDS)
@given(table=rows, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_the_batch_equals_the_per_tuple_reference(kind, table, seed):
    relation = Relation.from_rows(SCHEMA, table)
    batch = make(kind, seed).encrypt_relation(relation)
    assert batch.encrypted_tuples == reference_encrypt(make(kind, seed), relation)
    per_row = make(kind, seed)
    assert batch.encrypted_tuples == tuple(map(per_row.encrypt_tuple, relation))


@pytest.mark.parametrize("kind", CONSTRUCTIONS)
@given(table=rows, seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=25, deadline=None)
def test_the_batch_equals_the_python_path(kind, table, seed):
    relation = Relation.from_rows(SCHEMA, table)
    batch = make(kind, seed).encrypt_relation(relation)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "kernel", None)
        assert batch == make(kind, seed).encrypt_relation(relation)
    # And it decrypts to the relation it encrypted.
    assert make(kind, seed).decrypt_relation(batch) == relation
