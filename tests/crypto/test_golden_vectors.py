"""Golden vectors: the kernel and result-path rewrites are pure speed.

Every constant in ``GOLDEN`` was produced by ``compute_vectors()`` on the
commit *before* the rewrite that touches it: the ``prf`` / ``ufeistel`` /
``swp`` / ``dph`` / ``vdph`` vectors before the match-kernel rewrite (PR 11,
6771732), the ``hmac`` / ``keystream`` / ``symmetric`` / ``tuple_codec`` /
``wire`` vectors before the result-path rewrite (PR 12, 360279c).
Ciphertexts, trapdoors and wire bytes must stay bit-for-bit identical, so any
optimisation of ``Prf`` / ``Hmac`` / ``SymmetricCipher`` / ``xor_bytes`` / the
SWP code / the tuple and wire codecs that moves one of them fails here.

Regenerate (only when a format change is intended) with::

    PYTHONPATH=src python tests/crypto/test_golden_vectors.py
"""

from __future__ import annotations

import pytest

from repro.core.construction import SearchableSelectDph
from repro.core.dph import EvaluationResult
from repro.core.variable_length import VariableWidthSelectDph
from repro.crypto.mac import Hmac
from repro.crypto.prf import Prf
from repro.crypto.prg import keystream
from repro.crypto.prp import UnbalancedFeistelPrp
from repro.crypto.rng import DeterministicRng
from repro.crypto.symmetric import SymmetricCipher
from repro.outsourcing import protocol
from repro.relational import Relation, RelationSchema
from repro.relational.encoding import TupleCodec
from repro.relational.query import ConjunctiveSelection, Selection
from repro.relational.tuples import RelationTuple
from repro.searchable.swp import SwpScheme
from repro.searchable.words import Word

KEY = bytes(range(32))
MESSAGE = b"golden message"
PRF_LENGTHS = (1, 6, 32, 33, 64, 100)
SCHEMA = "Emp(name:string[14], dept:string[5], salary:int[6])"
SWP_WORDS = (b"MontgomeryN", b"HR########D", b"7500######S")
HMAC_KEY_LENGTHS = (16, 32, 64, 65, 200)
KEYSTREAM_LENGTHS = (0, 1, 32, 33, 100)
NONCE = bytes(range(0x80, 0x90))
ASSOCIATED_DATA = b"golden tuple id"
ROWS = (("Montgomery", "HR", 7500), ("Smith", "IT", 4200), ("Garcia", "HR", 0))


def compute_vectors() -> dict[str, str]:
    """Every pinned output, as hex, keyed by a stable name."""
    vectors: dict[str, str] = {}
    for label in (b"", b"golden"):
        prf = Prf(KEY, label=label)
        tag = "label" if label else "nolabel"
        for out_len in PRF_LENGTHS:
            vectors[f"prf/{tag}/{out_len}"] = prf.evaluate(MESSAGE, out_len).hex()

    for block_len in (11, 12):
        prp = UnbalancedFeistelPrp(KEY, block_len)
        block = bytes(range(0x40, 0x40 + block_len))
        vectors[f"ufeistel/{block_len}"] = prp.permute(block).hex()
        vectors[f"ufeistel/{block_len}/tweak"] = prp.permute(block, tweak=b"tw").hex()

    swp = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(7))
    document = swp.encrypt_document([Word(w) for w in SWP_WORDS])
    vectors["swp/document_id"] = document.document_id.hex()
    for position, ciphertext in enumerate(document.encrypted_words):
        vectors[f"swp/word/{position}"] = ciphertext.hex()
    vectors["swp/trapdoor"] = swp.trapdoor(Word(SWP_WORDS[1])).to_bytes().hex()

    schema = RelationSchema.parse(SCHEMA)
    row = RelationTuple(schema, {"name": "Montgomery", "dept": "HR", "salary": 7500})
    point = Selection.equals("name", "Montgomery")
    conjunction = ConjunctiveSelection.of(("dept", "HR"), ("salary", 7500))
    fixed = SearchableSelectDph(schema, KEY, backend="swp", rng=DeterministicRng(7))
    variable = VariableWidthSelectDph(schema, KEY, rng=DeterministicRng(7))
    for tag, dph in (("dph", fixed), ("vdph", variable)):
        vectors[f"{tag}/tuple"] = protocol.encode_encrypted_tuple(
            dph.encrypt_tuple(row)
        ).hex()
        vectors[f"{tag}/query/point"] = protocol.encode_encrypted_query(
            dph.encrypt_query(point)
        ).hex()
        vectors[f"{tag}/query/conjunction"] = protocol.encode_encrypted_query(
            dph.encrypt_query(conjunction)
        ).hex()

    for key_len in HMAC_KEY_LENGTHS:
        vectors[f"hmac/{key_len}"] = Hmac(bytes(range(key_len))).tag(MESSAGE).hex()
    for tag, nonce in (("nononce", b""), ("nonce", NONCE)):
        for length in KEYSTREAM_LENGTHS:
            vectors[f"keystream/{tag}/{length}"] = keystream(KEY, length, nonce=nonce).hex()
    cipher = SymmetricCipher(KEY, rng=DeterministicRng(7))
    vectors["symmetric/plain"] = cipher.encrypt_bytes(MESSAGE).hex()
    vectors["symmetric/associated"] = cipher.encrypt_bytes(
        MESSAGE, associated_data=ASSOCIATED_DATA
    ).hex()
    vectors["tuple_codec"] = TupleCodec(schema).encode(row).hex()
    three = SearchableSelectDph(
        schema, KEY, backend="swp", rng=DeterministicRng(11)
    ).encrypt_relation(Relation.from_rows(schema, ROWS))
    vectors["wire/relation"] = protocol.encode_encrypted_relation(three).hex()
    vectors["wire/evaluation_result"] = protocol.encode_evaluation_result(
        EvaluationResult(matching=three, examined=5, token_evaluations=7)
    ).hex()
    return vectors


GOLDEN: dict[str, str] = {
    "prf/nolabel/1": (
        "1d"
    ),
    "prf/nolabel/6": (
        "79f67b7a7085"
    ),
    "prf/nolabel/32": (
        "169c7602435efd36924767845f844a400af6431156925e83e6ec665a54db48e9"
    ),
    "prf/nolabel/33": (
        "ecb039344d6d8769ccb9e495285f3bfd2a7fc94c4544f31ebfd814ef8d44457e"
        "1e"
    ),
    "prf/nolabel/64": (
        "81297d9c4aa65a44ba2dab791b22906c656de6fcd6a9b54d9a3a063d8c18ab57"
        "5428950cba006afd61dd805aa31164f6909579eb80bfa193996e07f283e63a75"
    ),
    "prf/nolabel/100": (
        "d3a56827071caf475565160170ed2e53e72fe679d6b2de0b372a663698c3152f"
        "fde4c3a37ed9e537cc15c6dbedaafef2b55b42e2a156f2b83d2f88a22add1f41"
        "69cc3789dd90e4b37cd0d10eb206d01292c0320312c7d0ec0ef581892943488e"
        "b58784fe"
    ),
    "prf/label/1": (
        "13"
    ),
    "prf/label/6": (
        "d13cd2fadc20"
    ),
    "prf/label/32": (
        "5c545d9fa496ba0506f944467897874d9e78ddd7c0b8f315d1660f01431db1d4"
    ),
    "prf/label/33": (
        "adae502ed182223206a27bb10e1b2a8ad3ca196bd488417f8011b4fee5ecc208"
        "f4"
    ),
    "prf/label/64": (
        "a1ac670a169118f5befa147e438c43744c086bfef19dd3ef3bbbe8074737a602"
        "671f1f2d02749fc99ec9cfbdfa0d86a1be618fe43c69b25849f8317028f5d9dd"
    ),
    "prf/label/100": (
        "1a12da80ed1671c6449248a5ee4171eebe15fc8b08bc51bfe176342444ad0249"
        "9b81b5bba929242441cff292cd1f1ba1edc4376b0f1b094d08ff944dcc05e592"
        "76b1fd4d1da5e8f6106901d758bd7b6e2b7a7af9e3ae51cf1af99288214d06ea"
        "f2f36d2e"
    ),
    "ufeistel/11": (
        "79b591b75439b247c31e6a"
    ),
    "ufeistel/11/tweak": (
        "7f2713a27ad8eca831c874"
    ),
    "ufeistel/12": (
        "44b88722f9a16bea399faa42"
    ),
    "ufeistel/12/tweak": (
        "6ee32f5d8f11ad27dded0aab"
    ),
    "swp/document_id": (
        "00a92c9973574965a62ce69db5d9b78b"
    ),
    "swp/word/0": (
        "ab84a01f871a935fe6f5a1"
    ),
    "swp/word/1": (
        "c3b8f8afff9e67d348a3af"
    ),
    "swp/word/2": (
        "a6dc60226e4fbb4ce2fc90"
    ),
    "swp/trapdoor": (
        "000bb8fada8b1b01835c01c8476b9fe904f76a81c630bd937f760a887dd65eeb"
        "5aaf872b59d35d657a65a17bc1"
    ),
    "dph/tuple": (
        "0000001000a92c9973574965a62ce69db5d9b78b00000046e7d472a691d538bf"
        "4a49a1f3120c27ec2b461619af489888964d75d53dd671cdb3ba49da83972259"
        "6fffce20d62da517d99646378cf7d56b36781b77c9fd0d3dd531868322590000"
        "00030000000f4964f237ce17cd881a8df6d705ec9b0000000f0b8cf8c913339b"
        "d00996a0704758200000000f753feaf5856c3eb2513e1b42a7e4ca00000000"
    ),
    "dph/query/point": (
        "000000076470682d7377700000000100000031000fbf0fa568cfd9aa8330fa6f"
        "37e17a0b9e5ee646957d4341e3a39597c4c5b213ac699c1c85011dd31ff6aa9f"
        "0e823a3f00000000"
    ),
    "dph/query/conjunction": (
        "000000076470682d7377700000000200000031000f640ee288a4652008e76ebe"
        "fa3939e6de94f5674d8185fd7e1f1ebf5ce37ea477a26066869df4f76db14782"
        "5e2da7b800000031000f0eca862bba3e1dd5eed8ca3b9fcddac9d64a941a05a1"
        "e2a19519a52af706d28b6ffbc80fd4f7bb8f49b8b3e36a501f00000000"
    ),
    "vdph/tuple": (
        "0000001000a92c9973574965a62ce69db5d9b78b00000046e7d472a691d538bf"
        "4a49a1f3120c27ec96355c5fa7317fcfc879a0645260e0749e8f4816f3fe126a"
        "d45f2de45c5c2a155f4d1ae21594034c8778975a91ba7a429166b148e8c00000"
        "00030000000fd6036c4df6df821dfa19769fb22e9a0000000696f1c0a51d7200"
        "0000075fdbe073352dae00000000"
    ),
    "vdph/query/point": (
        "000000106470682d7377702d7661726961626c6500000001000000330000000f"
        "1d2ee4fc218c0d07c7167a0f8319b7d6e6accbe7b58c4785885e7cd95ba5ab4b"
        "6511b3c4b2348be6da270e4464980a00000000"
    ),
    "vdph/query/conjunction": (
        "000000106470682d7377702d7661726961626c65000000020000002a00010006"
        "6d5bb86c4877a36074fabe4b4b86d57b97507973a725a7e8380f1c42159c4b46"
        "775c1e0cba500000002b0002000739f1aafff8fdb995826e222e90949e3e8303"
        "61447573ae1d00f96090ed1a4aaa88bb9da434d91500000000"
    ),
    "hmac/16": (
        "8f1e7f058a8cc6d9e3d0159d63cacbd5107d792e3daf5b06056f6c614be13d80"
    ),
    "hmac/32": (
        "521566c132d7f285d40b5e9df8dbdc2ea5f1575e221c500c0f5a2f966e3c11ef"
    ),
    "hmac/64": (
        "e705239b75cc9ebe0bbbd18fbf305e464504b389832473ef122101a8c2964672"
    ),
    "hmac/65": (
        "215933007425ec6b2c524c245c75751289d13f4073cffe2d118da60532496df9"
    ),
    "hmac/200": (
        "247a8e3b1cc78cde4a06ff0d97dcda16f20e27fd26584d95076e9c68d4e6bef6"
    ),
    "keystream/nononce/0": (
        ""
    ),
    "keystream/nononce/1": (
        "04"
    ),
    "keystream/nononce/32": (
        "046ea52bf00351aa0d07204c12739ca13fab94b292fec5cf1a0089d8638d0b22"
    ),
    "keystream/nononce/33": (
        "046ea52bf00351aa0d07204c12739ca13fab94b292fec5cf1a0089d8638d0b22"
        "6f"
    ),
    "keystream/nononce/100": (
        "046ea52bf00351aa0d07204c12739ca13fab94b292fec5cf1a0089d8638d0b22"
        "6f92a5f01dac1216e1269048e916b8c453ce6ccd77dfed58552b419d2b99d738"
        "fc38fdf6ba55b8abb190a0343ecc4d155f075afe8eaac546ccfd76f68d230e34"
        "e409532d"
    ),
    "keystream/nonce/0": (
        ""
    ),
    "keystream/nonce/1": (
        "29"
    ),
    "keystream/nonce/32": (
        "29d4f93da23d87d321342e844e6e8b22563ca1d53e12dbecce98d0b9a3f48c3b"
    ),
    "keystream/nonce/33": (
        "29d4f93da23d87d321342e844e6e8b22563ca1d53e12dbecce98d0b9a3f48c3b"
        "51"
    ),
    "keystream/nonce/100": (
        "29d4f93da23d87d321342e844e6e8b22563ca1d53e12dbecce98d0b9a3f48c3b"
        "514014529b0715a8d0030c22254c8f50538160f952ebc4525fc1601ea0444410"
        "bb53f54801ee84f7755cefa71c806b2c8136744b3b39c6ea5401f51f92e2ee82"
        "244f0f35"
    ),
    "symmetric/plain": (
        "00a92c9973574965a62ce69db5d9b78ba966f12a1c3f5068ff3992feb0ab3165"
        "93555c0d9f2006ae8a62b33d3a173dcd3fb6b92e9227d21b16026e1b147d"
    ),
    "symmetric/associated": (
        "e7d472a691d538bf4a49a1f3120c27ec5386684de1c428bcc7de0b369948e880"
        "82e01f4870dd650b27c3b964783501cbb6f281156f8fda4daaa411fd59f5"
    ),
    "tuple_codec": (
        "000a4d6f6e74676f6d65727900024852000437353030"
    ),
    "wire/relation": (
        "00000033456d70286e616d653a737472696e675b31345d2c20646570743a7374"
        "72696e675b355d2c2073616c6172793a696e745b365d29000000030000009f00"
        "000010819f4c4d7f12c39ae2b131fcf75329fe00000046a4c075dc49e05c270b"
        "1713aa2e9e01e6bdf9ec5246d05be1c1d41f8e655a6e2b2542b257f31ec56ab8"
        "01576754515a2390ea3008bff89de1f73f5234240be64bc9e76f0123c0000000"
        "030000000f121b325e776d253354ea0a11b79cbd0000000facf5b867c40bebfc"
        "4eda2ccaa5e6b50000000f5109a90c42a26c7028744bdedda18e000000000000"
        "009a0000001005500c2eb27fe40f19284cfcda52caa60000004195aa7767cec5"
        "e09d2139e9cb6768b2b9c0483470a59ea189891ad4d8b28e81438dfecf8b07b9"
        "4649a9f7e8440dbd43ff2d093db2c1b4391f40ab9b40c098b36ff40000000300"
        "00000fc86541e66db4f1bf523d26ed151af20000000f7451fcd3a5e3e47f767d"
        "9a7dd9397e0000000f0e051e0dc78a27f96e49417b41723a0000000000000098"
        "000000102dc7e53f9838f9d2d7202c23f63d82ca0000003fa9f00f25a783af47"
        "b6e134aa18cb0b1d4950f65d708e8bfcf170abaf3056a8166d45d8c56ba46c29"
        "20bbd5a7e94aba07586b9fba39a991d28d0f3d05342e32000000030000000f9d"
        "0e5b74798b4e2e7d3221f24e2c320000000f3f438dec6f55e906e74ddf37ff75"
        "7e0000000f9a560670a749bb24013be0f0bc756a00000000"
    ),
    "wire/evaluation_result": (
        "0000021800000033456d70286e616d653a737472696e675b31345d2c20646570"
        "743a737472696e675b355d2c2073616c6172793a696e745b365d290000000300"
        "00009f00000010819f4c4d7f12c39ae2b131fcf75329fe00000046a4c075dc49"
        "e05c270b1713aa2e9e01e6bdf9ec5246d05be1c1d41f8e655a6e2b2542b257f3"
        "1ec56ab801576754515a2390ea3008bff89de1f73f5234240be64bc9e76f0123"
        "c0000000030000000f121b325e776d253354ea0a11b79cbd0000000facf5b867"
        "c40bebfc4eda2ccaa5e6b50000000f5109a90c42a26c7028744bdedda18e0000"
        "00000000009a0000001005500c2eb27fe40f19284cfcda52caa60000004195aa"
        "7767cec5e09d2139e9cb6768b2b9c0483470a59ea189891ad4d8b28e81438dfe"
        "cf8b07b94649a9f7e8440dbd43ff2d093db2c1b4391f40ab9b40c098b36ff400"
        "0000030000000fc86541e66db4f1bf523d26ed151af20000000f7451fcd3a5e3"
        "e47f767d9a7dd9397e0000000f0e051e0dc78a27f96e49417b41723a00000000"
        "00000098000000102dc7e53f9838f9d2d7202c23f63d82ca0000003fa9f00f25"
        "a783af47b6e134aa18cb0b1d4950f65d708e8bfcf170abaf3056a8166d45d8c5"
        "6ba46c2920bbd5a7e94aba07586b9fba39a991d28d0f3d05342e320000000300"
        "00000f9d0e5b74798b4e2e7d3221f24e2c320000000f3f438dec6f55e906e74d"
        "df37ff757e0000000f9a560670a749bb24013be0f0bc756a0000000000000000"
        "000000050000000000000007"
    ),
}


@pytest.fixture(scope="module")
def vectors():
    return compute_vectors()


def test_every_vector_is_pinned(vectors):
    assert sorted(vectors) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vector(vectors, name):
    assert vectors[name] == GOLDEN[name]


def test_parent_ciphertexts_still_open():
    """Bytes the parent commit produced decrypt and decode to what went in."""
    cipher = SymmetricCipher(KEY)
    plain = bytes.fromhex(GOLDEN["symmetric/plain"])
    associated = bytes.fromhex(GOLDEN["symmetric/associated"])
    assert cipher.decrypt_bytes(plain) == MESSAGE
    assert cipher.decrypt_bytes(associated, associated_data=ASSOCIATED_DATA) == MESSAGE

    schema = RelationSchema.parse(SCHEMA)
    dph = SearchableSelectDph(schema, KEY, backend="swp")
    result, consumed = protocol.decode_evaluation_result(
        bytes.fromhex(GOLDEN["wire/evaluation_result"])
    )
    assert consumed == len(GOLDEN["wire/evaluation_result"]) // 2
    assert (result.examined, result.token_evaluations) == (5, 7)
    assert result.matching == protocol.decode_encrypted_relation(
        bytes.fromhex(GOLDEN["wire/relation"])
    )
    assert dph.decrypt_result(result).relation == Relation.from_rows(schema, ROWS)
    assert TupleCodec(schema).decode(bytes.fromhex(GOLDEN["tuple_codec"])).project(
        ["name", "dept", "salary"]
    ) == ROWS[0]


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for vector_name, value in compute_vectors().items():
        print(f'    "{vector_name}": (')
        for start in range(0, max(len(value), 1), 64):
            print(f'        "{value[start: start + 64]}"')
        print("    ),")
    print("}")
