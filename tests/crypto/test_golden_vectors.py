"""Golden vectors: the kernel, result-path and encrypt-path rewrites are pure speed.

Every constant in ``GOLDEN`` was produced by ``compute_vectors()`` on the
commit *before* the rewrite that touches it: the ``prf`` / ``ufeistel`` /
``swp`` / ``dph`` / ``vdph`` vectors before the match-kernel rewrite (PR 11,
6771732), the ``hmac`` / ``keystream`` / ``symmetric`` / ``tuple_codec`` /
``wire`` vectors before the result-path rewrite (PR 12, 360279c), the
``feistel`` / ``intprp`` / ``ufeistel/67`` / ``ufeistel/80`` / ``swp34`` /
``swp/repeat`` / ``swp/decrypt`` / ``repeat`` / ``index`` vectors before the
encrypt-path rewrite (PR 14, 2329cc0).
``index/snapshot``, ``index/insert_delta`` and ``index/rng_after`` were
re-pinned when the index became its postings: a snapshot is the rows'
``(label, tuple_id)`` pairs and draws nothing from the shared rng, so the
id drawn after it moved.
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
from repro.crypto.prp import FeistelPrp, IntegerPrp, UnbalancedFeistelPrp
from repro.crypto.rng import DeterministicRng
from repro.crypto.symmetric import SymmetricCipher
from repro.index import TableIndexer
from repro.index.wire import encode_index_delta, encode_index_snapshot
from repro.outsourcing import protocol
from repro.relational import Relation, RelationSchema
from repro.relational.encoding import TupleCodec
from repro.relational.query import ConjunctiveSelection, Selection
from repro.relational.tuples import RelationTuple
from repro.searchable.interfaces import EncryptedDocument
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
#: ``dept`` and ``salary`` repeat across tuples: the second and third rows take
#: their ``(X, k)`` from the scheme's memo, as does the query encrypted after.
REPEAT_ROWS = (("Montgomery", "HR", 7500), ("Smith", "HR", 7500), ("Garcia", "HR", 7500))
#: ``(w, m)`` whose left part, check value and Feistel halves outgrow one digest.
WIDE_SWP = ((34, 1), (34, 33))


def _block(length: int) -> bytes:
    return bytes((0x40 + i) % 256 for i in range(length))


def _encrypt_path_vectors() -> dict[str, str]:
    """What the encrypt-path rewrite touches and the older vectors do not pin."""
    vectors: dict[str, str] = {}
    for block_len, rounds in ((2, 8), (16, 8), (16, 5), (80, 8)):
        prp = FeistelPrp(KEY, block_len, rounds=rounds)
        tag = f"feistel/{block_len}/r{rounds}"
        vectors[tag] = prp.permute(_block(block_len)).hex()
        vectors[f"{tag}/tweak"] = prp.permute(_block(block_len), tweak=b"tw").hex()
        vectors[f"{tag}/invert"] = prp.invert(_block(block_len), tweak=b"tw").hex()
    # 256 fills its Feistel domain exactly; 1000 and 3 cycle-walk; 1 is the fixed point.
    for domain, rounds in ((1, 8), (3, 8), (256, 8), (1000, 8), (1000, 5), (10**12, 8)):
        prp = IntegerPrp(KEY, domain, rounds=rounds)
        points = sorted({0, 1 % domain, domain // 2, domain - 1})
        vectors[f"intprp/{domain}/r{rounds}"] = ",".join(
            f"{prp.permute(x)}:{prp.invert(x)}" for x in points
        ).encode().hex()
    for block_len in (67, 80):  # halves of 34/33 and 40/40 bytes: multi-block masks
        prp = UnbalancedFeistelPrp(KEY, block_len)
        vectors[f"ufeistel/{block_len}"] = prp.permute(_block(block_len)).hex()
        vectors[f"ufeistel/{block_len}/tweak"] = prp.permute(_block(block_len), tweak=b"tw").hex()
        vectors[f"ufeistel/{block_len}/invert"] = prp.invert(_block(block_len)).hex()
    vectors["ufeistel/11/invert"] = UnbalancedFeistelPrp(KEY, 11).invert(_block(11)).hex()

    for word_length, check_length in WIDE_SWP:
        swp = SwpScheme(
            KEY, word_length=word_length, check_length=check_length, rng=DeterministicRng(7)
        )
        words = [Word(_block(word_length)), Word(_block(word_length)[::-1])]
        document = swp.encrypt_document(words)
        tag = f"swp34/{check_length}"
        vectors[f"{tag}/document"] = b"".join(document.encrypted_words).hex()
        vectors[f"{tag}/trapdoor"] = swp.trapdoor(words[1]).to_bytes().hex()
        vectors[f"{tag}/decrypt"] = b"".join(
            bytes(w) for w in swp.decrypt_document(_fixed_document(word_length, 2))
        ).hex()

    # One word twice in a document, then again in the next one and in a trapdoor.
    swp = SwpScheme(KEY, word_length=11, check_length=6, rng=DeterministicRng(7))
    repeated = [Word(SWP_WORDS[1]), Word(SWP_WORDS[0]), Word(SWP_WORDS[1])]
    vectors["swp/repeat/first"] = b"".join(swp.encrypt_document(repeated).encrypted_words).hex()
    vectors["swp/repeat/second"] = b"".join(swp.encrypt_document(repeated).encrypted_words).hex()
    vectors["swp/repeat/trapdoor"] = swp.trapdoor(repeated[0]).to_bytes().hex()
    vectors["swp/decrypt"] = b"".join(
        bytes(w) for w in swp.decrypt_document(_fixed_document(11, 3))
    ).hex()

    schema = RelationSchema.parse(SCHEMA)
    relation = Relation.from_rows(schema, REPEAT_ROWS)
    rng = DeterministicRng(13)
    dph = SearchableSelectDph(schema, KEY, backend="swp", rng=rng)
    encrypted = dph.encrypt_relation(relation)
    vectors["repeat/relation"] = protocol.encode_encrypted_relation(encrypted).hex()
    vectors["repeat/query"] = protocol.encode_encrypted_query(
        dph.encrypt_query(ConjunctiveSelection.of(("dept", "HR"), ("salary", 7500)))
    ).hex()
    # Label bytes, and a snapshot that draws nothing from the shared rng.
    indexer = TableIndexer(schema, KEY)
    vectors["index/snapshot"] = encode_index_snapshot(
        indexer.snapshot(relation, encrypted)
    ).hex()
    row = RelationTuple(schema, {"name": "Lee", "dept": "IT", "salary": 7500})
    vectors["index/insert_delta"] = encode_index_delta(
        indexer.insert_delta(row, rng.bytes(16))
    ).hex()
    vectors["index/remove_delta"] = encode_index_delta(
        indexer.remove_delta([(row, b"i" * 16), (relation.tuples[0], b"j" * 16)])
    ).hex()
    vectors["index/rng_after"] = rng.bytes(8).hex()
    return vectors


def _fixed_document(word_length: int, words: int) -> EncryptedDocument:
    """Arbitrary fixed bytes in ciphertext position: pins ``_decrypt_word`` and ``invert``."""
    return EncryptedDocument(
        document_id=NONCE,
        encrypted_words=tuple(
            bytes((17 * position + i) % 256 for i in range(word_length))
            for position in range(words)
        ),
    )


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
    vectors.update(_encrypt_path_vectors())
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
    "feistel/2/r8": (
        "14a8"
    ),
    "feistel/2/r8/tweak": (
        "ff0b"
    ),
    "feistel/2/r8/invert": (
        "c487"
    ),
    "feistel/16/r8": (
        "4ae1d605462db8148e63a1f20be6b8fa"
    ),
    "feistel/16/r8/tweak": (
        "aff9fe4c284485f1eb4f772cc007fe60"
    ),
    "feistel/16/r8/invert": (
        "67f551369721847e40aaa7abd28dd2f5"
    ),
    "feistel/16/r5": (
        "9c1db353137d16dbbcaaa2530a3c6d5f"
    ),
    "feistel/16/r5/tweak": (
        "46e0f4eabc844bb402b002912e7bdf94"
    ),
    "feistel/16/r5/invert": (
        "c0f95b803508c003b52714b761c9bf6e"
    ),
    "feistel/80/r8": (
        "4f13b58cbfd5b0ddfdcf2270e435928c9ad335b92ed448922173d55c687bdf43"
        "8923cf1291e996ec9b30e18bd5d1044d118a2c655b0b9c1999aec7ac44bf37a3"
        "a0f6959ff79aaf9c1f404ef3bba84149"
    ),
    "feistel/80/r8/tweak": (
        "bc4ef944996ed38f2e8c2e29586c4374ffb27aad574cf0c26e45b42d4e5c8013"
        "60164b17478c80f8927077423e6b9e5b339c94c572be7bea1b6f7472f8fbba8c"
        "8eef4094337e57d417b7fca1370e053b"
    ),
    "feistel/80/r8/invert": (
        "e9a519d61be54844eeb7bba0579cace78dcc345af6b867419bc4c6c2d75eb0b3"
        "96231af62ea7fb079e61cfd1fbd7d147baaf269b9bb2e203c1d6b245af6a8ac5"
        "25bf18ec112bf475095ca10e03d75a05"
    ),
    "intprp/1/r8": (
        "303a30"
    ),
    "intprp/3/r8": (
        "303a302c323a322c313a31"
    ),
    "intprp/256/r8": (
        "3135343a372c37393a3235302c3232363a33322c3134373a3434"
    ),
    "intprp/1000/r8": (
        "3737343a3234302c3339323a3930352c3737313a3934302c3935333a353833"
    ),
    "intprp/1000/r5": (
        "3430323a36322c3637353a3738312c3735323a3138302c3238373a353136"
    ),
    "intprp/1000000000000/r8": (
        "3735313538303932373537353a31353938353331383036312c36353634323836"
        "33313633323a3732313930303238393133382c3930323533333536343735363a"
        "3731313833313135353238352c3838393931383634323335313a353831333538"
        "333432393330"
    ),
    "ufeistel/67": (
        "64e33f78873b7f7f2254c189b468e06f5c473cbfe8d0ce569c6818fd682fbdbf"
        "40e036d89b5eff6fdb8413ff1a6b7b55f0750755c9119e798cb79ac43aa1aba0"
        "28a5da"
    ),
    "ufeistel/67/tweak": (
        "205b416bba80d53107b0969be5b250feb802430fc0556f96e52548b96ed11ed4"
        "43546090a304af1f49fbd6393f9185f4a2a30473c2922874dcd6988d2d1a22a4"
        "690fe5"
    ),
    "ufeistel/67/invert": (
        "e6208334238b9a99e65000297a0d74717cb7995b4dffbd7694d549df2b0f5e9b"
        "2ce9fa388df4e5a8cb2d87aa5f765983e69363fc638dcd78134dda672ffeef4e"
        "abf893"
    ),
    "ufeistel/80": (
        "d19fc61d2c69c2ff22a63330225ef70992ecf005983d8ca46f2e4f70d94e6da9"
        "c414637a6276a6e5724e45447d0b0e42fd8d6743500f28739254729f0f50725b"
        "befeb13c394b93c2f8d690cd0a12095d"
    ),
    "ufeistel/80/tweak": (
        "95c453475aba4d0511547a5575b11fbbb75b6e17c2e60ca1ccbc372212513ea5"
        "68128bf9f35a6237106c0f7523bf8cee10d679df7b5964e6b90cbfc0eb55060a"
        "be8120ecd8a600c88cf406cee1eddf04"
    ),
    "ufeistel/80/invert": (
        "0f3b72fc2fecaa0e87b8b41fb8f93337c995cb46b24bfe51bcbddc30e8233f8f"
        "1afd427d3fa2567598f3f9a3d395b497ab563cee6347b09182a6f9c3585e49bc"
        "e645a6023abcde441ec903eac56f27f0"
    ),
    "ufeistel/11/invert": (
        "41598a26aa640c77f7242c"
    ),
    "swp34/1/document": (
        "76d06f3369d8c6b094a2541bbaf7b8397f61254f65267d070b68c0dc04798872"
        "934bc032b003d0d6fe272b74821a5a8b3e3f1507a4fd8feb81129e70362aa7e7"
        "1f5c9554"
    ),
    "swp34/1/trapdoor": (
        "0022e9b322161ffe85bef72eb568a8eb29c91efc9ba05326d7ab9510b1cc9ca6"
        "f2a93b52e4e111ee58f0c72652b17e1e8f50c9cdf52ac1d82410158c24af4f7c"
        "28fa0046"
    ),
    "swp34/1/decrypt": (
        "18a415faffc416101ea2aeb037b84b569cd47edac3ae0d86ea75cd379b939014"
        "f46371e3884d0fedb150eb3472e96abd52b26cd26810b849c85aeab7f2ca6f89"
        "f9704f6d"
    ),
    "swp34/33/document": (
        "2d7e40a89d40ec42fd7d7dabbb08190e0c40d9edebe6146a32d2f14a3564924c"
        "d0367b45b5bde5b28b4638c096a404dd9a07e11e0c4cad594969514b882ba574"
        "ef6cf387"
    ),
    "swp34/33/trapdoor": (
        "0022e9b322161ffe85bef72eb568a8eb29c91efc9ba05326d7ab9510b1cc9ca6"
        "f2a93b52af1e2f9fd112e49455504162734bc2949a0f0cba07d201c8af5fb491"
        "a96cb04c"
    ),
    "swp34/33/decrypt": (
        "beeae1fb505c0997890487313d58f40417540fb43e8a5e878ef3a058ca76d89e"
        "c12fb60c62e35954d9a8f72fcb1d9ec7da756d52cbf91ce5f5837c951f51752a"
        "6703c61d"
    ),
    "swp/repeat/first": (
        "d46ad0a164638571b60e58bc5688111c727a1a2869065dc8b83612e3a1d54959"
        "04"
    ),
    "swp/repeat/second": (
        "2ebfe2c326ee0a9544ee60bf05a979edb88a4ac74aeaa63a774d7ce96f7291ab"
        "98"
    ),
    "swp/repeat/trapdoor": (
        "000bb8fada8b1b01835c01c8476b9fe904f76a81c630bd937f760a887dd65eeb"
        "5aaf872b59d35d657a65a17bc1"
    ),
    "swp/decrypt": (
        "9448171afcd5f1adfdd293249ea2e38dd16015f6da6079ccae8da1184838e721"
        "a9"
    ),
    "repeat/relation": (
        "00000033456d70286e616d653a737472696e675b31345d2c20646570743a7374"
        "72696e675b355d2c2073616c6172793a696e745b365d29000000030000009f00"
        "000010f27024bf17112a754ffb1f1099aed73900000046cf4e4e5ea6885c84ba"
        "8b308c9d4c0d2393d6e85ca2c2f1f69293d308a57b25436ef12ab7223005646f"
        "52bbf18dd651c8569c7a2dd79b7962435fee023aa10f4f5e2ccbfcdacc000000"
        "030000000fb675e166e8883ab2ad61f9722b337c0000000f2376d54acdf28ff4"
        "ed388a955a3c250000000f8335ea76d84e4b9121f970c3e34bc0000000000000"
        "009a000000100bfef003609558afe10a6905ad1d25b40000004136ef43749666"
        "5471314cd6136a48cbdb9bb155c493bf8fff8b4758b7bf830cdc782e15272452"
        "c3376df3544473be4ea22a26ecfd9c80459604788868df4051d7050000000300"
        "00000fdd956d6b6587bb1b90e78fc8eb6f570000000ffd5be379fd1409e09bf4"
        "1933953fa60000000fca99e31e986f476513424d7770b9ae000000000000009b"
        "00000010fc3039b91c2d2099660fd75aedb1070d00000042915b1e3b5f60b5a1"
        "d0a916243c5ad1cf88b8503ee127527e187f1923e5c9e0b186f7931cf8b800db"
        "c424a609526069336c8356a1a96305b2700b0bb500800a8cabd6000000030000"
        "000f9a17c6117c4df0f7c05172eb3b8bcb0000000f819a53671a871526e28119"
        "5723e2480000000f3b4a1bca8df7cd06243ddf5cc7039a00000000"
    ),
    "repeat/query": (
        "000000076470682d7377700000000200000031000f640ee288a4652008e76ebe"
        "fa3939e6de94f5674d8185fd7e1f1ebf5ce37ea477a26066869df4f76db14782"
        "5e2da7b800000031000f0eca862bba3e1dd5eed8ca3b9fcddac9d64a941a05a1"
        "e2a19519a52af706d28b6ffbc80fd4f7bb8f49b8b3e36a501f00000000"
    ),
    "index/snapshot": (
        "000000090000003800000020ee36da2b43151190e80de155446fa5c5f6a2e27c"
        "adf96ad4e8f88af650998b4f00000010f27024bf17112a754ffb1f1099aed739"
        "0000003800000020401ee478f09d142d0bfa58654a8371137bf5601c5b707e08"
        "92ffcf0503ef70d600000010f27024bf17112a754ffb1f1099aed73900000038"
        "000000206ce31ea415ba39f8dea54842ada0caa1b22cf63c6e2dd8fca19196f5"
        "22f7277d00000010f27024bf17112a754ffb1f1099aed7390000003800000020"
        "c474cd8a1be7afd8189ee8155aab8be561aa971f0a027b6847d4e5cfb1dab39e"
        "000000100bfef003609558afe10a6905ad1d25b40000003800000020401ee478"
        "f09d142d0bfa58654a8371137bf5601c5b707e0892ffcf0503ef70d600000010"
        "0bfef003609558afe10a6905ad1d25b400000038000000206ce31ea415ba39f8"
        "dea54842ada0caa1b22cf63c6e2dd8fca19196f522f7277d000000100bfef003"
        "609558afe10a6905ad1d25b4000000380000002006831193a2ecb7b596e319cf"
        "8bcea3cdedbddd907e063123f996b74666a9a9a800000010fc3039b91c2d2099"
        "660fd75aedb1070d0000003800000020401ee478f09d142d0bfa58654a837113"
        "7bf5601c5b707e0892ffcf0503ef70d600000010fc3039b91c2d2099660fd75a"
        "edb1070d00000038000000206ce31ea415ba39f8dea54842ada0caa1b22cf63c"
        "6e2dd8fca19196f522f7277d00000010fc3039b91c2d2099660fd75aedb1070d"
    ),
    "index/insert_delta": (
        "000000030000003800000020b2706dd2ef12d61e848ace5025d2f3f2cbf0df3b"
        "a2aabee8f364e5c469a54904000000109d5fc5bb72f0901f2b0a9b939a603afe"
        "0000003800000020e75852cc11c36be974ab884622054fe54034be3494506a39"
        "2fe3cb96665c5fdf000000109d5fc5bb72f0901f2b0a9b939a603afe00000038"
        "000000206ce31ea415ba39f8dea54842ada0caa1b22cf63c6e2dd8fca19196f5"
        "22f7277d000000109d5fc5bb72f0901f2b0a9b939a603afe00000000"
    ),
    "index/remove_delta": (
        "00000000000000060000003800000020b2706dd2ef12d61e848ace5025d2f3f2"
        "cbf0df3ba2aabee8f364e5c469a5490400000010696969696969696969696969"
        "696969690000003800000020e75852cc11c36be974ab884622054fe54034be34"
        "94506a392fe3cb96665c5fdf0000001069696969696969696969696969696969"
        "00000038000000206ce31ea415ba39f8dea54842ada0caa1b22cf63c6e2dd8fc"
        "a19196f522f7277d000000106969696969696969696969696969696900000038"
        "00000020ee36da2b43151190e80de155446fa5c5f6a2e27cadf96ad4e8f88af6"
        "50998b4f000000106a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a0000003800000020"
        "401ee478f09d142d0bfa58654a8371137bf5601c5b707e0892ffcf0503ef70d6"
        "000000106a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a00000038000000206ce31ea4"
        "15ba39f8dea54842ada0caa1b22cf63c6e2dd8fca19196f522f7277d00000010"
        "6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a6a"
    ),
    "index/rng_after": (
        "0a0d2f7a8f2d1e97"
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

    # Word ciphertexts of the parent decrypt word by word, at every (w, m).
    document_id = bytes.fromhex(GOLDEN["swp/document_id"])
    swp = SwpScheme(KEY, word_length=11, check_length=6)
    stored = EncryptedDocument(
        document_id=document_id,
        encrypted_words=tuple(bytes.fromhex(GOLDEN[f"swp/word/{i}"]) for i in range(3)),
    )
    assert [bytes(w) for w in swp.decrypt_document(stored)] == list(SWP_WORDS)
    for word_length, check_length in WIDE_SWP:
        swp = SwpScheme(KEY, word_length=word_length, check_length=check_length)
        raw = bytes.fromhex(GOLDEN[f"swp34/{check_length}/document"])
        stored = EncryptedDocument(
            document_id=document_id,
            encrypted_words=(raw[:word_length], raw[word_length:]),
        )
        assert [bytes(w) for w in swp.decrypt_document(stored)] == [
            _block(word_length), _block(word_length)[::-1]
        ]
    via_words = dph.decrypt_relation(
        protocol.decode_encrypted_relation(bytes.fromhex(GOLDEN["repeat/relation"])),
        via_words=True,
    )
    assert via_words == Relation.from_rows(schema, REPEAT_ROWS)


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for vector_name, value in compute_vectors().items():
        print(f'    "{vector_name}": (')
        for start in range(0, max(len(value), 1), 64):
            print(f'        "{value[start: start + 64]}"')
        print("    ),")
    print("}")
