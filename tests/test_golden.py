"""Golden corpus: the stored verify corpus keeps its verdicts and its bytes.

perfbench/corpus holds 87 documents, valid ones from smyth's producers and
tampered copies, with a sha256 manifest and the verdict each must get. These
tests read the corpus and never write it. The numfield pipeline and
root-of-unity relation documents are pinned by sha256 per case rather than
stored, as are the stdout and exit code of every `$ smyth` example in the
README.
"""
import hashlib
import itertools
import json
import shlex
from pathlib import Path

import pytest

from smyth import (CoeffTuple, FieldParams, balanced_multiset, canonical_json,
                   construct_extremal_fqt, construct_extremal_int, extremal_doc,
                   min_balanced_search, multiset_doc)
from smyth.bounds import MAX_INT_EXTREMAL_D, _EXHAUSTIVE_GROUP_LIMIT
from smyth.cli import main
from smyth.heuristic import limit_scan, p_n_closed_form
from smyth.numfield import numfield_pipeline
from smyth.quadratic import QuadField, parse_quadint
from smyth.serialize import numfield_doc, parse_json, verify_doc

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))["entries"]

# The F_q[t] producer arguments of the corpus slots: (q, coeffs, N, kind).
FQT_SLOTS = {
    "fqt-m8-balanced": (3, ["2*t^2+2*t", "2*t^2+2*t+1", "2"], 2, "balanced"),
    "fqt-m8-certificate": (3, ["2*t^2+2*t+1", "t^2+2*t+2", "t"], 2, "certificate"),
    "fqt-m15-certificate": (2, ["t^2+1", "t^2", "1"], 3, "certificate"),
    "fqt-m15-balanced": (2, ["t^2", "t^2+1", "1"], 3, "balanced"),
    "fqt-m24-balanced": (5, ["3*t^2+3*t+1", "3*t+1", "2*t^2+4*t+3"], 2, "balanced"),
    "fqt-m26-certificate": (3, ["2", "t", "2*t+1"], 2, "certificate"),
    "fqt-m26-balanced": (3, ["t+1", "2*t", "2"], 2, "balanced"),
    "fqt-m31-balanced": (2, ["1", "t", "t+1"], 3, "balanced"),
    "fqt-m31-certificate": (2, ["1", "t", "1", "t"], 2, "certificate"),
    "fqt-m31-n4-balanced": (2, ["t+1", "1", "1", "t+1"], 2, "balanced"),
    "fqt-m63-certificate": (2, ["1", "t^2", "t^2+t+1"], 4, "certificate"),
}

# The other producers' corpus slots, with the arguments perfbench/build_corpus.py
# gives them: (producer, arguments).
PRODUCER_SLOTS = {
    "int-size3": ("int", ((1, 1, 1), 2, 3)),
    "int-size4": ("int", ((3, 4, -5), 3, 4)),
    "int-size6": ("int", ((3, 5, 7), 3, 6)),
    "extremal-fqt-q2": ("extremal-fqt", (2, 4, 0)),
    "extremal-fqt-q3": ("extremal-fqt", (3, 3, 0)),
    "extremal-int": ("extremal-int", (5,)),
    "numfield-d3": ("numfield", (-3, "w", 3)),
    "numfield-d6": ("numfield", (-7, "w", 3)),
    "numfield-d10": ("numfield", (-7, "w", 4)),
    "numfield-d15": ("numfield", (-1, "w", 3)),
    "numfield-d24": ("numfield", (-2, "w", 3)),
    "numfield-d30": ("numfield", (-3, "w", 5)),
    "numfield-d39": ("numfield", (-3, "-2+w", 4)),
    "numfield-d16": ("numfield", (2, "w", 5)),
    "numfield-d20": ("numfield", (-1, "w", 5)),
    "numfield-d48": ("numfield", (-3, "-1+2*w", 3)),
    "numfield-d50": ("numfield", (-15, "-1+w", 4)),
    "numfield-d56": ("numfield", (-1, "3", 5)),
}


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def test_manifest_covers_the_corpus():
    assert len(MANIFEST) == 87
    assert {e["file"] for e in MANIFEST} == {p.name for p in CORPUS.glob("*.json")} - {"manifest.json"}
    valid_fqt = {e["slot"] for e in MANIFEST
                 if e["valid"] and e["slot"].startswith("fqt-")}
    assert valid_fqt == set(FQT_SLOTS)
    valid = {e["slot"] for e in MANIFEST if e["valid"]}
    assert valid == set(FQT_SLOTS) | set(PRODUCER_SLOTS)


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda e: e["file"])
def test_verdict_matches_manifest(entry):
    text = corpus_text(entry["file"])
    assert hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]
    assert verify_doc(parse_json(text)) is entry["valid"]


@pytest.mark.parametrize("slot", sorted(FQT_SLOTS))
def test_fqt_documents_rebuild_byte_for_byte(slot):
    q, coeffs, N, kind = FQT_SLOTS[slot]
    a = CoeffTuple.make(FieldParams(q), coeffs)
    text = canonical_json(multiset_doc(balanced_multiset(a, N), kind=kind, N=N))
    assert text == corpus_text(f"{slot}.json")


def produce(producer: str, args) -> dict:
    if producer == "int":
        coeffs, radius, size = args
        b = min_balanced_search(coeffs, radius, size)
        assert b is not None and b.size == size
        return multiset_doc(b, kind="balanced")
    if producer == "extremal-fqt":
        q, D, seed = args
        return extremal_doc(construct_extremal_fqt(q, D, seed=seed))
    if producer == "extremal-int":
        return extremal_doc(construct_extremal_int(*args))
    m, alpha, n = args
    K = QuadField(m)
    return numfield_doc(numfield_pipeline(K, parse_quadint(K, alpha), n=n))


@pytest.mark.parametrize("slot", sorted(PRODUCER_SLOTS))
def test_producer_documents_rebuild_byte_for_byte(slot):
    text = canonical_json(produce(*PRODUCER_SLOTS[slot]))
    assert text == corpus_text(f"{slot}.json")


EXTREMAL = sorted(e["file"] for e in MANIFEST
                  if e["valid"] and e["slot"].startswith("extremal-"))


def verify_exit(capsys, tmp_path, doc) -> int:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", str(path)])
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", EXTREMAL)
def test_extremal_group_order_and_degenerate_edits_fail(capsys, tmp_path, name):
    doc = json.loads(corpus_text(name))
    assert verify_exit(capsys, tmp_path, doc) == 0
    for field, value in (("group_order", doc["group_order"] + 1),
                         ("group_order", doc["order"] * 2),
                         ("degenerate", not doc["degenerate"])):
        assert verify_exit(capsys, tmp_path, dict(doc, **{field: value})) == 1, (field, value)


def test_degenerate_integer_extremal_still_verifies(capsys, tmp_path):
    assert main(["extremal", "--ring", "int", "--D", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["degenerate"] is True and doc["triple"] == [1, 1, 2]
    assert verify_exit(capsys, tmp_path, doc) == 0
    assert verify_exit(capsys, tmp_path, dict(doc, degenerate=False)) == 1


# sha256 of canonical_json(extremal_doc(...)) for construct_extremal_int(D),
# D = 1..16, and for construct_extremal_fqt(q, D, seed) on a grid whose unit
# groups q^D - 1 fall on both sides of bounds._EXHAUSTIVE_GROUP_LIMIT, so both
# ways _find_generator picks a generator (scanning every residue, or drawing
# residues from the seeded rng) are pinned.
EXTREMAL_INT_GOLDEN = [
    (1, "1a76886fab2a5f0143ef2c6117d57184b7a75e8733300954be9a3f847442b1c5"),
    (2, "113dbed5f226b10be348cc680c75901379d0d9171b0b13b999362d778d8ce82c"),
    (3, "6355c3e5870e28db568a8bf3e2e75422aee000aa6f356cf8ebaaface95476635"),
    (4, "107036f09ce491d733ec0d5c4999518caf5bc5ddf83a837929abecd23c5753b9"),
    (5, "9c4e33a288a143c5cecee964338e383a17022226f1ef48343731732e0a7d5769"),
    (6, "f520178120f9dfd1480ea68bc8916a41ab2746d45066a8282c663fe05c74ca92"),
    (7, "677007d96556ec29debf3e21eccdef364ad2184452eafb89245a609210deb5f9"),
    (8, "f067f70ebe1a842212ddc7d3ec5ee889656ffb57de60fb51ca8b09b8b3bce83b"),
    (9, "62ead36a8b102d71a2ab0eb175be958ccfe01788d1b7e1d28dff3d9b98d48adf"),
    (10, "434657b5bd22a4e1a2ec342beef5e64d666cecdba16e5f1fadc474b5b16da989"),
    (11, "270b71c98f7d997053a99278e7b0b2c9d60ccba893b83797a738d92be353c8b2"),
    (12, "c5290093713167280c26b0caddd5d4d2492034de0471c3c2a270da33ebaa6cad"),
    (13, "426b5746eeefab026a833d7329dcf9b91992ba1528e98eca674c98860e0add0b"),
    (14, "f84d9e918f427702b3a1113d9d365e3df2002bd94e41fea884773767412142c3"),
    (15, "76c6b452f6a06c62e3680acc4cd2a421334d508d93f2aa70196e9f40edc999a3"),
    (16, "f7d162b9704ab61d3a9acbe06e45734a88b9c2a535fe3efee7dea57e22e487c6"),
]
EXTREMAL_FQT_GOLDEN = [
    (2, 1, 0, "095636fdf239df6ac083e80056c8583573a248e6237c0cd980704058d643e277"),
    (2, 2, 0, "64ff25286799c6321b344b491fb42d3744f7e0e93346cf0b85f0de7e16cf3974"),
    (2, 3, 0, "54d1130ef1d8f74c8d6135e076ae0ffe0dfd56a54f9fbad4f1c976e761aa1f09"),
    (2, 4, 0, "837eaa1bb5301e6e6845cb5f2e0cc2cbbb95b082085cd64c32aa6c343aee0b11"),
    (2, 5, 0, "04ec5a26e11afdea19f44dc957381e5aa56e3d1753978df7c139077fb4f92f0c"),
    (2, 6, 0, "5fae870d6c131e1aeb7820fe42ecec90bafe2a05b01b280a21215d5d37f41e8d"),
    (2, 7, 0, "01af1bc4bbcf503e929860666c7c2cfecbe679b0ff97f652e362e1a6bd7f7c94"),
    (2, 8, 0, "112026eeec5666c08e2fe3a22d9682acea0b2411c7f57f431104a8c64d8f5211"),
    (2, 9, 0, "83c57b2ef81f7120d3a58d6c57fbc34aa066ca82956c0023306e60e34797221f"),
    (2, 10, 0, "f6041e8b9c01547960bf63bca343353ac4b179d7b4af23b43ef3cfaff53ad28d"),
    (2, 11, 0, "2618bb92b86fd144068b2b30af6ecdcb1d2d84b0c7e9976b7a0902b0ff8b3084"),
    (2, 12, 0, "2aa92a26c4a54e9238c5547a78968e2cbac235f2b94e14f41cd6e08e0cd63d4f"),
    (2, 13, 0, "d5ba8129b2292993e54f7623aabebac4b74f8781a6c35a832fbddc4cc9221ba0"),
    (2, 14, 0, "8cbccbfd1f79bd808f92d88306df841255b2061f3373f6126294ae0da69fb5cf"),
    (2, 15, 0, "2f16256613b443d0297630b9529e88c5a92e7c2f7e85e6ec685e6a047db557c7"),
    (2, 16, 0, "7981482bafc9a936961e6b55d8f3ffe4f48a99019b505275a309851a435fb1dc"),
    (2, 20, 0, "3b799179017df40616160e899f629d18de3fe849e1770a69216afda92b648c32"),
    (2, 12, 1, "2fd7ecc8e0ec3852a9aa31aa1d06663c87e93f00db19643027baca3bc9800d9e"),
    (2, 13, 1, "eab3dc61866ba4ab5db35aec86932f6351dea7c242e02c9c1de8ef06a210e9d7"),
    (3, 1, 0, "9cae29237dba6a9c23566bbcab474734a56bdf7493f78b2ff2f71eb6893c6291"),
    (3, 2, 0, "095e1c97100fb091bf448aae70115fa5535a6f75ec30f9bc808ce0c676f345fc"),
    (3, 3, 0, "b0c48bd5f4dd4db21ab31e18e2defaf92504d1f0508bf0e387a00a5f0dc0a7d4"),
    (3, 4, 0, "c0e8a80f7d0fd3f101153eacb450657ef8066b07b0ea20308cc61651badc7505"),
    (3, 5, 0, "88f68b9c70cc2a9092d2d32e5296bbaba28b948d628b032fd4078b3ce3afbaab"),
    (3, 6, 0, "5132d3e89fa035a7bd7be883d8b734bca9d3f076e3ad73c469e1db98290cd870"),
    (3, 7, 0, "11d6da13478782b3facc458ac8cd72cc3e695a012df5fb1a75fe9f78f9a22077"),
    (3, 8, 0, "694cf9fdd7c2feb0004b90dbc75cae977e1fec04756ad7520687df4d98b0956a"),
    (3, 9, 0, "a8170359dc76ae49d0154ffa6338c6624f4aa821fb72fde7fa0fec13fdc94fcd"),
    (3, 10, 0, "59a35061e62771be6f6f75e04e2f9d3be205eeece156c91ef5a444ab17f4d62e"),
    (3, 7, 1, "a6d51557a2b082c5741fff227027db98b9ec7cce5c5c8a1db36046e0f6c5ab50"),
    (3, 8, 1, "345932f27d6b129763b25dca40811a37f51da9099538c46126e44dfb707955b2"),
    (5, 1, 0, "5a7f632c0eeef47ec91268b69d961743b2fb051858b7bed6507aea17a7a17bb2"),
    (5, 2, 0, "9772cf82c24654bfaebfac680c82f2c9412a6699b8050d63867f12ed37f6d53d"),
    (5, 3, 0, "42502d5f99c793eb32c38c748d9dab36742b7d4fe2c0eed69682ff8a5182f54d"),
    (5, 4, 0, "b3c8aed4b4887219cd3c6646e559f827716b33f79f6fa9b3db13fa18215f64de"),
    (5, 5, 0, "c22ad5838def8b5c2ede27e2c91758e776af230db829d79faef5d3cf8b335893"),
    (5, 6, 0, "852551e1a7fc761ac91d9d091728ae7bc5c0f1924b529a83971d568c18acf0da"),
    (5, 5, 1, "8226161f132008303728a7596bb861af16433788d1e427a119ec4bd115aae69e"),
    (5, 6, 1, "45459ba50aeb819efc9dc2228b6f87e90314264496c98e793c12e849384dbde8"),
    (7, 1, 0, "6bcdd6f3f6afed3e9d0eb4e2beb67c9081b47e9b85cec6221384848e657680bd"),
    (7, 2, 0, "f078561879bc47f30b29b47bf46cd852c635ad2c6e0ace6baf9fa8fc98bebfbe"),
    (7, 3, 0, "e80e4fb45e415a72d1094711e4f28332a4d9c6cfab0c05c783f4bddb81f30b7d"),
    (7, 4, 0, "d79db34a7f612756ed518f72f8fba1c2aa0d8a092aa16c9f6c031cd8a60ef92f"),
    (7, 5, 0, "b15fcb70463adec51bc9fce748279c99355a38f2551bf35e484e66097b5c0cfd"),
    (7, 5, 1, "635c1b2805fca78c47b2a495af9ce1161cd237f51cd308446f78c58a1246ce5c"),
    (11, 3, 0, "a60ce8e7613554ea9e239185b2b21d02976db0e64157f462fb5cc1c64c37752a"),
    (11, 4, 0, "43450cef032d56a0dfbe4b58159a8a109e4a2c348ad27bddf3f053e6b087c559"),
    (13, 3, 0, "4bee0f5c733e2d0deaab1b55f4c8eb030d818e2ed112587310abf40ae47e2c3d"),
    (101, 2, 0, "d26cb5b6e40b728cb06f946ed516a13cbbd40d8d9a0aa923cea0c7a0a3295dd2"),
    (65537, 2, 0, "84908796eebcc623e0d9e2a846cc9fa532c3a03819329c629065ec378942ecc0"),
]


def test_extremal_golden_reaches_both_generator_paths():
    groups = {q**D - 1 for q, D, _, _ in EXTREMAL_FQT_GOLDEN}
    assert min(groups) <= _EXHAUSTIVE_GROUP_LIMIT < max(groups)
    assert [D for D, _ in EXTREMAL_INT_GOLDEN] == list(range(1, MAX_INT_EXTREMAL_D + 1))


@pytest.mark.parametrize("D, digest", EXTREMAL_INT_GOLDEN, ids=[f"D={D}" for D, _ in EXTREMAL_INT_GOLDEN])
def test_int_extremal_document_bytes(D, digest):
    text = canonical_json(extremal_doc(construct_extremal_int(D)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("q, D, seed, digest", EXTREMAL_FQT_GOLDEN,
                         ids=[f"q={q} D={D} seed={s}" for q, D, s, _ in EXTREMAL_FQT_GOLDEN])
def test_fqt_extremal_document_bytes(q, D, seed, digest):
    text = canonical_json(extremal_doc(construct_extremal_fqt(q, D, seed)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of canonical_json(numfield_doc(numfield_pipeline(K, alpha, n))) for
# each (m, alpha, n) the numfield-pipeline benchmark workload can draw: every
# slot alpha, then every rational alpha over every m it pairs with. The
# workload's two warm-up cases, (-1, "1", 3) and (-3, "w", 3), are among them.
NUMFIELD_GOLDEN = [
    (-1, "3", 5, "f3bd54e16d6ae89897e39755c91583c66cbbea203e0f0153c9551726769041ae"),
    (-1, "-3", 5, "f5dce0b621a05ac0cace2aaff17a7415a822b90190cf626b916f6acb27a407fd"),
    (-1, "-2+w", 4, "6c5d75f9ba979df7973ca24dbf0f53c02f6bb8d2c69459c668e0e47f8985ec67"),
    (-1, "2+w", 4, "49ca995eecb4862da7988acef76b512ea6c2f0fd9b0b70346fad6904bbfbb315"),
    (-1, "-2-w", 4, "416ce49e86d6e2abd3ab056b04cacb2435a6b8e720451d8ca370612fa585d9f6"),
    (-15, "-1+w", 4, "d33383c23ba00e8117b66ef76b4f9bf101b28d9844b042ad052f9f0cbe777d38"),
    (-15, "1-w", 4, "fd77f80af159a1ec7f2619d5098fb029c0381a6d3a5fa2016a6092c113f49302"),
    (5, "w", 3, "50b36270525fe2cfa852e224cef868b6f7437b5bca94f3c4a85fe61c62e91fdf"),
    (5, "1-w", 3, "41d60a43f8884d31077635e6fa4e4a2e9367c9372c9b5ad9a6348a802c3aa797"),
    (-3, "-2+w", 4, "b9b935d3c5241daa085d39af5eb18eeaf1330e22c83ddcc4c8dfbc87da1e19d4"),
    (-3, "-1-w", 4, "44fadecd38cc77c8d52ba5bd303f0a07f18779300619c3336182feaf58baf09a"),
    (-3, "w", 5, "f87b082024d7bf9d567bae29214d8f489f429ec10fc4c1f0dff750665cfe5633"),
    (-3, "-w", 5, "a56d944bceec8e615c8b1f15d89980debf4c2feee43f4ea8a7e916d03c674f08"),
    (-3, "-1+w", 5, "c202737092057cd46297885f10fb177cc58557bb6cfa5937487042646e3c5d92"),
    (-3, "1-w", 5, "b0084f59caa8ed532e91c39b39c731409b09b9edbda85892828393e069df9776"),
    (2, "w", 5, "c033445e1d0955f7dfbe26a59960b0b3c5eddbe2de83cd1fe4afe818846ac57c"),
    (2, "-w", 5, "0f3cc6e119d54aaf42a7fec54e97331a2487928012b25aee34add92a206e72bf"),
    (-2, "w", 3, "9c135e918e606f3844db766460ab5e75bf3a6c46a7e44270c509c6039eef989f"),
    (-2, "-w", 3, "53ffa47540fe2d98089f0c083d63f19abf6cd711bb2cc4b762eebe0c302fbe47"),
    (-1, "w", 5, "29e10a05b51802c8d6beda8c73be5d2f115d245f8c3d299255c3cbe8cd3fac73"),
    (-1, "-w", 5, "dfb94bf811ca0353f52849bc9099b512a139c260fda61089a7281a38082efc8a"),
    (-1, "w", 4, "6cc629a7329369acde12608eb929df48d41e5b452817e00d520ff03ee06c03a7"),
    (-1, "-w", 4, "e21e4148762dbce42d3cb6f0b47c8eb5dff8f48eb7c9b27fb97559c0d0b263d1"),
    (-7, "w", 4, "878f5e02c0c8156e144b79284fe93deb23fca22f10767ca968931791b7683f7b"),
    (-7, "-w", 4, "78c51ae15fc047c0a9c52ec20148b0e7470859836d3c03911cf31cb78d605e4a"),
    (-7, "-1+w", 4, "6c126f76a9ec776633ff24492b03534fe2d387e8bc4d893524a1d680cbf84317"),
    (-7, "1-w", 4, "c6e5a5ba4e88e71121173aa626ad71c92c8a111bd9d13be70daf20ac1fe26f52"),
    (-7, "w", 3, "b3c6a12e00a4f81cf9306b0346a2852d7c568d0442e67bfaf8646703ab4b016c"),
    (-7, "-w", 3, "89a33d7e48d3cc09c8dbb8d65d8c0e8db11dff71cd313f2a00ecbe5dc2593438"),
    (-7, "-1+w", 3, "06c622f3b1e1b9ddfa77bf7e0036e1254a7046c2e847514efa0cd1cc2eb7414f"),
    (-7, "1-w", 3, "d89b5c28c02a8bf10b382dcb749323c2056fe3d3b47094ea7c79fc3814c14dea"),
    (-1, "w", 3, "19140332bfaeef3a5082d22a683865e3e478f3b53c92a05d22a0da46502be3ee"),
    (-1, "-w", 3, "4017cd277212795b3ed2f4a051bad9800fba92190040a5d3f6c5119b025a4f62"),
    (-3, "w", 4, "6efe04ddd2aa538cc95db685a10979598040a8fe350f3e0f9442fec5ecdc5309"),
    (-3, "-w", 4, "4f75b264cf90448bf180b946194c41e4ec5a6531a157c7140a1b50b0290a25eb"),
    (-3, "-1+w", 4, "2aafe7d6036e1ffefa11b38cd3c8f3a1732ff1da737dc45f5660830af21a1542"),
    (-3, "1-w", 4, "d1845b235b763ea0763be203ac2646f26fad618159729d1007178c66c4848a38"),
    (-3, "w", 3, "e0a547ecc86cee4fee2584b44d5357e653eb6b28dba416b3a705f2fa4a1737e5"),
    (-3, "1-w", 3, "9d3982e833c8ee807b3324c66e07d2d325198ae02593dc82d7021df225514f68"),
    (-1, "1+w", 3, "da0e403c3e4def5ef96ad7a09a3c3b5c52ec4a8b0370779faa96c1b227a00757"),
    (-1, "-1-w", 3, "d2260a06e03f1668a1bd2db4edac5025a345de202203c34d9bfa478a67600077"),
    (-1, "-1+w", 3, "ef174937a4a891d88de33ab7c0068a6ba91ce38617242219fbdbef087a4d07d9"),
    (-1, "1-w", 3, "6a80803356b2b8e9e83a1db91cc2f7389009a1c106cd79d5b23fe992075701e2"),
    # rational alphas
    (-1, "1", 3, "78fb2ecb901717401b35bb9e8f97db5ba1dac83da7df50998eec3b209f4b82e4"),
    (-2, "1", 3, "6b8291eb5df9d878b10a63c455d2d334c0ef6cc712da74bef4995bef09444fa0"),
    (-5, "1", 3, "b1363b35760eb926cfdfd991ae2c09b9ae1ba3bd6bb1bc1a8358525ec72998c1"),
    (-7, "1", 3, "1464bf129eb182d87c7fb9de96236e407e0a5310471ae6bcf073a1eba25ba120"),
    (-15, "1", 3, "f713000fc5016766e32daf5bfe6b2ee155c5d6936b19c574694c00bd4cc03d01"),
    (-1, "-1", 3, "482366330708604ef307bdfdf46e6cc6b9cf529012b2a7bc6e44a68695ba17a0"),
    (-2, "-1", 3, "fe9fd753e7483a790245669599813ca0d434e016e73907742b0bf22c91d13457"),
    (-5, "-1", 3, "2708e52983abf1505d8787195469ae0ddf7f55355b9ec6b58966f2b5e1bdc348"),
    (-7, "-1", 3, "4bfecc10f96acedc07de210bbff536eb9615bfd46e570b97216ac4f5a439572d"),
    (-15, "-1", 3, "46375b5e6d5b8903ddf34b7d7d6a63179e8324ed5bab411e6e951e35b5e87d05"),
    (-1, "2", 4, "ce14ab9f63819f003852b78db2eb43696c660727734f4c0f056572dcce020d26"),
    (-2, "2", 4, "354e72ce2e55aa511f3ee7d8deb0daffcdb550dd263bbb7be64c9aed96b51dac"),
    (-5, "2", 4, "68f459fd927ee117afe44d2839836d5f7cd5bdd59da292a412ae6a099ae6b8d2"),
    (-7, "2", 4, "824921834c461b630bc3be4f706d6afbef3abe53d2b79c2ef7953645120d8e89"),
    (-15, "2", 4, "2860fb5e13898bd4f78280825855051d6bed5d569dd50df5baaf69a8d100883b"),
    (-1, "-2", 4, "ce97f2301a6683d4219e720a8e3aebcadb899924027d57092bfefe6cd40d5606"),
    (-2, "-2", 4, "a389f0a6498ae1e10d32ba92c4d9abad75264c3c7000dfa561c2b503ca35609e"),
    (-5, "-2", 4, "a53231b2ea72d03f080b083f2c341699f3ecc327778b9d10a946c0e3b9b1103d"),
    (-7, "-2", 4, "c3374f8b738d911c693ab4d58338a184e6c11368e06a1391bff7e57721f4caac"),
    (-15, "-2", 4, "5449a533be56e17210a69f5dedf2811cccb18a744f531d761b14be8cd293eb23"),
    (-1, "2", 5, "e632f0c9b521d3e97b3cc379fc81e60e5a6cee4dde44d046b5de1aec9ed92b35"),
    (-2, "2", 5, "aeef88cce8ff3ae419316a28d878b1ec75222d533f965faaba26bea5883a816d"),
    (-5, "2", 5, "b022c4eaaeb70fd05db5aa884df54ab02ef17feeb2c1ad5fca298df55cec685a"),
    (-7, "2", 5, "c8b64459b57c4af2a574902919a8b41c140d2600b9bee5ade19bfa698a68fb1b"),
    (-15, "2", 5, "f6b91e91aadb5d111d210b19c1d2fe5b1d12eff8ac03a5245b4e4203e069651d"),
    (-1, "1", 5, "505055491ed0881b331da6d2b42a9f46091e208e5113747ccdca48e3dd10b0ab"),
    (-2, "1", 5, "21765c43b666690503de289d629435edf28ef261068a1fab5efa2f4f0107da9d"),
    (-5, "1", 5, "08380255bf2f9e998fbb7f57a83139af51ffe4ab39c88ab7a2d85d2e43ca3501"),
    (-7, "1", 5, "a17747c4fc72a078df804705da181ef5587d5d7d924d41908c5e7cedcb2c2b41"),
    (-15, "1", 5, "3f7a837d54de5c383390222378d016591f5e0020c50a8f4a0a8f13b8025258ec"),
    # dimension 1030
    (-1, "1+w", 5, "6703fc2c9aed4a2ab3149d490840483fedafe61b84d4670e96b19a06a4931e1f"),
]


def test_numfield_golden_covers_the_warm_ups():
    cases = {(m, alpha, n) for m, alpha, n, _ in NUMFIELD_GOLDEN}
    assert len(cases) == len(NUMFIELD_GOLDEN) == 74
    assert {(-1, "1", 3), (-3, "w", 3), (-1, "1+w", 5)} <= cases


@pytest.mark.parametrize("m, alpha, n, digest", NUMFIELD_GOLDEN,
                         ids=[f"m={m} alpha={a} n={n}" for m, a, n, _ in NUMFIELD_GOLDEN])
def test_numfield_pipeline_document_bytes(m, alpha, n, digest):
    K = QuadField(m)
    cert = numfield_pipeline(K, parse_quadint(K, alpha), n=n)
    text = canonical_json(numfield_doc(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of the canonical `numfield --action rou` document, with the exit code,
# for (m, coeffs, max_order); None runs at the default order. The grid holds
# found and not-found scans, relations whose sqrt(m) parts cancel and ones that
# need sqrt(m) as an element of Q(zeta_M), real and imaginary fields.
ROU_GOLDEN = [
    (-1, "1;1;1", None, 0,
     "12b949283f6a959734e7438fe0fdc4aed25a43257a3ba0200b1f851a33c2ddeb"),
    (-1, "1;w", None, 0,
     "31e3cf17d30c120d5f4a0320f27d783d1e99cbb4cafd0cc40f380fd8162dd789"),
    (-1, "1;-1;w", None, 0,
     "3612ec7a8a4ca9545757e3828fac37fc4663f100bd1564261f2b56c3689d7afe"),
    (-1, "1;1;2+w", 60, 1,
     "b5617232e86eba96f92605e1b1477b69f616ca89cab87befb9ef475dabf0a9bd"),
    (-2, "1;-1;w", None, 0,
     "3d32ad88ee10228194ac8042589d676866eba89d967fcbd6ac6ff773e3b30ae6"),
    (-2, "1;1;w", None, 0,
     "20f56971b8a1be57044963989484db533420d31cad8ada8d61d22b870614f804"),
    (-2, "1;1;2+w", 60, 1,
     "b5617232e86eba96f92605e1b1477b69f616ca89cab87befb9ef475dabf0a9bd"),
    (-3, "1;1;1", None, 0,
     "4b41ea3b14dd15af980b0105e13046a4ffcee6ba471cfb49e0fce284c7b7fac6"),
    (-3, "1;w", None, 0,
     "f78b5f86aa68692345bec8d7f45ddfb18585022118817f87a2b71df0182446e0"),
    (-3, "1;-1;w", None, 0,
     "979c7dc7f7076379fb60260ee24e3f063f246c16c2dc6972bb19533f92a1ce1e"),
    (-3, "1;1;2+w", 60, 1,
     "b5617232e86eba96f92605e1b1477b69f616ca89cab87befb9ef475dabf0a9bd"),
    (-7, "1;1;1;1-w", None, 0,
     "76858ecb627b9d82d4ee0b2901ed55c4fafa6f66634dc3e6287b4f1c7895e029"),
    (-7, "w;-w", None, 0,
     "da7161a4445a7e600cea682889181663ae6fb20203f05609e0508aaeadb58139"),
    (-7, "1;1;w", None, 1,
     "9e2c29c34df21492613142e6fb5523d437252f5691c7dece25dd9939b310a957"),
    (-15, "1;1;1;1;-w", 15, 0,
     "295807e95a71c155c62d7f4ec1bccda8629efbe38416213727fc38169072d929"),
    (-15, "1;1;1;1;1-w", 15, 1,
     "db96b5259bf8321e74c8dba7be0808995ba6fe398966e6f0c6565fbdafdde7ef"),
    (-15, "1;-1+w;-w", None, 0,
     "0e00934dc16bb19e5dc8655371ca47e265a1d7977df360df8b9619c4241f174a"),
    (-15, "1;1;w", None, 1,
     "9e2c29c34df21492613142e6fb5523d437252f5691c7dece25dd9939b310a957"),
    (2, "1;-1;w", None, 0,
     "c04f33ef40279e4e7fd16c0ad042579ceefaf860f915816169426fb2ef60439c"),
    (2, "1;w", None, 1,
     "57ffc5f2d328767e412c15b906b37776a3f7826cc0eb3b8eff5e82b3f9af5719"),
    (2, "1;1;3+w", None, 1,
     "daffff8d0b0f4c29422269563bc81d3bf840dc536c3d115220b105d29a697463"),
    (3, "1;-1;w", None, 0,
     "98606640105303df918f94e0f82693a77950bb65ba5dec9ab17d1f7f5f912fe5"),
    (3, "1;1;w", None, 0,
     "f5a904ae611ced15ab0c0fef2db2ddde30803a0e3d8eb1f71a862fbf4137275e"),
    (3, "1;1;2+w", 60, 1,
     "b5617232e86eba96f92605e1b1477b69f616ca89cab87befb9ef475dabf0a9bd"),
    (5, "1;1;w", None, 0,
     "6866b2310181ab5679fd905413bd73be70098e1b58cf826ab3cc224081b08325"),
    (5, "1;-1;w", None, 0,
     "3cdef1bae45b97e49bf0df2414e39d50c700ee21e6a84146863896b142e917f3"),
    (5, "1;1;2+w", 60, 1,
     "b5617232e86eba96f92605e1b1477b69f616ca89cab87befb9ef475dabf0a9bd"),
]


@pytest.mark.parametrize("m, coeffs, max_order, code, digest", ROU_GOLDEN,
                         ids=[f"m={m} coeffs={c} max_order={o}" for m, c, o, _, _ in ROU_GOLDEN])
def test_rou_document_bytes(capsys, m, coeffs, max_order, code, digest):
    argv = ["numfield", "--action", "rou", "--m", str(m), "--coeffs", coeffs]
    if max_order is not None:
        argv += ["--max-order", str(max_order)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rou_readme_example(capsys):
    line = "relation at common order 3, exponents (0, 1, 2)"
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert f'$ smyth numfield --action rou --m -3 --coeffs "1;1;1" --format text\n{line}\n' in readme
    assert main(["numfield", "--action", "rou", "--m", "-3", "--coeffs", "1;1;1",
                 "--format", "text"]) == 0
    assert capsys.readouterr().out == line + "\n"


# sha256 of stdout, with the exit code, of every `$ smyth` example in the README,
# run in a directory holding the README's grid.csv and its cert.json.
README_EXAMPLES = [
    ('smyth check --q 2 --coeffs "1;t;t+1"', 0,
     "7fd58b1cd1ac8f7d2af13b25ab48c26a150d47f29fd4601122fe41e8806de1cc"),
    ('smyth check --q 2 --coeffs "1;1;t"', 1,
     "51fc4c872b025389bf8d14b0bc2d0ae173ade4ff65de396df0c182ea7cda64fd"),
    ('smyth check --ring int --coeffs "5;6;7"', 0,
     "6ab630a811aa80b3c0848f0861f75a24d29bd323c1457c5d935af8faaeceb0dd"),
    ('smyth enumerate --q 2 --coeffs "1;t;t+1" --N 1 --format csv', 0,
     "89bd3c2d1cf1bea6b9925c6b2191bf24463ed1f0f6ceb526ff04e361ebce883f"),
    ('smyth certify --q 2 --coeffs "1;t;t+1" --N 1', 0,
     "5287532aaf197429c56e3c947bec02cc7f1a7bde962622384321474c2d3a12fb"),
    ('smyth minimal --q 2 --coeffs "1;t^2;t^2+t+1" --N 2 --size-bound 4 --format text', 0,
     "89df504daa76ec95c191646d83ef65e748b21fa3f1add17c9c006dba4e280cb5"),
    ('smyth extremal --q 2 --D 2 --format text', 0,
     "dececcf5b163139ee5b21a8574a68dd7657f53b78c5a4ca63d91590d3a459d44"),
    ('smyth extremal --ring int --D 2 --format text', 0,
     "83eb700d62cc0595c36937880c3c91cc9d83a7d4e35907d77c93646d5c009e0a"),
    ('smyth heuristic --mode mc --q 2 --coeffs "1;t;t+1" --N 1', 0,
     "a92b9ef0fd07ae409f98fb62ce458a26ad5535603d5177279efbf5d84f4b21d8"),
    ('smyth heuristic --mode pn --q 2 --d 1 --n 3 --N 1 --group-size 2 --format text', 0,
     "5f6b83499edcfcf8925935fcbae9540b83da39e7396c3eab096390af9c93ee08"),
    ('smyth heuristic --mode scan --q 2 --d 1 --n 3 --growth "1,2,3" --format csv', 0,
     "6dac2c4b6e30d87c2f2b736a2c0df00141db616cea8afaf90c00f3f1d4959465"),
    ('smyth numfield --action pipeline --m -7 --alpha w --format text', 0,
     "96e49ca0cf7e639d558c92d303c07ec0ff2e4845ae47096c5d838407bd893c49"),
    ('smyth numfield --action rou --m -3 --coeffs "1;1;1" --format text', 0,
     "86c5f84ad74018a5ee8f79212b35b8da73d180180c5b8dde51ea5f1a9b1cf566"),
    ('smyth numfield --action check --m -15 --coeffs "1;1;w"', 1,
     "231e738ff53d6f66065cc3355a65f209a1b524ee591901f180da26797ec2d747"),
    ("smyth verify cert.json", 0,
     "e7ed99a18c077fd09cafc2a5d54ec2e7a7d9b961e0ec93e4fa26a714416cc24a"),
    ("smyth batch --grid grid.csv --format csv", 0,
     "09552e3c7f6c63f657afb91c77c9988025eec909b49275c11e7b861e44dcbe52"),
]
CERTIFY_EXAMPLE = 'smyth certify --q 2 --coeffs "1;t;t+1" --N 1'


def readme_commands() -> set[str]:
    """Each `$ smyth` line of the README, without its `; echo $?` or redirection."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return {line[2:].replace("; echo $?", "").replace(" > cert.json", "")
            for line in lines if line.startswith("$ smyth ")}


GRID_CSV = "q,N,coeffs\n2,1,1;t;t+1\n2,2,1;t;t+1\n"


def test_readme_examples_are_all_pinned():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert f"$ printf '{GRID_CSV}' > grid.csv".replace("\n", "\\n") in readme
    assert readme_commands() == {command for command, _, _ in README_EXAMPLES}


@pytest.mark.parametrize("command, code, digest", README_EXAMPLES,
                         ids=[command for command, _, _ in README_EXAMPLES])
def test_readme_example_output(capsys, tmp_path, monkeypatch, command, code, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "grid.csv").write_text(GRID_CSV, encoding="utf-8")
    assert main(shlex.split(CERTIFY_EXAMPLE)[1:]) == 0
    (tmp_path / "cert.json").write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(shlex.split(command)[1:]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The repr of heuristic.p_n_closed_form and of limit_scan rows, pinned as the
# mpmath routine in tests/test_heuristic_reference.py computed them. The p_N
# grid spans q in {2, 3, 5, 7}, d <= 2, 3 <= n <= 5 and N <= 5; each entry
# lists log p_N for the group sizes, then the log group sizes, below. Each
# scan runs a growth schedule from `start` up to N = SCAN_TOP[q] and lists
# (log|G|, log p_N) per row.
HEURISTIC_GOLDEN = json.loads((ROOT / "tests" / "heuristic_golden.json").read_text(encoding="utf-8"))
PN_SIZES = ([{"group_size": g} for g in (1, 2, 3, 6, 24, 120, 720, 5040, 10 ** 6, 10 ** 12, 10 ** 30)]
            + [{"log_group_size": x} for x in (0.0, 0.5, 1.0, 2.5, 10.0, 33.3, 100.0, 300.7,
                                               1e300, -1e300)])
SCAN_TOP = {2: 10, 3: 6, 5: 4, 7: 3}
SCAN_SCHEDULES = [
    (1, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]),
    (1, [1.0] * 10),
    (1, [0.5] * 10),
    (1, [0.25, 3.5, 0.001, 7.0, 42.0, 1.5, 0.9, 100.0, 2.0, 0.1]),
    (2, [0.75, 1.25, 20.0, 0.01, 5.5, 1.0, 3.0, 0.3, 12.0]),
]
# the README's `heuristic --mode scan` example
README_SCAN = (2, 1, 3, 1, [1.0, 2.0, 3.0])


def pn_grid(q: int) -> dict:
    """Key -> (q, d, n, N) for the p_N grid entries of one q."""
    return {f"q={q} d={d} n={n} N={N}": (q, d, n, N)
            for d, n, N in itertools.product(range(3), range(3, 6), range(1, 6))}


def scan_grid() -> dict:
    """Key -> limit_scan arguments (q, d, n, start, growth) for every pinned scan."""
    scans = [README_SCAN]
    for q, top in SCAN_TOP.items():
        for d, n in itertools.product(range(3), range(3, 6)):
            scans += [(q, d, n, start, growth[:top - start + 1]) for start, growth in SCAN_SCHEDULES]
    return {f"q={q} d={d} n={n} start={start} growth={','.join(map(repr, growth))}":
            (q, d, n, start, growth) for q, d, n, start, growth in scans}


def test_heuristic_golden_covers_the_grids():
    pn_keys = set().union(*map(pn_grid, SCAN_TOP))
    assert set(HEURISTIC_GOLDEN["p_n"]) == pn_keys
    assert {len(v) for v in HEURISTIC_GOLDEN["p_n"].values()} == {len(PN_SIZES)} == {21}
    assert set(HEURISTIC_GOLDEN["scan"]) == set(scan_grid())
    assert "q=2 d=1 n=3 N=1" in pn_keys and {"group_size": 2} in PN_SIZES  # README `--mode pn`


@pytest.mark.parametrize("q", sorted(SCAN_TOP))
def test_p_n_closed_form_repr(q):
    changed = {}
    for key, args in pn_grid(q).items():
        reprs = [repr(p_n_closed_form(*args, **size)) for size in PN_SIZES]
        if reprs != HEURISTIC_GOLDEN["p_n"][key]:
            changed[key] = reprs
    assert changed == {}


def test_limit_scan_rows_repr():
    changed = {}
    for key, (q, d, n, start, growth) in scan_grid().items():
        rows = [[repr(r.log_group_size), repr(r.log_p)]
                for r in limit_scan(q, d, n, growth, start=start)]
        if rows != HEURISTIC_GOLDEN["scan"][key]:
            changed[key] = rows
    assert changed == {}
