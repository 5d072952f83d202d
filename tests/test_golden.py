"""Golden corpus: the stored verify corpus keeps its verdicts and its bytes.

perfbench/corpus holds 87 documents, valid ones from smyth's producers and
tampered copies, with a sha256 manifest and the verdict each must get. These
tests read the corpus and never write it.
"""
import hashlib
import json
from pathlib import Path

import pytest

from smyth import CoeffTuple, FieldParams, balanced_multiset, canonical_json, multiset_doc
from smyth.cli import main
from smyth.serialize import parse_json, verify_doc

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
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


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


def test_manifest_covers_the_corpus():
    assert len(MANIFEST) == 87
    assert {e["file"] for e in MANIFEST} == {p.name for p in CORPUS.glob("*.json")} - {"manifest.json"}
    valid_fqt = {e["slot"] for e in MANIFEST
                 if e["valid"] and e["slot"].startswith("fqt-")}
    assert valid_fqt == set(FQT_SLOTS)


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
