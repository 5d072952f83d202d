"""Rebuild the verify-corpus documents from the program.

    python3 perfbench/build_corpus.py [--seed N]

run from the repository root. Every document comes from smyth's own
producers. Each valid document is re-checked with the independent checkers
in oracle.py, and each tampered copy is derived from the seed and must be
rejected by them, so it breaks a defining equation. The documents and a
manifest with their sha256 go to perfbench/corpus/.

The corpus is fixed; the benchmark's --seed only sets the order of its
slots. (The time to verify an F_q[t] document varies by up to two orders of
magnitude between tuples of the same size, so documents drawn per seed
would make runs with different seeds do different amounts of work.)
"""
from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from oracle import Reject, canonical, check_doc, corruptions

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path(__file__).resolve().parent / "corpus"
TAMPERED_PER_DOC = 2

# slot name -> (producer, arguments)
SLOTS = {
    "fqt-m8-balanced": ("fqt", (3, ["2*t^2+2*t", "2*t^2+2*t+1", "2"], 2, "balanced")),
    "fqt-m8-certificate": ("fqt", (3, ["2*t^2+2*t+1", "t^2+2*t+2", "t"], 2, "certificate")),
    "fqt-m15-certificate": ("fqt", (2, ["t^2+1", "t^2", "1"], 3, "certificate")),
    "fqt-m15-balanced": ("fqt", (2, ["t^2", "t^2+1", "1"], 3, "balanced")),
    "fqt-m24-balanced": ("fqt", (5, ["3*t^2+3*t+1", "3*t+1", "2*t^2+4*t+3"], 2, "balanced")),
    "fqt-m26-certificate": ("fqt", (3, ["2", "t", "2*t+1"], 2, "certificate")),
    "fqt-m26-balanced": ("fqt", (3, ["t+1", "2*t", "2"], 2, "balanced")),
    "fqt-m31-balanced": ("fqt", (2, ["1", "t", "t+1"], 3, "balanced")),
    "fqt-m31-certificate": ("fqt", (2, ["1", "t", "1", "t"], 2, "certificate")),
    "fqt-m31-n4-balanced": ("fqt", (2, ["t+1", "1", "1", "t+1"], 2, "balanced")),
    "fqt-m63-certificate": ("fqt", (2, ["1", "t^2", "t^2+t+1"], 4, "certificate")),
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


def produce(kind: str, args) -> dict:
    import smyth
    from smyth.bounds import min_balanced_search
    from smyth.quadratic import QuadField, parse_quadint

    if kind == "fqt":
        q, coeffs, N, doc_kind = args
        a = smyth.CoeffTuple.make(smyth.FieldParams(q), coeffs)
        doc = smyth.multiset_doc(smyth.balanced_multiset(a, N), kind=doc_kind, N=N)
    elif kind == "int":
        coeffs, radius, size = args
        b = min_balanced_search(coeffs, radius, size)
        if b is None or b.size != size:
            raise SystemExit(f"no balanced multiset of size {size} for {coeffs}")
        doc = smyth.multiset_doc(b, kind="balanced")
    elif kind == "extremal-fqt":
        q, D, seed = args
        doc = smyth.extremal_doc(smyth.construct_extremal_fqt(q, D, seed=seed))
    elif kind == "extremal-int":
        doc = smyth.extremal_doc(smyth.construct_extremal_int(*args))
    else:
        m, alpha, n = args
        K = QuadField(m)
        doc = smyth.numfield_doc(smyth.numfield_pipeline(K, parse_quadint(K, alpha), n=n))
    text = smyth.canonical_json(doc)
    return json.loads(text)


def load_corpus(directory: Path) -> list[dict]:
    """Manifest entries with each document's text and parsed form.

    A file whose sha256 differs from the manifest stops the load.
    """
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    entries = []
    for entry in manifest["entries"]:
        text = (directory / entry["file"]).read_text(encoding="utf-8")
        if hashlib.sha256(text.encode()).hexdigest() != entry["sha256"]:
            raise ValueError(f"{entry['file']} differs from the manifest")
        entries.append(dict(entry, text=text, doc=json.loads(text)))
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="seed for the tampered copies")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    rng = random.Random(f"verify-corpus:{args.seed}")
    CORPUS.mkdir(exist_ok=True)
    for old in CORPUS.glob("*.json"):
        old.unlink()
    entries = []

    def store(name: str, doc: dict, **fields):
        text = canonical(doc)
        (CORPUS / name).write_text(text, encoding="utf-8")
        entries.append(dict(fields, file=name,
                            sha256=hashlib.sha256(text.encode()).hexdigest()))

    for slot, (kind, produce_args) in SLOTS.items():
        doc = produce(kind, produce_args)
        check_doc(doc)
        store(f"{slot}.json", doc, slot=slot, valid=True, tamper=None)
        candidates = list(corruptions(doc, rng))
        rng.shuffle(candidates)
        for label, bad in candidates[:TAMPERED_PER_DOC]:
            try:
                check_doc(bad)
            except Reject:
                pass
            else:
                raise SystemExit(f"{slot}: corruption {label} breaks no equation")
            store(f"{slot}-{label}.json", bad, slot=slot, valid=False, tamper=label)
        print(f"{slot}: {kind} {produce_args}", flush=True)
    manifest = {"seed": args.seed, "entries": entries}
    (CORPUS / "manifest.json").write_text(canonical(manifest), encoding="utf-8")
    print(f"wrote {len(entries)} documents to {CORPUS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
