"""`smyth verify` on mutated corpus documents: an exit code, never a crash.

Each example starts from a document of the stored corpus and applies a few
mutations: drop a key, change a value's type, nest a value in lists, or put
a huge integer or a long string in its place. `cli.main(["verify", path])`
runs in process under a per-example deadline and must return 0, 1 or 2;
no exception may escape it.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smyth.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))["entries"]
DOCS = [json.loads((CORPUS / e["file"]).read_text(encoding="utf-8")) for e in MANIFEST]

HUGE = [10**400, -10**400, 2**63, -2**63, 2**63 - 1, 2**64 + 1, 2**61 - 1]
ODD = [None, True, False, 0, -1, 1.5, "", "x", "t", "w", [], {}, [[]], ["1", 1]]
LONG = ["t" * 5000, "1" * 5000, "t^65536", "w" * 5000, "9" * 4000 + "*w"]


def _paths(node, prefix=()):
    """Every path to a node of the document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCS))))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))[1:]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent, key = _get(doc, path[:-1]), path[-1]
        old = parent[key]
        how = draw(st.sampled_from(["drop", "type", "nest", "huge", "long"]))
        if how == "drop":
            del parent[key]
            continue
        if how == "type":
            new = draw(st.sampled_from(ODD + [str(old), [old], {"v": old}]))
        elif how == "nest":
            new = [old] * draw(st.integers(1, 3))
            if draw(st.booleans()):
                new = [new]
        elif how == "huge":
            new = draw(st.sampled_from(HUGE))
        else:
            new = draw(st.sampled_from(LONG))
        # a copy, so that no later mutation edits a shared or aliased value
        parent[key] = json.loads(json.dumps(new))
    return doc


@settings(max_examples=150, deadline=2000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutated_documents())
def test_verify_exits_cleanly_on_mutated_documents(doc):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
