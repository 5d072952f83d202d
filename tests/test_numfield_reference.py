"""The numfield verifier against a frozen reference copy of its older form.

`reference_verify` is the `numfield` verifier as it was before the eigen
identity moved to integer coordinates: every eigenvector entry parsed on its
own, and `reference_matrix_fixes` summing each row with `QuadInt`
arithmetic. It keeps its own copies of the permutation reading and the
permutation sum, so it does not follow later changes to `smyth.numfield` or
`smyth.serialize`.

Each single-edit class is applied to every numfield document of the stored
corpus, valid and tampered, and the reference and `verify_doc` must reach
the same outcome: the same boolean, or the same exception class.
`matrix_fixes`, the library's one eigen check, takes index lists where
`reference_matrix_fixes` takes the dense matrix they sum to. The two are
compared on drawn index lists and vectors, and `matrix_fixes` must refuse a
zero vector and a vector whose length differs from the lists'.
"""
import itertools
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smyth.errors import ParseError
from smyth.numfield import matrix_fixes
from smyth.quadratic import QuadField, parse_quadint
from smyth.serialize import verify_doc

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))["entries"]
NUMFIELD_FILES = sorted(e["file"] for e in MANIFEST if e["slot"].startswith("numfield-"))


# ---------------------------------------------------------------------------
# the reference verifier


def _ref_int(value, what="entry"):
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _ref_zero_based(perms, m):
    out = []
    for p in perms:
        row = [_ref_int(k, "permutation entry") - 1 for k in p]
        if len(row) != m or sorted(row) != list(range(m)):
            return None
        out.append(tuple(row))
    return out


def _ref_permutation_sum(perms, size):
    rows = [[0] * size for _ in range(size)]
    for p in perms:
        for k, image in enumerate(p):
            rows[k][image] += 1
    return tuple(map(tuple, rows))


def reference_matrix_fixes(matrix, vec, alpha):
    for i, row in enumerate(matrix):
        acc = alpha.field.zero
        for j in itertools.compress(range(len(row)), row):
            acc = acc + row[j] * vec[j]
        if acc != alpha * vec[i]:
            return False
    return True


def reference_verify(doc):
    for key in ("m", "omega", "alpha", "n", "matrix", "permutations", "eigenvector"):
        if key not in doc:
            raise ParseError(f"document is missing fields: {key}")
    K = QuadField(_ref_int(doc["m"], "m"))
    if doc["omega"] != K.omega_label:
        return False
    alpha = parse_quadint(K, doc["alpha"])
    n = _ref_int(doc["n"], "n")
    matrix = tuple(tuple(_ref_int(v, "matrix entry") for v in row) for row in doc["matrix"])
    dim = len(matrix)
    if any(len(row) != dim for row in matrix):
        return False
    perms = _ref_zero_based(doc["permutations"], dim)
    if not perms or len(perms) != n - 1:
        return False
    if _ref_permutation_sum(perms, dim) != matrix:
        return False
    vec = tuple(parse_quadint(K, s) for s in doc["eigenvector"])
    if len(vec) != dim or not any(bool(v) for v in vec):
        return False
    return reference_matrix_fixes(matrix, vec, alpha)


# ---------------------------------------------------------------------------
# single-edit classes


def _respelled(text):
    """The same quadratic integer with its terms in reverse order."""
    terms = re.findall(r"[+-]?[^+-]+", text.replace(" ", ""))
    out = "".join(t if t[0] in "+-" else "+" + t for t in reversed(terms))
    return out[1:] if out.startswith("+") else out


def _replacements(doc, value, rng):
    """Other values for one eigenvector entry or alpha: another entry, zero,
    the value one unit away in each coordinate, the same value spelled
    differently, text that does not parse, and a JSON integer."""
    return [rng.choice(doc["eigenvector"]), "0", f"{value}+1", f"{value}-w",
            _respelled(value), "x", 3]


def _edits(doc, rng, picks=4):
    """(label, edited copy) for each single-edit class, at sampled places."""
    def copy():
        return json.loads(json.dumps(doc))

    vec = doc["eigenvector"]
    for _ in range(picks):
        k = rng.randrange(len(vec))
        for value in _replacements(doc, vec[k], rng):
            bad = copy()
            bad["eigenvector"][k] = value
            yield f"eigenvector[{k}] = {value!r}", bad
    for value in _replacements(doc, doc["alpha"], rng) + ["w"]:
        bad = copy()
        bad["alpha"] = value
        yield f"alpha = {value!r}", bad
    for value in ("half", "sqrt", "cube", 1):
        bad = copy()
        bad["omega"] = value
        yield f"omega = {value!r}", bad
    matrix = doc["matrix"]
    dim = len(matrix)
    for _ in range(picks):
        r, c = rng.randrange(dim), rng.randrange(dim)
        for value in (matrix[r][c] + 1, matrix[r][c] - 1, 0, "1", 1.0, True):
            bad = copy()
            bad["matrix"][r][c] = value
            yield f"matrix[{r}][{c}] = {value!r}", bad
    for _ in range(picks if dim >= 2 else 0):
        i, j = rng.sample(range(dim), 2)
        bad = copy()
        bad["matrix"][i], bad["matrix"][j] = bad["matrix"][j], bad["matrix"][i]
        yield f"swap matrix rows {i} {j}", bad
    for _ in range(picks if dim >= 2 else 0):
        p = rng.randrange(len(doc["permutations"]))
        a, b = rng.sample(range(dim), 2)
        bad = copy()
        row = bad["permutations"][p]
        row[a], row[b] = row[b], row[a]
        yield f"permutations[{p}] swap {a} {b}", bad


def outcome(verify, doc):
    try:
        return verify(doc)
    except Exception as err:  # noqa: BLE001 - the class is the outcome
        return type(err).__name__


def test_corpus_has_numfield_documents():
    assert len(NUMFIELD_FILES) == 36


@pytest.mark.parametrize("name", NUMFIELD_FILES)
def test_reference_and_verifier_agree_on_every_edit(name):
    doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    assert outcome(verify_doc, doc) == outcome(reference_verify, doc)
    rng = random.Random(name)
    verdicts = Counter()
    for label, bad in _edits(doc, rng):
        want = outcome(reference_verify, bad)
        assert outcome(verify_doc, bad) == want, label
        verdicts[want] += 1
    assert verdicts[False] > 0 and verdicts["ParseError"] > 0


# ---------------------------------------------------------------------------
# matrix_fixes on drawn inputs

FIELDS = [QuadField(m) for m in (-1, -3, -7, 2, 5)]
VALID = [json.loads((CORPUS / e["file"]).read_text(encoding="utf-8"))
         for e in MANIFEST if e["slot"].startswith("numfield-") and e["valid"]]


def _quadints(K, bound=4):
    return st.builds(K.element, st.integers(-bound, bound), st.integers(-bound, bound))


def dense(columns, dim):
    """The matrix whose row k has a unit at c[k] for each index list c."""
    rows = [[0] * dim for _ in range(dim)]
    for c in columns:
        for k, j in enumerate(c):
            rows[k][j] += 1
    return rows


def zero_based(perms):
    return [[k - 1 for k in p] for p in perms]


@st.composite
def drawn_cases(draw):
    """r index lists of small dimension with a vector and alpha, mostly
    failing the identity; a third of them have a constant vector and alpha
    the common row sum r, where the identity holds."""
    K = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 6))
    r = draw(st.integers(1, 4))
    if draw(st.integers(0, 2)):
        columns = [draw(st.lists(st.integers(0, dim - 1), min_size=dim, max_size=dim))
                   for _ in range(r)]
        vec = draw(st.lists(_quadints(K), min_size=dim, max_size=dim))
        return columns, vec, draw(_quadints(K))
    columns = [draw(st.permutations(range(dim))) for _ in range(r)]
    return columns, [draw(_quadints(K))] * dim, K.element(r)


@st.composite
def corpus_cases(draw):
    """A valid corpus certificate's permutations and eigenvector as given,
    or with one eigenvector entry one unit (1 or w, either sign) away."""
    doc = draw(st.sampled_from(VALID))
    K = QuadField(doc["m"])
    vec = [parse_quadint(K, s) for s in doc["eigenvector"]]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(vec) - 1))
        vec[k] = vec[k] + draw(st.sampled_from([K.element(1), K.element(-1),
                                                K.element(0, 1), K.element(0, -1)]))
    return zero_based(doc["permutations"]), vec, parse_quadint(K, doc["alpha"])


@st.composite
def foreign_cases(draw):
    """A vector whose entries all come from another field than alpha's."""
    K, L = draw(st.permutations(FIELDS))[:2]
    columns, vec, _ = draw(drawn_cases())
    vec = [L.element(v.x, v.y) for v in vec]
    return columns, vec, draw(_quadints(K))


@settings(max_examples=300, deadline=None)
@given(st.one_of(drawn_cases(), corpus_cases(), foreign_cases()))
def test_matrix_fixes_agrees_with_reference(case):
    """The reference accepts a zero vector, which is no witness; matrix_fixes
    refuses it before it compares fields."""
    columns, vec, alpha = case
    want = outcome(lambda args: reference_matrix_fixes(dense(columns, len(vec)), *args),
                   (vec, alpha)) if any(vec) else False
    assert outcome(lambda args: matrix_fixes(*args), case) == want


@st.composite
def resized_cases(draw):
    """A drawn case whose vector is one or two entries short or long."""
    columns, vec, alpha = draw(drawn_cases())
    k = draw(st.sampled_from([-2, -1, 1, 2]))
    if k < 0:
        return columns, vec[:k], alpha
    return columns, vec + draw(st.lists(_quadints(alpha.field), min_size=k, max_size=k)), alpha


@settings(max_examples=100, deadline=None)
@given(resized_cases())
def test_matrix_fixes_refuses_a_vector_of_another_length(case):
    """matrix_fixes answers False for a short or a long vector. The
    reference never accepts a short one (it returns False or raises
    IndexError) and ignores the tail of a long one."""
    columns, vec, alpha = case
    assert matrix_fixes(columns, vec, alpha) is False
    if len(vec) < len(columns[0]):
        assert outcome(lambda args: reference_matrix_fixes(*args),
                       (dense(columns, len(columns[0])), vec, alpha)) in (False, "IndexError")


def test_matrix_fixes_examples():
    K = QuadField(-3)
    w = K.element(0, 1)
    doc = json.loads((CORPUS / "numfield-d3.json").read_text(encoding="utf-8"))
    perms = zero_based(doc["permutations"])
    vec = [parse_quadint(K, s) for s in doc["eigenvector"]]
    assert reference_matrix_fixes(doc["matrix"], vec, w)
    assert matrix_fixes(perms, vec, w)
    assert not matrix_fixes(perms, [vec[0] + 1] + vec[1:], w)
    assert not matrix_fixes(perms, vec, w + 1)
    assert not matrix_fixes(perms, [K.zero] * len(vec), w)
    assert not matrix_fixes(perms, vec[:-1], w)
    with pytest.raises(ValueError):
        matrix_fixes(perms, [QuadField(-1).element(v.x, v.y) for v in vec], w)
    # an int alpha is taken in the vector's field
    assert matrix_fixes([[0, 1], [1, 0]], [K.element(1)] * 2, 2)
