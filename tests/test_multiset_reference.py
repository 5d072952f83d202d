"""The multiset verifier against a frozen reference copy of its older form.

`reference_verify` is the `balanced` / `certificate` verifier as it was
before verification moved to value indices: every entry parsed on its own,
every row relation checked with ring arithmetic, and `tuples` checked by
rebuilding the multiset member by member and converting it again. It keeps
its own copies of the multiset construction and the certificate conversion,
so it does not follow later changes to `smyth.core`.

Each single-edit class is applied to every F_q[t] and integer document of
the stored corpus, valid and tampered, and the reference and `verify_doc`
must reach the same outcome: the same boolean, or the same exception class.

`relation_holds` and `is_balanced` are the member-by-member checks that
`BalancedMultiset.make` ran before it checked value indices with
`smyth.core._row_relations` and `smyth.core._balanced`. `_ref_make` builds
on them, and a property test holds `make` to it over Z, F_q[t], `QuadInt`
and `CycInt`: the same multiset, or the same exception class, and a
`RelationViolationError` names the same member.
"""
import functools
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smyth.algebra import FieldParams, parse_poly
from smyth.core import BalancedMultiset, CoeffTuple, PermutationCertificate, sort_key_of
from smyth.errors import ParseError, RelationViolationError
from smyth.quadratic import CycInt, QuadField, cyclotomic_poly
from smyth.serialize import verify_doc

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"
MANIFEST = json.loads((CORPUS / "manifest.json").read_text(encoding="utf-8"))["entries"]
MULTISET_FILES = sorted(e["file"] for e in MANIFEST
                        if e["slot"].startswith(("fqt-", "int-")))


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


def relation_holds(coeffs, member):
    """Whether sum(c_i * x_i) is zero, over any exact ring."""
    s = 0
    for c, x in zip(coeffs, member):
        s = s + c * x
    return not s


def is_balanced(coeffs, members):
    """True iff every coordinate carries the same value multiset.

    Every member must satisfy the linear relation; a violator raises
    RelationViolationError naming it.
    """
    n = len(coeffs)
    for m in members:
        if len(m) != n:
            raise RelationViolationError(f"member {m} has arity {len(m)}, expected {n}", member=m)
        if not relation_holds(coeffs, m):
            raise RelationViolationError(
                f"member {tuple(str(v) for v in m)} violates the linear relation", member=m)
    counters = [Counter(m[i] for m in members) for i in range(n)]
    return all(c == counters[0] for c in counters[1:])


def _ref_member_sort_key(member):
    return tuple(sort_key_of(v) for v in member)


def _ref_make(coeffs, members):
    ordered = sorted((tuple(m) for m in members), key=_ref_member_sort_key)
    if not ordered:
        raise ValueError("balanced multiset must be nonempty")
    for m in ordered:
        if not any(bool(v) for v in m):
            raise ValueError("balanced multiset must not contain the zero tuple")
    if not is_balanced(coeffs, ordered):
        raise ValueError("coordinate value multisets differ: not balanced")
    return tuple(ordered)


def _ref_certificate(n, rows):
    last_slots = {}
    for k, row in enumerate(rows):
        last_slots.setdefault(row[n - 1], []).append(k)
    perms = []
    for i in range(n):
        avail = {v: iter(idxs) for v, idxs in last_slots.items()}
        perms.append(tuple([next(avail[row[i]]) for row in rows]))
    kernel = tuple(rows[k][n - 1] for k in range(len(rows)))
    return PermutationCertificate(m=len(rows), perms=tuple(perms), kernel=kernel)


def _ref_verify_certificate(coeffs, cert):
    if len(cert.perms) != len(coeffs):
        raise ValueError("permutation count differs from the arity")
    m = cert.m
    if len(cert.kernel) != m:
        raise ValueError("kernel vector length differs from certificate dimension")
    if cert.perms[-1] != tuple(range(m)):
        return False
    if not any(bool(v) for v in cert.kernel):
        return False
    v = cert.kernel
    return all(relation_holds(coeffs, [v[p[k]] for p in cert.perms]) for k in range(m))


def reference_verify(doc):
    for key in ("n", "coeffs", "m", "permutations", "kernel_vector"):
        if key not in doc:
            raise ParseError(f"document is missing fields: {key}")
    ring = doc.get("ring", "fqt")
    if ring == "fqt":
        if "q" not in doc:
            raise ParseError("document is missing fields: q")
        field = FieldParams(_ref_int(doc["q"], "q"))
        entry = functools.partial(parse_poly, field)
    elif ring == "int":
        entry = _ref_int
    else:
        raise ParseError(f"unknown ring {ring!r}")
    coeffs = tuple(entry(c) for c in doc["coeffs"])
    if ring == "fqt":
        CoeffTuple.make(field, coeffs)
    if len(coeffs) != _ref_int(doc["n"], "n") or not all(coeffs):
        return False
    m = _ref_int(doc["m"], "m")
    perms = _ref_zero_based(doc["permutations"], m)
    if perms is None or len(perms) != len(coeffs):
        return False
    kernel = tuple(entry(v) for v in doc["kernel_vector"])
    if len(kernel) != m:
        return False
    cert = PermutationCertificate(m=m, perms=tuple(perms), kernel=kernel)
    if not _ref_verify_certificate(coeffs, cert):
        return False
    if "tuples" in doc:
        members = [tuple(entry(v) for v in row) for row in doc["tuples"]]
        try:
            rows = _ref_make(coeffs, members)
        except ValueError:
            return False
        if _ref_certificate(len(coeffs), rows) != cert:
            return False
    return True


# ---------------------------------------------------------------------------
# single-edit classes


def _replacements(doc, value, rng):
    """Other values for one entry: another entry of the document, zero, a
    value of higher degree or size, the same value spelled differently, and
    text that does not parse."""
    entries = doc["kernel_vector"] + [v for row in doc.get("tuples", []) for v in row]
    out = [rng.choice(entries)]
    if doc.get("ring") == "int":
        out += [0, value + 7, -value, str(value)]
    else:
        out += ["0", "t^9+1", " + ".join(reversed(value.split("+"))), "x"]
    return out


def _edits(doc, rng, picks=6):
    """(label, edited copy) for each single-edit class, at sampled places."""
    def copy():
        return json.loads(json.dumps(doc))

    tuples = doc.get("tuples", [])
    m = len(tuples)
    for _ in range(picks if m >= 2 else 0):
        i, j = rng.sample(range(m), 2)
        bad = copy()
        bad["tuples"][i], bad["tuples"][j] = bad["tuples"][j], bad["tuples"][i]
        yield f"swap rows {i} {j}", bad
        c = rng.randrange(len(tuples[i]))
        bad = copy()
        bad["tuples"][i][c], bad["tuples"][j][c] = bad["tuples"][j][c], bad["tuples"][i][c]
        yield f"swap column {c} entries of rows {i} {j}", bad
    for r in range(3 if m else 0):
        bad = copy()
        rng.shuffle(bad["tuples"])
        yield f"reorder rows {r}", bad
    if m:
        bad = copy()
        bad["tuples"].reverse()
        yield "reverse rows", bad
    for _ in range(picks if m else 0):
        r = rng.randrange(m)
        c = rng.randrange(len(tuples[r]))
        for value in _replacements(doc, tuples[r][c], rng):
            bad = copy()
            bad["tuples"][r][c] = value
            yield f"tuples[{r}][{c}] = {value!r}", bad
    kernel = doc["kernel_vector"]
    for _ in range(picks):
        k = rng.randrange(len(kernel))
        for value in _replacements(doc, kernel[k], rng):
            bad = copy()
            bad["kernel_vector"][k] = value
            yield f"kernel_vector[{k}] = {value!r}", bad
    for _ in range(picks):
        p = rng.randrange(len(doc["permutations"]))
        a, b = rng.sample(range(len(doc["permutations"][p])), 2)
        bad = copy()
        row = bad["permutations"][p]
        row[a], row[b] = row[b], row[a]
        yield f"permutations[{p}] swap {a} {b}", bad


def outcome(verify, doc):
    try:
        return verify(doc)
    except Exception as err:  # noqa: BLE001 - the class is the outcome
        return type(err).__name__


def test_corpus_has_multiset_documents():
    assert len(MULTISET_FILES) == 42


@pytest.mark.parametrize("name", MULTISET_FILES)
def test_reference_and_verifier_agree_on_every_edit(name):
    doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    assert outcome(verify_doc, doc) == outcome(reference_verify, doc)
    rng = random.Random(name)
    verdicts = Counter()
    for label, bad in _edits(doc, rng):
        want = outcome(reference_verify, bad)
        assert outcome(verify_doc, bad) == want, label
        verdicts[want] += 1
    assert verdicts[False] > 0


# ---------------------------------------------------------------------------
# BalancedMultiset.make against _ref_make


def _fqt_ring(q):
    field = FieldParams(q)
    digit = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    # adding q to every digit spells the same polynomial
    return (st.lists(digit, max_size=3).map(field.poly),
            lambda v: field.poly([c + q for c in v.coeffs]))


def _quad_ring(m):
    K = QuadField(m)
    small = st.integers(-3, 3)
    # an equal field object that is not the same one
    return (st.tuples(small, small).map(lambda xy: K.element(*xy)),
            lambda v: QuadField(m).element(v.x, v.y))


def _cyc_ring(order):
    phi = cyclotomic_poly(order)
    coeffs = st.lists(st.integers(-2, 2), max_size=len(phi) - 1)
    # adding the cyclotomic polynomial spells the same element
    return (coeffs.map(lambda cs: CycInt.make(order, cs)),
            lambda v: CycInt.make(order, [a + b for a, b in
                                          itertools.zip_longest(v.coeffs, phi, fillvalue=0)]))


RINGS = {
    "int": (st.integers(-4, 4), lambda v: int(str(v))),
    "fqt2": _fqt_ring(2),
    "fqt3": _fqt_ring(3),
    "fqt5": _fqt_ring(5),
    "fqtP": _fqt_ring(2**61 - 1),
    "quad-7": _quad_ring(-7),
    "quad5": _quad_ring(5),
    "cyc3": _cyc_ring(3),
    "cyc4": _cyc_ring(4),
}


@st.composite
def make_inputs(draw):
    """Coefficients k * (1, 1, -2) or k * (1, 1, -1, -1) and members built
    from solutions (x, x, ...) and (x + d, x - d, x, ...), some of them then
    broken: a violator, a wrong arity, the zero tuple, an unmatched
    (x + d, x - d, ...) that leaves the set unbalanced, or a member spelled
    a second way."""
    elements, respell = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    k = draw(elements.filter(bool))
    tail = draw(st.sampled_from([(-2,), (-1, -1)]))
    coeffs = tuple(k * c for c in (1, 1) + tail)
    rest = len(tail)
    members = []
    kinds = ["diag", "pair", "pair", "pair", "half", "violator", "arity", "zero", "respell"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        x, d = draw(elements.filter(bool)), draw(elements)
        solution = (x + d, x - d) + (x,) * rest
        if kind == "diag":
            members.append((x,) * (2 + rest))
        elif kind == "pair":
            members += [solution, (x - d, x + d) + (x,) * rest]
        elif kind == "half":
            members.append(solution)
        elif kind == "violator":
            i = draw(st.integers(0, 1 + rest))
            members.append(solution[:i] + (solution[i] + draw(elements),) + solution[i + 1:])
        elif kind == "arity":
            members.append(solution[:-1] if draw(st.booleans()) else solution + (x,))
        elif kind == "zero":
            members.append((x - x,) * (2 + rest))
        elif members:
            members.append(tuple(map(respell, draw(st.sampled_from(members)))))
    return coeffs, draw(st.permutations(members))


def _make_outcome(make, coeffs, members):
    try:
        return make(coeffs, members)
    except RelationViolationError as err:
        return RelationViolationError, err.member
    except ValueError as err:
        return type(err)


@given(make_inputs())
@settings(max_examples=300, deadline=None)
def test_make_agrees_with_reference_make(inputs):
    coeffs, members = inputs
    got = _make_outcome(BalancedMultiset.make, coeffs, members)
    want = _make_outcome(_ref_make, coeffs, members)
    if isinstance(got, BalancedMultiset):
        got = got.members
    assert got == want
