"""The column enumeration of T_N against a frozen copy of the row-packed one.

`reference_kernel_indices` is `_kernel_indices` as it was before T_N was
enumerated a column at a time: every kernel vector a packed int of nN
digits, the q^k rows formed one by one as sums of multiples of the basis
vectors (`_combinations`, `_digit_adder`), sorted as ints and cut into the
V_N index of each coordinate. `reference_balanced_multiset` runs it with the
per-row relation check, the balance check and the old rank-and-sort
(`reference_ranked`), and `reference_enumerate` is the old `_solution_pool`.
Both still take the relation's columns, the budget refusal and the kernel
basis from `smyth.core`, looked up at call time, so a test that patches
`core._column_kernel` corrupts the reference and the library alike.

The library must give the same multiset (values and rows), the same
document bytes and the same enumeration, or raise the same exception with
the same message, member and count. `_relations_hold`, the check of every
row's relation at once, must agree with the per-row `_row_relations`.
"""
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smyth import core
from smyth.algebra import FieldParams, parse_poly
from smyth.core import (
    DEFAULT_BUDGET,
    BalancedMultiset,
    CoeffTuple,
    balanced_multiset,
    check_criteria,
    enumerate_solutions,
    sort_key_of,
)
from smyth.errors import NotSmythTupleError
from smyth.serialize import canonical_json, multiset_doc

# ---------------------------------------------------------------------------
# the row-packed reference


def _ref_digit_width(q):
    return 1 if q == 2 else q.bit_length() + 1


def _ref_pack(digits, w):
    acc = 0
    for d in reversed(digits):
        acc = acc << w | d
    return acc


def _digit_adder(q, ndigits):
    """Digit-wise addition mod q of packed vectors of at most ndigits digits."""
    if q == 2:
        return lambda x, y: x ^ y
    w = _ref_digit_width(q)
    ones = _ref_pack([1] * ndigits, w)
    bias = ones * ((1 << (w - 1)) - q)
    top = ones << (w - 1)

    def add(x, y):
        s = x + y
        return s - (((s + bias) & top) >> (w - 1)) * q

    return add


def _combinations(add, generators):
    """All q^k sums of d_j * g_j over j < k, packed; generators[j] lists
    the packed multiples 1*g_j, ..., (q-1)*g_j."""
    sums = [0]
    for multiples in generators:
        sums += [add(s, b) for b in multiples for s in sums]
    return sums


def reference_kernel_indices(a, N, budget):
    """V_N and, per coordinate, the V_N index of every row's value, rows in
    lexicographic order of their value indices, the zero tuple first."""
    field, q, n = a.field, a.field.q, a.n
    columns = core._relation_columns(a, N, budget)
    w = _ref_digit_width(q)
    generators = [[_ref_pack([c * x % q for x in v], w) for c in range(1, q)]
                  for v in core._column_kernel(columns, N + a.height, q)]
    rows = _combinations(_digit_adder(q, n * N), generators)
    rows.sort()
    vn = core.vn_elements(field, N)
    index_of = {_ref_pack(x.coeffs, w): k for k, x in enumerate(vn)}
    mask = (1 << (w * N)) - 1
    return vn, [[index_of[(r >> (w * N * (n - 1 - i))) & mask] for r in rows]
                for i in range(n)]


def reference_ranked(coeffs, values, columns, used):
    used = sorted(used, key=lambda k: sort_key_of(values[k]))
    rank = [0] * len(values)
    for r, k in enumerate(used):
        rank[k] = r
    rows = sorted(zip(*(map(rank.__getitem__, col) for col in columns)))
    return BalancedMultiset(coeffs, tuple(map(values.__getitem__, used)), tuple(rows))


def reference_balanced_multiset(a, N, budget=DEFAULT_BUDGET):
    report = check_criteria(a)
    if not report.passes:
        raise NotSmythTupleError(
            f"{a} fails the absolute value criteria "
            f"(infinite place ok: {report.infinite_place_ok}, "
            f"finite places ok: {report.finite_places_ok}); "
            "no balanced multiset exists for such a tuple"
        )
    core._check_N(a, N)
    vn, coords = reference_kernel_indices(a, N, budget)
    coords = [idx[1:] for idx in coords]
    core._require_relations(a.coeffs, vn, coords)
    used = core._balanced(coords)
    if used is None:
        raise ValueError("coordinate value multisets differ: not balanced")
    return reference_ranked(a.coeffs, vn, coords, used)


def reference_enumerate(a, N, budget=DEFAULT_BUDGET):
    core._check_N(a, N)
    vn, coords = reference_kernel_indices(a, N, budget)
    return list(zip(*([vn[k] for k in idx] for idx in coords)))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as err:  # noqa: BLE001 - the class and message are the outcome
        return (type(err).__name__, str(err), getattr(err, "member", None),
                getattr(err, "required", None))


def tup(q, *texts):
    field = FieldParams(q)
    return CoeffTuple.make(field, [parse_poly(field, s) for s in texts])


def assert_matches_reference(a, N, budget=DEFAULT_BUDGET):
    """The library's multiset, its columns and its document against the
    reference's; returns the library's multiset, or None on an error."""
    got = outcome(balanced_multiset, a, N, budget)
    want = outcome(reference_balanced_multiset, a, N, budget)
    assert got == want
    if got[0] != "ok":
        return None
    b, ref = got[1], want[1]
    assert b.rows == ref.rows and b.values == ref.values
    assert tuple(map(tuple, b.columns)) == tuple(zip(*ref.rows)) == ref.columns
    doc = multiset_doc(b, kind="certificate", N=N)
    ref_doc = multiset_doc(ref, kind="certificate", N=N)
    text = canonical_json(doc)
    assert text == canonical_json(ref_doc)
    assert text == json.dumps(ref_doc, sort_keys=True, indent=2) + "\n"
    return b


# ---------------------------------------------------------------------------
# the library against the reference


@st.composite
def small_cases(draw):
    """A tuple whose first two coefficients share the top degree, N and a
    budget; in half the cases the budget admits the enumeration."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(3, 5))
    field = FieldParams(q)
    top = draw(st.integers(0, 2))
    coeffs = []
    for i in range(n):
        degree = top if i < 2 else draw(st.integers(0, top))
        low = draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree))
        coeffs.append(field.poly(low + [draw(st.integers(1, q - 1))]))
    a = CoeffTuple.make(field, coeffs)
    N = max(a.height, 1) + draw(st.integers(0, 2))
    budgets = [50, 500, 5000, 20000]
    if draw(st.booleans()):
        budgets = [b for b in budgets if q ** (N * (n - 1)) <= b]
        assume(budgets)
    return a, N, draw(st.sampled_from(budgets))


@given(small_cases())
@settings(max_examples=150, deadline=None)
def test_multiset_rows_and_document_bytes_match_reference(case):
    a, N, budget = case
    assert_matches_reference(a, N, budget)
    assert outcome(enumerate_solutions, a, N, budget) == outcome(reference_enumerate, a, N, budget)


# (q, coefficients, N, digit bits, index bytes, rows sorted as tuples):
# q^N past one byte of index, 512 and 729 values; 9 coordinates of one-byte
# ranks, 9 bytes a row, past a 64-bit sort key; digits of one and two bytes
WIDE = {
    "F2-height9-N9": (2, ("t^9+t+1", "t^9", "1"), 9, 1, 2, False),
    "F3-height5-N6": (3, ("t^5+t^2+2", "t^5+2*t", "1"), 6, 4, 2, False),
    "F2-n9-N2": (2, ("1", "t", "t+1", "1", "t", "t^2+t+1", "1", "t^2", "t^2+1"), 2,
                 1, 1, True),
    "F11-N2": (11, ("t^2+3", "5*t^2+t", "t+1"), 2, 8, 1, False),
    "F131-N1": (131, ("t+1", "2*t", "3"), 1, 16, 1, False),
}


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_indices_and_keys_match_reference(name):
    q, texts, N, w, index_size, as_tuples = WIDE[name]
    a = tup(q, *texts)
    b = assert_matches_reference(a, N)
    assert b is not None
    assert core._digit_width(q) == w
    assert core._index_columns(core._kernel_columns(a, N, DEFAULT_BUDGET))[1] == index_size
    assert (a.n * core._word_size(len(b.values)) > 8) == as_tuples
    assert (type(b.columns[0]) is tuple) == as_tuples
    assert enumerate_solutions(a, N) == reference_enumerate(a, N)


# ---------------------------------------------------------------------------
# the relation check of all rows at once


def pack_indices(q, N, columns):
    """Index columns in the slots _kernel_columns fills: row after row, each
    row's coordinates in order, each value's base-q digits w bits apart."""
    w = core._digit_width(q)
    size = core._word_size(1 << N * w)
    raw = bytearray()
    for row in zip(*columns):
        for k in row:
            slot = sum(k // q ** j % q << j * w for j in range(N))
            raw += slot.to_bytes(size, "little")
    return core._Packed(q, N, len(columns), w, size, len(columns[0]),
                        int.from_bytes(raw, "little"))


def column_check_agrees(coeffs, vn, columns):
    """Whether _relations_hold and _row_relations reach the same verdict;
    returns that verdict."""
    q = coeffs[0].field.q
    N = max(len(v.coeffs) for v in vn) or 1
    holds = core._relations_hold(coeffs, pack_indices(q, N, columns))
    assert holds == (not any(core._row_relations(coeffs, vn, columns)))
    return holds


@st.composite
def random_index_columns(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 131]))
    N = draw(st.integers(1, 3 if q < 100 else 1))
    n = draw(st.integers(3, 4))
    field = FieldParams(q)
    coeffs = tuple(field.poly(draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3))
                              + [draw(st.integers(1, q - 1))]) for _ in range(n))
    count = draw(st.integers(1, 12))
    index = st.integers(0, q ** N - 1)
    columns = [draw(st.lists(index, min_size=count, max_size=count)) for _ in range(n)]
    return coeffs, core.vn_elements(field, N), columns


@given(random_index_columns())
@settings(max_examples=200, deadline=None)
def test_column_check_agrees_with_row_check_on_random_columns(case):
    column_check_agrees(*case)


@pytest.mark.parametrize("q, texts, N", [
    (2, ("1", "t", "t+1"), 2),
    (3, ("t+1", "2*t", "2"), 2),
    (5, ("1", "2", "2"), 1),
    (7, ("t", "3*t+1", "1"), 1),
])
def test_column_check_refuses_every_single_entry_tamper(q, texts, N):
    a = tup(q, *texts)
    vn, columns = reference_kernel_indices(a, N, DEFAULT_BUDGET)
    assert column_check_agrees(a.coeffs, vn, columns)
    for i, col in enumerate(columns):
        for r, k in enumerate(col):
            for other in range(q ** N):
                if other != k:
                    tampered = [list(c) for c in columns]
                    tampered[i][r] = other
                    assert not column_check_agrees(a.coeffs, vn, tampered), (i, r, other)


@pytest.mark.parametrize("q, texts, N", [
    (2, ("1", "t", "t+1"), 2),
    (3, ("t+1", "2*t", "2"), 2),
    (2, ("t^2+1", "t^2+t", "1", "t"), 2),
])
def test_corrupted_basis_names_the_reference_member(monkeypatch, q, texts, N):
    a = tup(q, *texts)
    basis = core._column_kernel(core._relation_columns(a, N, DEFAULT_BUDGET), N + a.height, q)
    for j, vector in enumerate(basis):
        for e in range(len(vector)):
            bad = [list(v) for v in basis]
            bad[j][e] = (bad[j][e] + 1) % q
            monkeypatch.setattr(core, "_column_kernel", lambda *args, bad=bad: bad)
            want = outcome(reference_balanced_multiset, a, N)
            assert want[0] == "RelationViolationError"
            assert outcome(balanced_multiset, a, N) == want, (j, e)
