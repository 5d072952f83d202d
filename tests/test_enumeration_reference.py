"""The column enumeration of T_N against a frozen copy of the row-packed one.

`reference_kernel_indices` is `_kernel_indices` as it was before T_N was
enumerated a column at a time: every kernel vector a packed int of nN
digits, the q^k rows formed one by one as sums of multiples of the basis
vectors (`_combinations`, `_digit_adder`), sorted as ints and cut into the
V_N index of each coordinate. `reference_balanced_multiset` runs it with the
per-row relation check, the balance check and the old rank-and-sort
(`reference_ranked`), and `reference_enumerate` is the old `_solution_pool`.
Their basis of T_N is the per-N elimination the library ran before it read
T_N off one minimal syzygy basis: the nN columns a_i * t^k of the relation
(`reference_relation_columns`), reduced over F_q by a reduced row echelon
form of this file's own (`reference_kernel`). Only the budget refusal comes
from `smyth.core`. A test may hand the reference a basis instead, as the
corrupted-basis test does with the shifts of the generators it patches into
`core._syzygy_basis`.

The library must give the same multiset (values and rows), the same
document bytes and the same enumeration, or raise the same exception with
the same message, member and count. Its minimal syzygy bases must give the
elimination's dim T_N, span and zero-fiber dimensions, non-coprime
sub-tuples included, and `fiber_count` the elimination's fiber counts. `_relations_hold`, the check of every
row's relation at once, must agree with the per-row `_row_relations`.
"""
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smyth import core
from smyth.algebra import FieldParams, many_gcd, parse_poly, poly_from_index
from smyth.core import (
    DEFAULT_BUDGET,
    BalancedMultiset,
    CoeffTuple,
    balanced_multiset,
    check_criteria,
    enumerate_solutions,
    fiber_count,
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


def reference_echelon(rows, q):
    """The reduced row echelon form over F_q of rows, and its pivot columns."""
    rows = [[x % q for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(x - row[c] * y) % q for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows, pivots


def reference_kernel(columns, q):
    """A basis over F_q of the right kernel of the matrix with these columns,
    each a list of ints: one vector per free column of the echelon form."""
    rows, pivots = reference_echelon(list(map(list, zip(*columns))), q)
    basis = []
    for f in range(len(columns)):
        if f not in pivots:
            v = [0] * len(columns)
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = -rows[r][f] % q
            basis.append(v)
    return basis


def padded(p, length):
    return list(p.coeffs) + [0] * (length - len(p.coeffs))


def reference_relation_columns(coeffs, N):
    """The nN columns of x -> sum(c_i x_i) on V_N^n as N + d coefficients
    (d the largest degree): column (n - 1 - i) * N + k is c_i * t^k, so a
    kernel vector lists x_n first."""
    n = len(coeffs)
    length = N + max(c.degree for c in coeffs)
    return [padded(coeffs[n - 1 - p // N] * coeffs[0].field.poly([0] * (p % N) + [1]), length)
            for p in range(n * N)]


def reference_kernel_indices(a, N, budget, basis=None):
    """V_N and, per coordinate, the V_N index of every row's value, rows in
    lexicographic order of their value indices, the zero tuple first; the
    rows are the span of basis, by default the elimination's basis of T_N."""
    field, q, n = a.field, a.field.q, a.n
    core._refuse_past_budget("enumeration", q, N * (n - 1), budget)
    if basis is None:
        basis = reference_kernel(reference_relation_columns(a.coeffs, N), q)
    w = _ref_digit_width(q)
    generators = [[_ref_pack([c * x % q for x in v], w) for c in range(1, q)] for v in basis]
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


def reference_balanced_multiset(a, N, budget=DEFAULT_BUDGET, basis=None):
    report = check_criteria(a)
    if not report.passes:
        raise NotSmythTupleError(
            f"{a} fails the absolute value criteria "
            f"(infinite place ok: {report.infinite_place_ok}, "
            f"finite places ok: {report.finite_places_ok}); "
            "no balanced multiset exists for such a tuple"
        )
    core._check_N(a, N)
    vn, coords = reference_kernel_indices(a, N, budget, basis)
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


def shifts(generators, n, N):
    """The vectors t^j * s, j < N - deg s, of generators as _syzygy_basis
    gives them, in the reference's layout of nN coefficients, x_n first."""
    vectors = []
    for k, s in generators:
        for j in range(N - k):
            v = [0] * (n * N)
            for i, coords in enumerate(s):
                v[(n - 1 - i) * N + j:(n - 1 - i) * N + j + len(coords)] = coords
            vectors.append(v)
    return vectors


@pytest.mark.parametrize("q, texts, N", [
    (2, ("1", "t", "t+1"), 2),
    (3, ("t+1", "2*t", "2"), 2),
    (2, ("t^2+1", "t^2+t", "1", "t"), 2),
])
def test_corrupted_basis_names_the_reference_member(monkeypatch, q, texts, N):
    a = tup(q, *texts)
    generators = core._syzygy_basis(a.coeffs)
    for g, (_, s) in enumerate(generators):
        for i, coords in enumerate(s):
            for e in range(len(coords)):
                bad = [(k, [list(c) for c in t]) for k, t in generators]
                bad[g][1][i][e] = (bad[g][1][i][e] + 1) % q
                monkeypatch.setattr(core, "_syzygy_basis", lambda coeffs, bad=bad: bad)
                want = outcome(reference_balanced_multiset, a, N, DEFAULT_BUDGET,
                               shifts(bad, a.n, N))
                assert want[0] == "RelationViolationError"
                assert outcome(balanced_multiset, a, N) == want, (g, i, e)


# ---------------------------------------------------------------------------
# the minimal syzygy basis against the per-N elimination


@st.composite
def syzygy_cases(draw):
    """A coprime tuple of height 0 to 3 and N from the height up. In most
    cases all coefficients but one share a factor, so that a sub-tuple
    without one coefficient is not coprime."""
    q = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(3, 5))
    field = FieldParams(q)
    height = draw(st.integers(0, 3))

    def poly(degree):
        low = draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree))
        return field.poly(low + [draw(st.integers(1, q - 1))])

    common = poly(draw(st.integers(0, height)))
    rest = height - common.degree
    coeffs = [common * poly(rest)]
    coeffs += [common * poly(draw(st.integers(0, rest))) for _ in range(n - 2)]
    coeffs.append(poly(draw(st.integers(0, height))))
    order = draw(st.permutations(range(n)))
    a = CoeffTuple.make(field, [coeffs[i] for i in order])
    return a, a.height + draw(st.integers(0, 3))


def assert_basis_spans_kernel(coeffs, N):
    """The shifts of coeffs' minimal basis lie in the elimination's kernel on
    V_N^n and are as many as its dimension and independent, so they span
    it; returns that dimension."""
    q, n = coeffs[0].field.q, len(coeffs)
    generators = core._syzygy_basis(coeffs)
    assert len(generators) == n - 1
    assert sum(k for k, _ in generators) == max(c.degree for c in coeffs) - many_gcd(coeffs).degree
    columns = reference_relation_columns(coeffs, N)
    dimension = len(reference_kernel(columns, q))
    vectors = shifts(generators, n, N)
    for v in vectors:
        assert not any(sum(x * col[r] for x, col in zip(v, columns)) % q
                       for r in range(len(columns[0])))
    assert len(vectors) == len(reference_echelon(vectors, q)[1]) == dimension
    assert core._dimension(coeffs, N) == dimension
    return dimension


def reference_fiber_count(a, N, j, x):
    """q^(dimension of the zero fiber) when -a_j * x is in the span of the
    other coordinates' columns, else 0."""
    q, n = a.field.q, a.n
    columns = reference_relation_columns(a.coeffs, N)
    others = columns[:(n - j) * N] + columns[(n - j + 1) * N:]
    zero = len(reference_kernel(others, q))
    reached = len(reference_kernel(others + [padded(a.coeffs[j - 1] * x, len(columns[0]))], q))
    return q ** zero if reached > zero else 0


@given(syzygy_cases(), st.data())
@settings(max_examples=100, deadline=None)
def test_syzygy_basis_matches_elimination(case, data):
    a, N = case
    q, n, c = a.field.q, a.n, a.coeffs
    k = assert_basis_spans_kernel(c, N)
    zero_fibers = [assert_basis_spans_kernel(c[:i] + c[i + 1:], N) for i in range(n)]
    if N < 1:
        return
    budget = q ** (N * n)
    assert core.solution_dimensions(a, N, budget) == (k, zero_fibers)
    for j in range(1, n + 1):
        for index in (0, data.draw(st.integers(0, q ** N - 1))):
            x = poly_from_index(a.field, index)
            assert fiber_count(a, N, j, x, budget) == reference_fiber_count(a, N, j, x)
