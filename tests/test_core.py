"""Criteria, enumeration, and certificate tests over F_q[t]."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smyth.algebra import FieldParams, parse_poly
from smyth.core import (
    BalancedMultiset,
    CoeffTuple,
    PermutationCertificate,
    balanced_from_certificate,
    balanced_multiset,
    certificate_from_balanced,
    check_criteria,
    enumerate_solutions,
    fiber_count,
    poly_from_index,
    verify_certificate,
)
from smyth.errors import (
    BudgetExceededError,
    NoRelationError,
    NotSmythTupleError,
    RelationViolationError,
    TupleArityError,
)
from test_multiset_reference import is_balanced, relation_holds


def is_one_factor(b: BalancedMultiset) -> bool:
    """True iff the first-coordinate values are pairwise distinct."""
    firsts = [m[0] for m in b.members]
    return len(set(firsts)) == len(firsts)

F2 = FieldParams(2)
F3 = FieldParams(3)
F5 = FieldParams(5)
F7 = FieldParams(7)


def tup(field, *texts):
    return CoeffTuple.make(field, [parse_poly(field, s) for s in texts])


class TestCoeffTuple:
    def test_rejects_short_tuples(self):
        with pytest.raises(TupleArityError):
            tup(F2, "1", "t")

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            tup(F2, "1", "0", "t")

    def test_height(self):
        assert tup(F2, "1", "t", "t+1").height == 1
        assert tup(F2, "1", "t^2", "t^2+t+1").height == 2


class TestCriteria:
    def test_passing_cases(self):
        assert check_criteria(tup(F2, "1", "t", "t+1")).passes
        assert check_criteria(tup(F2, "1", "t^2", "t^2+t+1")).passes
        assert check_criteria(tup(F3, "1", "t", "t+1", "2*t+1")).passes
        assert check_criteria(tup(F5, "t", "t", "t", "t")).passes

    def test_max_degree_attained_once(self):
        rep = check_criteria(tup(F2, "1", "1", "t"))
        assert not rep.passes
        assert not rep.infinite_place_ok
        assert rep.finite_places_ok

    def test_complementary_gcd_failure(self):
        # both degree-1 coefficients share the factor t as seen from index 0
        rep = check_criteria(tup(F2, "1", "t", "t"))
        assert not rep.passes
        assert rep.infinite_place_ok
        assert not rep.finite_places_ok
        assert rep.witness_index == 0
        assert not rep.witness_divisor.is_unit

    def test_scaling_invariance(self):
        a = tup(F2, "1", "t", "t+1")
        s = parse_poly(F2, "t^2+t+1")
        scaled = CoeffTuple.make(F2, [c * s for c in a.coeffs])
        assert check_criteria(scaled).passes == check_criteria(a).passes

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_unit_scaling_invariance_random(self, x, y, z):
        def mk(v):
            return F2.poly([(v >> i) & 1 for i in range(3)])

        coeffs = [mk(x), mk(y), mk(z)]
        a = CoeffTuple.make(F2, coeffs)
        t = F2.t
        scaled = CoeffTuple.make(F2, [c * t for c in coeffs])
        assert check_criteria(a).passes == check_criteria(scaled).passes


class TestEnumeration:
    def test_count_formula_basic(self):
        a = tup(F2, "1", "t", "t+1")
        for N in (1, 2, 3):
            sols = enumerate_solutions(a, N, 1 << 22)
            assert len(sols) == 2 ** (N * 2 - 1)

    def test_count_formula_arity_four(self):
        a = tup(F3, "1", "t", "t+1", "2*t+1")
        for N in (1, 2):
            sols = enumerate_solutions(a, N, 1 << 22)
            assert len(sols) == 3 ** (N * 3 - 1)

    def test_solutions_satisfy_relation(self):
        a = tup(F2, "1", "t^2", "t^2+t+1")
        for sol in enumerate_solutions(a, 2, 1 << 22):
            assert relation_holds(a.coeffs, sol)

    def test_degree_bound_respected(self):
        a = tup(F2, "1", "t", "t+1")
        for sol in enumerate_solutions(a, 2, 1 << 22):
            assert all(v.degree < 2 or v.is_zero for v in sol)

    def test_budget_enforced(self):
        a = tup(F5, "1", "t", "t+1", "t+2")
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_solutions(a, 3, budget=10)
        assert exc.value.required > 10

    def test_fiber_counts_uniform(self):
        a = tup(F2, "1", "t", "t+1")
        N, d = 2, 1
        expected = 2 ** (N * 1 - d)
        for j in range(3):
            for v in enumerate_solutions(tup(F2, "1", "1", "1"), N, 1 << 20):
                pass
        sols = enumerate_solutions(a, N, 1 << 20)
        values = {s[0] for s in sols}
        assert len(values) == 2 ** N
        for j in range(1, 4):
            for x in values:
                assert fiber_count(a, N, j, x) == expected


class TestBalancedMultiset:
    def test_make_validates(self):
        coeffs = tuple(parse_poly(F2, s) for s in ("1", "t", "t+1"))
        good = [(parse_poly(F2, "1"), parse_poly(F2, "1"), parse_poly(F2, "1"))]
        b = BalancedMultiset.make(coeffs, good)
        assert b.size == 1

    def test_make_rejects_unbalanced(self):
        coeffs = tuple(parse_poly(F2, s) for s in ("1", "t", "t+1"))
        bad = [(parse_poly(F2, "1"), parse_poly(F2, "1"), parse_poly(F2, "t"))]
        with pytest.raises(ValueError):
            BalancedMultiset.make(coeffs, bad)

    def test_from_enumeration(self):
        a = tup(F2, "1", "t", "t+1")
        b = balanced_multiset(a, 2)
        assert b.size == 2 ** (2 * 2 - 1) - 1
        assert is_balanced(b.coeffs, b.members)

    def test_refuses_non_smyth(self):
        with pytest.raises(NotSmythTupleError):
            balanced_multiset(tup(F2, "1", "1", "t"), 2)

    def test_integer_members(self):
        b = BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (2, 2, 2)])
        assert b.size == 2


class TestCertificates:
    def test_round_trip_small(self):
        a = tup(F2, "1", "t", "t+1")
        b = balanced_multiset(a, 1)
        cert = certificate_from_balanced(a.coeffs, b)
        assert verify_certificate(a, cert)
        assert cert.perms[-1] == tuple(range(cert.m))

    def test_round_trip_medium(self):
        for field, texts, N in [
            (F2, ("1", "t", "t+1"), 2),
            (F2, ("1", "t", "t+1"), 3),
            (F3, ("1", "t", "t+1"), 2),
            (F2, ("1", "t^2", "t^2+t+1"), 2),
            (F3, ("1", "t", "t+1", "2*t+1"), 1),
        ]:
            a = tup(field, *texts)
            b = balanced_multiset(a, N)
            cert = certificate_from_balanced(a.coeffs, b)
            assert verify_certificate(a, cert), f"{texts} N={N}"

    def test_certificate_detects_tampering(self):
        a = tup(F2, "1", "t", "t+1")
        b = balanced_multiset(a, 2)
        cert = certificate_from_balanced(a.coeffs, b)
        perms = list(map(list, cert.perms))
        if perms[0][0] != perms[0][1]:
            perms[0][0], perms[0][1] = perms[0][1], perms[0][0]
        tampered = type(cert)(m=cert.m, perms=tuple(tuple(p) for p in perms), kernel=cert.kernel)
        assert not verify_certificate(a, tampered)

    def test_balanced_from_certificate_rebuilds(self):
        a = tup(F2, "1", "t", "t+1")
        b = balanced_multiset(a, 2)
        cert = certificate_from_balanced(a.coeffs, b)
        rebuilt = balanced_from_certificate(a, cert)
        assert rebuilt == b  # the multiset the certificate came from
        assert is_balanced(rebuilt.coeffs, rebuilt.members)
        cert2 = certificate_from_balanced(a.coeffs, rebuilt)
        assert verify_certificate(a, cert2)

    def test_permutations_given_as_lists(self):
        a = tup(F3, "t+1", "2*t", "2")
        b = balanced_multiset(a, 2)
        cert = certificate_from_balanced(a.coeffs, b)
        as_lists = PermutationCertificate(m=cert.m, perms=[list(p) for p in cert.perms],
                                          kernel=list(cert.kernel))
        assert verify_certificate(a, as_lists)
        assert balanced_from_certificate(a, as_lists) == b

    def test_balanced_from_identity_perms_fails(self):
        # coefficients sum to 2t+2, nonzero over F_3, so a_1 I + a_2 I + a_3 I
        # is invertible and no vector witnesses a relation
        a = tup(F3, "1", "t", "t+1")
        ident = tuple(tuple(range(4)) for _ in range(3))
        cert = PermutationCertificate(m=4, perms=ident, kernel=(F3.one,) * 4)
        with pytest.raises(NoRelationError):
            balanced_from_certificate(a, cert)

    def test_one_factor_detection(self):
        b = BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (2, 2, 2)])
        assert is_one_factor(b)
        b2 = BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (1, 1, 1)])
        assert not is_one_factor(b2)

    @given(st.integers(0, 2))
    @settings(max_examples=3, deadline=None)
    def test_round_trip_property(self, idx):
        cases = [(F2, ("1", "t", "t+1"), 2), (F3, ("1", "t", "2*t+2"), 1), (F2, ("t", "t", "t"), 1)]
        field, texts, N = cases[idx]
        a = tup(field, *texts)
        if not check_criteria(a).passes:
            return
        b = balanced_multiset(a, N)
        cert = certificate_from_balanced(a.coeffs, b)
        assert verify_certificate(a, cert)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_packed_row_relations_match_polynomial_arithmetic(self, data):
        # a, b, c with values b*c*s, a*c*r, -a*b*(r+s): the first row's relation
        # holds and the rotated rows mostly fail; one value may be a unit off.
        # Digits are often q - 1, where the packed row sums need most headroom.
        import smyth.core as core

        q = data.draw(st.sampled_from([2, 3, 5, 2**61 - 1]))
        field = FieldParams(q)
        digit = st.one_of(st.just(q - 1), st.integers(0, q - 1))
        poly = st.lists(digit, min_size=1, max_size=6).map(field.poly)
        a, b, c = (data.draw(poly.filter(bool)) for _ in range(3))
        r, s = data.draw(poly), data.draw(poly)
        values = [b * c * s, a * c * r, -(a * b * (r + s))]
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, 2))
            values[k] = values[k] + field.poly([0] * data.draw(st.integers(0, 12)) + [1])
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        coeffs = (a, b, c)
        expected = [bool(sum((x * values[p[k]] for x, p in zip(coeffs, perms)), field.zero))
                    for k in range(3)]
        rows = core._row_relations(coeffs, values, perms)
        assert [bool(row) for row in rows] == expected

    @pytest.mark.parametrize("q, n", [(2, 4), (2, 6), (3, 3), (3, 6), (5, 5)])
    def test_packed_row_relations_at_the_headroom_bound(self, q, n):
        # n coefficients P, all of whose digits are q - 1, against the value P:
        # every coefficient of the row sum reaches n * len(P) * (q - 1)^2, and
        # the relation n * P^2 = 0 holds because q divides n
        import smyth.core as core

        field = FieldParams(q)
        for length in range(1, 20):
            P = field.poly([q - 1] * length)
            assert not any(core._row_relations((P,) * n, [P], [(0,)] * n))
            tampered = (P,) * (n - 1) + (P + field.one,)
            assert all(core._row_relations(tampered, [P], [(0,)] * n))


# Reference: the depth-first enumerators that F_q linear algebra replaced.
# They probe all q^(N(n-1)) candidates (q^(N(n-2)) for a fiber) and read the
# last free coordinate off a lookup keyed by its packed-free product.


def _padded(p, length):
    return p.coeffs + (0,) * (length - len(p.coeffs))


def _vn(field, N):
    return [poly_from_index(field, k) for k in range(field.q ** N)]


def reference_pool(a, N, budget):
    q, n = a.field.q, a.n
    candidates = q ** (N * (n - 1))
    if candidates > budget:
        raise BudgetExceededError(
            f"enumeration needs {candidates} candidates, budget is {budget}",
            required=candidates)
    vn = _vn(a.field, N)
    length = N + max(a.height, 0)
    prods = [[_padded(a.coeffs[i] * x, length) for x in vn] for i in range(n - 1)]
    lookup = {_padded(-(a.coeffs[n - 1] * x), length): x for x in vn}
    sols = []

    def descend(i, acc, chosen):
        for j, x in enumerate(vn):
            nxt = tuple((u + v) % q for u, v in zip(acc, prods[i][j]))
            if i == n - 2:
                xn = lookup.get(nxt)
                if xn is not None:
                    sols.append(chosen + (x, xn))
            else:
                descend(i + 1, nxt, chosen + (x,))

    descend(0, (0,) * length, ())
    return sols


def reference_enumerate(a, N, budget):
    if N < 1 or N < a.height:
        raise ValueError(f"N must be >= the height {a.height} and >= 1, got {N}")
    return reference_pool(a, N, budget)


def reference_fiber_count(a, N, j, x, budget):
    q, n = a.field.q, a.n
    if not 1 <= j <= n:
        raise ValueError(f"coordinate j must be in 1..{n}, got {j}")
    if N < 1 or N < a.height:
        raise ValueError(f"N must be >= the height {a.height} and >= 1, got {N}")
    if x.degree >= N:
        raise ValueError(f"{x} is outside V_{N}")
    candidates = q ** (N * (n - 2))
    if candidates > budget:
        raise BudgetExceededError(
            f"fiber count needs {candidates} candidates, budget is {budget}",
            required=candidates)
    jj = j - 1
    pivot = n - 1 if jj != n - 1 else n - 2
    free = [i for i in range(n) if i not in (jj, pivot)]
    vn = _vn(a.field, N)
    length = N + max(a.height, 0)
    prods = [[_padded(a.coeffs[i] * y, length) for y in vn] for i in free]
    lookup = {_padded(-(a.coeffs[pivot] * y), length) for y in vn}

    def count(i, acc):
        if i == len(free):
            return acc in lookup
        return sum(count(i + 1, tuple((u + v) % q for u, v in zip(acc, p)))
                   for p in prods[i])

    return count(0, _padded(a.coeffs[jj] * x, length))


def reference_balanced_multiset(a, N, budget):
    if not check_criteria(a).passes:
        raise NotSmythTupleError("criteria fail")
    pool = reference_enumerate(a, N, budget)
    members = [m for m in pool if any(m)]
    return BalancedMultiset.make(a.coeffs, members)


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (ValueError, BudgetExceededError) as err:
        return type(err).__name__, str(err), getattr(err, "required", None)


@st.composite
def fq_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(3, 5))
    field = FieldParams(q)
    coeffs = []
    for _ in range(n):
        degree = draw(st.integers(0, 2))
        low = draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree))
        coeffs.append(field.poly(low + [draw(st.integers(1, q - 1))]))
    a = CoeffTuple.make(field, coeffs)
    N = max(a.height, 1) + draw(st.integers(0, 2))
    budget = draw(st.sampled_from([50, 500, 5000]))
    return a, N, budget


class TestAgainstDepthFirstReference:
    @given(fq_cases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_enumeration_fibers_and_multiset_match(self, case, data):
        a, N, budget = case
        q = a.field.q
        expected = outcome(reference_enumerate, a, N, budget)
        assert outcome(enumerate_solutions, a, N, budget) == expected
        for _ in range(3):
            j = data.draw(st.integers(1, a.n))
            x = poly_from_index(a.field, data.draw(st.integers(0, q ** N - 1)))
            assert (outcome(fiber_count, a, N, j, x, budget)
                    == outcome(reference_fiber_count, a, N, j, x, budget))
        got = outcome(balanced_multiset, a, N, budget)
        want = outcome(reference_balanced_multiset, a, N, budget)
        if want[0] == "NotSmythTupleError":
            assert got[0] == "NotSmythTupleError"
        else:
            assert got == want

    def test_passing_and_failing_tuples_both_reached(self):
        # the drawn cases above cover both verdicts; pin one of each here
        a = tup(F3, "t+1", "2*t", "2")
        assert check_criteria(a).passes
        assert enumerate_solutions(a, 2) == reference_enumerate(a, 2, 1 << 20)
        b = tup(F5, "t^2", "1", "t", "t+1")
        assert not check_criteria(b).passes
        assert enumerate_solutions(b, 2) == reference_enumerate(b, 2, 1 << 20)
        for x in (F5.zero, F5.one, parse_poly(F5, "t+3")):
            assert fiber_count(b, 2, 1, x) == reference_fiber_count(b, 2, 1, x, 1 << 20)

    def test_multiset_members_sorted_and_balanced(self):
        a = tup(F7, "1", "t", "t+3")
        b = balanced_multiset(a, 2)
        assert list(b.members) == sorted(b.members, key=lambda m: [v.sort_key for v in m])
        counters = [Counter(m[i] for m in b.members) for i in range(a.n)]
        assert all(c == counters[0] for c in counters)
        assert b == BalancedMultiset.make(a.coeffs, b.members)

    def test_value_table_and_index_rows(self):
        a = tup(F3, "t+1", "2*t", "2")
        b = balanced_multiset(a, 2)
        keys = [v.sort_key for v in b.values]
        assert keys == sorted(set(keys))
        assert list(b.rows) == sorted(b.rows)
        assert {k for row in b.rows for k in row} == set(range(len(b.values)))
        assert b.members is b.members  # derived once, then cached
        assert b.members == tuple(tuple(b.values[k] for k in row) for row in b.rows)
        assert b.size == len(b.rows) == len(b.members)

    def test_relation_check_catches_a_wrong_kernel(self, monkeypatch):
        # with every column free every candidate counts as a kernel vector;
        # the per-row relation check on the product tables must refuse them
        import smyth.core as core

        def every_unit_vector(matrix, q=None):
            width = len(matrix[0])
            return [[int(i == j) for i in range(width)] for j in range(width)]

        monkeypatch.setattr(core, "kernel_basis", every_unit_vector)
        for field, texts in ((F2, ("1", "t", "t+1")), (F3, ("t+1", "2*t", "2"))):
            with pytest.raises(RelationViolationError):
                balanced_multiset(tup(field, *texts), 2)
