"""Polynomial and integer arithmetic tests."""
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smyth.algebra import (
    MAX_PARSE_DEGREE,
    FieldParams,
    Poly,
    _exact_div,
    _order,
    _powmod,
    euler_phi,
    format_poly,
    integer_factor,
    is_irreducible,
    is_probable_prime,
    kernel_basis,
    many_gcd,
    monic_polys,
    multiplicative_order_int,
    parse_poly,
    poly_ext_gcd,
    poly_gcd,
    random_irreducible,
    unit_group_order,
)
from smyth.core import (
    BalancedMultiset,
    CoeffTuple,
    PermutationCertificate,
    balanced_from_certificate,
    balanced_multiset,
    certificate_from_balanced,
)
from smyth.errors import BudgetExceededError, NoRelationError, ParseError
from smyth.quadratic import QuadField


def poly_lcm(a, b):
    """Monic lcm of two polynomials, zero when either is zero."""
    if a.is_zero or b.is_zero:
        return a.field.zero
    return ((a * b) // poly_gcd(a, b)).monic()


def monic_irreducibles(field, degree):
    """The monic irreducibles of the given degree, in base-q counting order."""
    return (f for f in monic_polys(field, degree) if is_irreducible(f))

F2 = FieldParams(2)
F3 = FieldParams(3)
F5 = FieldParams(5)


def P(field, text):
    return parse_poly(field, text)


class TestFieldParams:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldParams(4)
        with pytest.raises(ValueError):
            FieldParams(1)

    def test_accepts_primes(self):
        for q in (2, 3, 5, 7, 11, 101):
            assert FieldParams(q).q == q


class TestPolyBasics:
    def test_degree_and_units(self):
        assert P(F2, "0").is_zero
        assert P(F2, "1").is_unit
        assert P(F3, "2").is_unit
        assert not P(F2, "t").is_unit
        assert P(F2, "t^3+t").degree == 3

    def test_str_round_trip(self):
        for text in ("0", "1", "t", "t+1", "t^2+t+1", "t^5+t^3+1"):
            p = P(F2, text)
            assert str(parse_poly(F2, str(p))) == str(p)

    def test_parse_normalizes_coefficients(self):
        assert P(F3, "4*t") == P(F3, "t")
        assert P(F3, "2*t+5") == P(F3, "2*t+2")

    def test_parse_rejects_garbage(self):
        for bad in ("", "t^", "x+1", "t**2", "1++1"):
            with pytest.raises(ParseError):
                parse_poly(F2, bad)

    def test_parse_caps_the_degree(self):
        assert P(F2, f"t^{MAX_PARSE_DEGREE}+1").degree == MAX_PARSE_DEGREE
        for bad in (f"t^{MAX_PARSE_DEGREE + 1}", "1+t^100000000"):
            with pytest.raises(ParseError, match="exceeds the cap"):
                parse_poly(F2, bad)

    def test_arithmetic_identities(self):
        p = P(F5, "t^2+3*t+1")
        r = P(F5, "2*t+4")
        assert p + r - r == p
        assert p * F5.one == p
        assert (p * r) % r == F5.zero


class TestDivmod:
    def test_known_quotient(self):
        a = P(F2, "t^3+t+1")
        b = P(F2, "t+1")
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P(F2, "t"), F2.zero)

    @given(st.integers(0, 3 ** 5 - 1), st.integers(1, 3 ** 3 - 1))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_property(self, ac, bc):
        a = F3.poly([(ac // 3 ** i) % 3 for i in range(5)])
        b = F3.poly([(bc // 3 ** i) % 3 for i in range(3)])
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.is_zero or rem.degree < b.degree


class TestGcd:
    def test_gcd_is_monic_divisor(self):
        a = P(F2, "t^2+1")  # (t+1)^2 over F_2
        b = P(F2, "t^2+t")  # t(t+1)
        g = poly_gcd(a, b)
        assert g == P(F2, "t+1")
        assert (a % g).is_zero and (b % g).is_zero

    def test_ext_gcd_bezout(self):
        a = P(F5, "t^3+2*t+1")
        b = P(F5, "t^2+4")
        g, x, y = poly_ext_gcd(a, b)
        assert x * a + y * b == g

    def test_lcm_product_relation(self):
        a = P(F3, "t^2+1")
        b = P(F3, "t+2")
        g = poly_gcd(a, b)
        l = poly_lcm(a, b)
        assert (l * g).monic() == (a * b).monic()

    @given(st.integers(1, 2 ** 4 - 1), st.integers(1, 2 ** 4 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, ac, bc):
        a = F2.poly([(ac >> i) & 1 for i in range(4)])
        b = F2.poly([(bc >> i) & 1 for i in range(4)])
        g = poly_gcd(a, b)
        assert (a % g).is_zero
        assert (b % g).is_zero
        assert g.lc == 1


class TestIrreducibility:
    def test_known_irreducibles(self):
        assert is_irreducible(P(F2, "t^2+t+1"))
        assert is_irreducible(P(F2, "t^3+t+1"))
        assert is_irreducible(P(F3, "t^2+1"))

    def test_known_reducibles(self):
        assert not is_irreducible(P(F2, "t^2+1"))
        assert not is_irreducible(P(F2, "t^2"))
        assert not is_irreducible(P(F3, "t^2+2"))

    @pytest.mark.parametrize("q,D", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)])
    def test_count_formula(self, q, D):
        # number of monic irreducibles of degree D is (1/D) sum mu(e) q^(D/e)
        field = FieldParams(q)
        count = sum(1 for _ in monic_irreducibles(field, D))

        def mu(n):
            fac = integer_factor(n)
            if any(e > 1 for e in fac.values()):
                return 0
            return -1 if len(fac) % 2 else 1

        expected = sum(mu(e) * q ** (D // e) for e in range(1, D + 1) if D % e == 0) // D
        assert count == expected

    def test_monic_polys_count(self):
        assert sum(1 for _ in monic_polys(F3, 2)) == 9

    def test_random_irreducible_deterministic(self):
        p1 = random_irreducible(5, 3, seed=11)
        p2 = random_irreducible(5, 3, seed=11)
        assert p1 == p2
        assert is_irreducible(p1)
        assert p1.degree == 3


class TestModularArithmetic:
    def test_element_order_divides_group_order(self):
        c = P(F3, "t^2+1")
        group = 3 ** 2 - 1
        rng = random.Random(5)
        for _ in range(10):
            r = F3.poly([rng.randrange(3), rng.randrange(3)])
            if r.is_zero:
                continue
            order = _order(lambda e: _powmod(r, e, c).is_one, group)
            assert group % order == 0 and _powmod(r, order, c).is_one
            assert not any(_powmod(r, order // p, c).is_one for p in integer_factor(order))

    def test_unit_group_order_stops_at_the_factoring_bound(self):
        assert unit_group_order(2, 64) == 2**64 - 1
        assert unit_group_order(3, 2) == 8
        for q, degree in ((2, 65), (5, 28), (2, 1 << 16), ((1 << 61) - 1, 2)):
            with pytest.raises(BudgetExceededError, match="factoring bound"):
                unit_group_order(q, degree)

    def test_order_oracle(self):
        # t generates F_4* = Z/3 via t^2 = t + 1, t^3 = 1
        c = P(F2, "t^2+t+1")
        assert _order(lambda e: _powmod(P(F2, "t"), e, c).is_one, 3) == 3

    def test_power_matches_repeated_products(self):
        c = P(F5, "t^3+t+1")
        u = P(F5, "2*t^2+3")
        acc = F5.one
        for e in range(40):
            assert _powmod(u, e, c) == acc
            acc = acc * u % c

    def test_multiplicative_order_int(self):
        assert multiplicative_order_int(2, 7) == 3
        assert multiplicative_order_int(3, 7) == 6
        assert multiplicative_order_int(-12 * pow(13, -1, 19) % 19, 19) == 18


@dataclass(frozen=True)
class RatFunc:
    """Reference field F_q(t): reduced fractions with a monic denominator."""

    num: Poly
    den: Poly

    @classmethod
    def make(cls, num, den):
        if num.is_zero:
            return cls(num, num.field.one)
        g = poly_gcd(num, den)
        num, den = num // g, den // g
        inv = pow(den.lc, -1, den.field.q)
        return cls(num * inv, den * inv)

    @classmethod
    def of(cls, p):
        return cls(p, p.field.one)

    def __bool__(self):
        return not self.num.is_zero

    def __sub__(self, other):
        return RatFunc.make(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return RatFunc.make(self.num * other.den, self.den * other.num)


def gauss_jordan_kernel(matrix, one):
    """Reference for kernel_basis over a field (Fraction for Z, RatFunc for
    F_q[t]): reduced row echelon form, then one vector per free column
    with that column set to one."""
    rows = [list(row) for row in matrix]
    zero = one - one
    ncols = len(rows[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [zero] * ncols
        v[free] = one
        for i, c in enumerate(pivots):
            v[c] = -rows[i][free]
        basis.append(v)
    return basis


def combination_matrix(a, perms):
    """The matrix sum_i a_i X_i, with X_i the permutation matrix of perms[i]."""
    m = len(perms[0])
    rows = [[a.field.zero] * m for _ in range(m)]
    for c, p in zip(a.coeffs, perms):
        for k in range(m):
            rows[k][p[k]] = rows[k][p[k]] + c
    return rows


def members_of(a, perms, v):
    """The balanced multiset of the nonzero rows X_i v."""
    members = [tuple(v[p[k]] for p in perms) for k in range(len(v))]
    return BalancedMultiset.make(a.coeffs, [m for m in members if any(m)])


def bareiss_balanced_from_certificate(a, perms):
    """Reference for balanced_from_certificate without a witness: the first
    kernel vector of sum(a_i X_i) by kernel_basis over F_q[t], the gcd of
    its entries divided out and its last nonzero entry made monic."""
    basis = kernel_basis(combination_matrix(a, perms))
    if not basis:
        raise NoRelationError("nonsingular")
    v = basis[0]
    g = many_gcd([w for w in v if w])
    unit = pow(next(w for w in reversed(v) if w).lc, -1, a.field.q)
    return members_of(a, perms, [w // g * unit for w in v])


def reference_balanced_from_certificate(a, perms):
    """The F_q(t) route: first kernel vector over RatFunc, denominators
    cleared by their lcm, then the gcd of the numerators divided out.
    Returns that vector and the multiset of the nonzero rows X_i v."""
    matrix = [[RatFunc.of(e) for e in row] for row in combination_matrix(a, perms)]
    basis = gauss_jordan_kernel(matrix, RatFunc.of(a.field.one))
    if not basis:
        raise NoRelationError("nonsingular")
    kv = basis[0]
    common = kv[0].den
    for e in kv[1:]:
        common = poly_lcm(common, e.den)
    cleared = [e.num * (common // e.den) for e in kv]
    g = many_gcd([w for w in cleared if w])
    cleared = [w // g for w in cleared]
    return tuple(cleared), members_of(a, perms, cleared)


def annihilates(matrix, v):
    return all(not sum((e * x for e, x in zip(row, v)), 0 * v[0]) for row in matrix)


def proportional(v, ref, free):
    """v = v[free] * ref entrywise, ref being a field-valued vector with 1 at free."""
    return all(x == v[free] * y for x, y in zip(v, ref))


def low_rank_matrix(left, right):
    """The product of a rows x k and a k x cols matrix: rank at most k."""
    return [[sum((x * y for x, y in zip(row, col)), 0 * row[0]) for col in zip(*right)]
            for row in left]


class TestKernelAndDet:
    def test_planted_kernel(self):
        # rows are chosen so (1, t, 0) is in the kernel
        one, t = F2.one, F2.t
        m = [
            [t, one, F2.zero],
            [t * t, t, one],
            [F2.zero, F2.zero, one],
        ]
        basis = kernel_basis(m)
        assert basis == [[one, t, F2.zero]]
        assert annihilates(m, basis[0])

    def test_nonsingular_returns_none(self):
        m = [[F2.one, F2.zero], [F2.zero, F2.one]]
        assert kernel_basis(m) == []

    def test_det_of_identity(self):
        m = [[F3.one, F3.zero], [F3.zero, F3.one]]
        assert kernel_basis(m) == []

    def test_det_of_singular(self):
        t = F3.t
        m = [[t, t], [t, t]]
        basis = kernel_basis(m)
        assert basis == [[-t, t]]
        assert annihilates(m, basis[0])

    @given(st.integers(0, 2 ** 9 - 1))
    @settings(max_examples=40, deadline=None)
    def test_planted_kernel_random(self, bits):
        # third row = sum of the first two, so the matrix is singular
        entries = [F2.poly([(bits >> (3 * i + j)) & 1 for j in range(3)]) for i in range(3)]
        r1 = entries[:3]
        r2 = [e * F2.t for e in entries]
        r3 = [x + y for x, y in zip(r1, r2)]
        basis = kernel_basis([r1, r2, r3])
        assert basis
        assert all(annihilates([r1, r2, r3], v) for v in basis)


small_ints = st.integers(-4, 4)


@st.composite
def int_low_rank(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, cols - 1))
    left = [[draw(small_ints) for _ in range(k)] for _ in range(rows)]
    right = [[draw(small_ints) for _ in range(cols)] for _ in range(k)]
    return low_rank_matrix(left, right) if k else [[0] * cols for _ in range(rows)]


@st.composite
def fqt_low_rank(draw):
    field = draw(st.sampled_from([F2, F3]))
    entry = st.lists(st.integers(0, field.q - 1), max_size=3).map(field.poly)
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(1, cols))
    left = [[draw(entry) for _ in range(k)] for _ in range(rows)]
    right = [[draw(entry) for _ in range(cols)] for _ in range(k)]
    return low_rank_matrix(left, right)


class TestKernelBasis:
    @given(int_low_rank())
    @settings(max_examples=100, deadline=None)
    def test_integers_match_fraction_gauss_jordan(self, matrix):
        basis = kernel_basis(matrix)
        ref = gauss_jordan_kernel([[Fraction(e) for e in row] for row in matrix], Fraction(1))
        assert basis
        assert len(basis) == len(ref)
        for v, r in zip(basis, ref):
            assert all(isinstance(x, int) for x in v)
            free = max(c for c, x in enumerate(v) if x)
            assert r[free] == 1 and proportional(v, r, free)
            assert annihilates(matrix, v)

    @given(fqt_low_rank())
    @settings(max_examples=60, deadline=None)
    def test_fqt_matches_ratfunc_gauss_jordan(self, matrix):
        field = next(e.field for row in matrix for e in row)
        basis = kernel_basis(matrix)
        ref = gauss_jordan_kernel([[RatFunc.of(e) for e in row] for row in matrix],
                                  RatFunc.of(field.one))
        assert len(basis) == len(ref)
        for v, r in zip(basis, ref):
            assert all(isinstance(x, Poly) for x in v)
            free = max(c for c, x in enumerate(v) if x)
            assert r[free] == RatFunc.of(field.one)
            assert all(RatFunc.of(x) == RatFunc.of(v[free]) * y for x, y in zip(v, r))
            assert annihilates(matrix, v)

    @given(st.sampled_from([F2, F3, F5]), int_low_rank())
    @settings(max_examples=100, deadline=None)
    def test_mod_q_matches_gauss_jordan(self, field, matrix):
        # F_q as the constants of F_q(t); the vector for a free column is 1
        # there and 0 at the other free columns, as in the reduced form
        basis = kernel_basis(matrix, field.q)
        ref = gauss_jordan_kernel([[RatFunc.of(field.constant(e)) for e in row]
                                   for row in matrix], RatFunc.of(field.one))
        assert all(0 <= x < field.q for v in basis for x in v)
        assert [[RatFunc.of(field.constant(x)) for x in v] for v in basis] == ref

    def test_zero_one_by_one_poly_matrix(self):
        assert kernel_basis([[F2.zero]]) == [[F2.one]]
        assert isinstance(kernel_basis([[F2.zero]])[0][0], Poly)

    def test_rank_zero_keeps_the_ring(self):
        basis = kernel_basis([[F3.zero] * 3] * 2)
        assert basis == [[F3.one if i == j else F3.zero for j in range(3)] for i in range(3)]
        assert all(isinstance(x, Poly) for v in basis for x in v)
        K = QuadField(-1)
        assert kernel_basis([[K.zero, K.zero]]) == [[K.one, K.zero], [K.zero, K.one]]
        assert kernel_basis([[0]]) == [[1]]

    def test_quadratic_ring(self):
        K = QuadField(-1)
        w = K.omega
        # the second row is (1 - w) times the first
        basis = kernel_basis([[1 + w, 2], [2, 2 - 2 * w]])
        assert basis == [[K.element(-2), 1 + w]]

    def test_rejects_empty_and_ragged(self):
        with pytest.raises(ValueError):
            kernel_basis([])
        with pytest.raises(ValueError):
            kernel_basis([[1, 2], [3]])

    def test_inexact_division_is_an_error(self):
        with pytest.raises(ArithmeticError):
            _exact_div(3, 2)
        with pytest.raises(ArithmeticError):
            _exact_div(F2.t, F2.t + 1)


def canonical_cert(field, text, N):
    a = CoeffTuple.make(field, [parse_poly(field, s) for s in text.split(";")])
    return a, certificate_from_balanced(a.coeffs, balanced_multiset(a, N))


def swapped(perms, i, j, k):
    """perms with the images j and k of permutation i exchanged."""
    p = list(perms[i])
    p[j], p[k] = p[k], p[j]
    return perms[:i] + (tuple(p),) + perms[i + 1:]


def assert_matches_ratfunc_route(a, perms, stale):
    """The RatFunc route's kernel vector rebuilds its multiset, as does the
    Bareiss route; with no relation, the stale kernel of the permutations
    before a swap is refused."""
    cert = PermutationCertificate(m=len(perms[0]), perms=perms, kernel=stale)
    try:
        kernel, expected = reference_balanced_from_certificate(a, perms)
    except NoRelationError:
        with pytest.raises(NoRelationError):
            bareiss_balanced_from_certificate(a, perms)
        with pytest.raises(NoRelationError):
            balanced_from_certificate(a, cert)
        return
    assert bareiss_balanced_from_certificate(a, perms) == expected
    assert balanced_from_certificate(a, PermutationCertificate(
        m=cert.m, perms=perms, kernel=kernel)) == expected


class TestBalancedFromCertificate:
    # a swap moves the kernel off the canonical vector; over F_3 the last
    # nonzero entry then often needs the monic scaling
    @pytest.mark.parametrize("field, text, N", [
        (F2, "1;t;t+1", 2), (F2, "1;t;t;t+1", 1), (F3, "2;t;2*t+1", 1), (F3, "1;t;2*t+2", 1),
    ])
    def test_every_single_swap_matches_ratfunc_route(self, field, text, N):
        a, cert = canonical_cert(field, text, N)
        perms = cert.perms
        assert_matches_ratfunc_route(a, perms, cert.kernel)
        for i in range(len(perms) - 1):
            for j, k in itertools.combinations(range(len(perms[0])), 2):
                assert_matches_ratfunc_route(a, swapped(perms, i, j, k), cert.kernel)

    @given(st.sampled_from(["2;t;2*t+1", "1;t;2*t+2"]), st.data())
    @settings(max_examples=5, deadline=None)
    def test_drawn_swaps_match_ratfunc_route(self, text, data):
        a, cert = canonical_cert(F3, text, 2)
        perms = cert.perms
        i = data.draw(st.integers(0, len(perms) - 2))
        j, k = data.draw(st.lists(st.integers(0, len(perms[0]) - 1), min_size=2, max_size=2))
        assert_matches_ratfunc_route(a, swapped(perms, i, j, k), cert.kernel)


class TestIntegerHelpers:
    def test_probable_prime(self):
        assert is_probable_prime(2)
        assert is_probable_prime(97)
        assert is_probable_prime(2 ** 31 - 1)
        assert not is_probable_prime(1)
        assert not is_probable_prime(561)  # Carmichael

    def test_factor(self):
        assert integer_factor(360) == {2: 3, 3: 2, 5: 1}
        assert integer_factor(97) == {97: 1}

    def test_euler_phi(self):
        assert euler_phi(1) == 1
        assert euler_phi(12) == 4
        assert euler_phi(97) == 96

    @given(st.integers(2, 5000))
    @settings(max_examples=50, deadline=None)
    def test_factor_reconstructs(self, n):
        fac = integer_factor(n)
        prod = 1
        for p, e in fac.items():
            assert is_probable_prime(p)
            prod *= p ** e
        assert prod == n
