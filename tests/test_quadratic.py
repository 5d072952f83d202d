"""Quadratic integers, nested radicals, and cyclotomic integer tests."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smyth.errors import ParseError
from smyth.quadratic import (
    CycInt,
    QuadField,
    QuadInt,
    SqrtSum,
    cyclotomic_poly,
    format_quadint,
    parse_quadint,
    quadint_abs,
)

GAUSS = QuadField(-1)
M7 = QuadField(-7)
REAL2 = QuadField(2)
REAL5 = QuadField(5)


class TestQuadField:
    def test_rejects_non_squarefree(self):
        for bad in (0, 1, 4, 8, 12, -4):
            with pytest.raises(ValueError):
                QuadField(bad)

    def test_half_integer_rings(self):
        assert M7.half
        assert REAL5.half
        assert not GAUSS.half
        assert not REAL2.half

    def test_omega_data(self):
        assert GAUSS.omega_trace == 0 and GAUSS.omega_norm == 1
        assert M7.omega_trace == 1 and M7.omega_norm == 2
        assert REAL5.omega_trace == 1 and REAL5.omega_norm == -1

    @pytest.mark.parametrize("m", [-15, -7, -3, -2, -1, 2, 3, 5, 13])
    def test_cached_constants_keep_equality_and_hashing(self, m):
        K, twin = QuadField(m), QuadField(m)
        half = m % 4 == 1
        assert (K.half, K.omega_trace, K.omega_norm) == (
            half, int(half), (1 - m) // 4 if half else -m)
        # constants cached on K only: equality, hashing and repr still see just m
        assert K == twin and hash(K) == hash(twin) and repr(K) == f"QuadField(m={m})"
        u, v = QuadInt(K, 1, 2), QuadInt(twin, 1, 2)
        assert u == v and hash(u) == hash(v)
        assert u * v == QuadInt(twin, 1, 2) * QuadInt(K, 1, 2)
        with pytest.raises(ValueError, match="mixed quadratic fields"):
            u * QuadField(-11).one

    def test_places(self):
        assert GAUSS.places == 1
        assert REAL2.places == 2

    def test_ambient_form_gauss(self):
        # |x + yi|^2 = x^2 + y^2
        assert GAUSS.ambient_q(3, 4) == 25

    def test_ambient_form_real(self):
        # sum over both embeddings of (x + y sqrt(2))^2 is 2x^2 + 4y^2
        assert REAL2.ambient_q(1, 1) == 6

    @given(st.sampled_from([-15, -7, -3, -1, 2, 5]), st.integers(-9, 9), st.integers(-9, 9),
           st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_ambient_form_int_on_ints_and_exact_on_fractions(self, m, u, v, d):
        K = QuadField(m)
        value = K.ambient_q(u, v)
        assert type(value) is int and type(K.element(u, v).abs_squared()) is int
        scaled = K.ambient_q(Fraction(u, d), Fraction(v, d))
        assert type(scaled) is Fraction and scaled == Fraction(value, d * d)


class TestQuadInt:
    def test_arithmetic(self):
        w = M7.omega
        one = M7.one
        assert (w + one) - one == w
        assert w * 0 == M7.zero
        assert 2 * w == w + w

    def test_omega_square_reduction(self):
        # w^2 = w*T - N for w with trace T and norm N
        w = M7.omega
        assert w * w == M7.element(-2, 1)
        g = GAUSS.omega
        assert g * g == GAUSS.element(-1, 0)

    def test_norm_and_trace(self):
        v = M7.element(2, 3)
        assert v.norm() == (v * v.conj()).x
        assert (v * v.conj()).y == 0
        assert v.trace() == v.x * 2 + v.y * M7.omega_trace

    def test_norm_multiplicative(self):
        u = GAUSS.element(1, 2)
        v = GAUSS.element(3, -1)
        assert (u * v).norm() == u.norm() * v.norm()

    def test_exact_div(self):
        u = GAUSS.element(5, 5)
        v = GAUSS.element(1, 1)
        quo = u.exact_div(v)
        assert quo is not None
        assert quo * v == u

    def test_exact_div_failure(self):
        assert GAUSS.element(1, 0).exact_div(GAUSS.element(1, 1)) is None

    def test_exact_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GAUSS.one.exact_div(GAUSS.zero)

    def test_mixed_field_rejected(self):
        with pytest.raises(ValueError):
            GAUSS.one + M7.one

    def test_abs_squared_real(self):
        v = REAL2.element(1, 1)
        assert v.abs_squared() == Fraction(6)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_norm_multiplicative_random(self, a, b, c, d):
        u = M7.element(a, b)
        v = M7.element(c, d)
        assert (u * v).norm() == u.norm() * v.norm()


class TestQuadIntText:
    def test_format(self):
        assert format_quadint(M7.element(0, 0)) == "0"
        assert format_quadint(M7.element(0, 1)) == "w"
        assert format_quadint(M7.element(0, -1)) == "-w"
        assert format_quadint(M7.element(2, 3)) == "2+3*w"
        assert format_quadint(M7.element(-1, -1)) == "-1-w"

    def test_parse_round_trip(self):
        for x in range(-3, 4):
            for y in range(-3, 4):
                v = M7.element(x, y)
                assert parse_quadint(M7, format_quadint(v)) == v

    def test_parse_liberal_forms(self):
        assert parse_quadint(GAUSS, "3*w") == GAUSS.element(0, 3)
        assert parse_quadint(GAUSS, "w+2") == GAUSS.element(2, 1)
        assert parse_quadint(GAUSS, " -w ") == GAUSS.element(0, -1)

    def test_parse_rejects_garbage(self):
        for bad in ("", "v", "1+*w", "w^2", "1..2"):
            with pytest.raises(ParseError):
                parse_quadint(GAUSS, bad)


class TestSqrtSum:
    def test_zero_sign(self):
        assert SqrtSum.zero().sign() == 0
        assert SqrtSum.rational(Fraction(0)).sign() == 0

    def test_rational_signs(self):
        assert SqrtSum.rational(Fraction(3, 7)).sign() == 1
        assert SqrtSum.rational(Fraction(-1, 10)).sign() == -1

    def test_sqrt_two_vs_rational(self):
        # 1.414... < 1.41421357
        s = SqrtSum.from_sqrt(Fraction(2)) - SqrtSum.rational(Fraction(141421357, 10 ** 8))
        assert s.sign() == -1

    def test_close_contest(self):
        # sqrt(2) + sqrt(3) vs sqrt(5 + 2*sqrt(6)) are equal, so compare
        # against a nearby rational instead: 3.14626436994 slightly under
        lhs = SqrtSum.from_sqrt(Fraction(2)) + SqrtSum.from_sqrt(Fraction(3))
        rhs = SqrtSum.rational(Fraction(314626436994, 10 ** 11))
        assert (lhs - rhs).sign() == 1

    def test_cancellation_to_zero(self):
        s = SqrtSum.from_sqrt(Fraction(8)) - SqrtSum.from_sqrt(Fraction(2)).scaled(Fraction(2))
        assert s.sign() == 0

    def test_comparisons(self):
        a = SqrtSum.from_sqrt(Fraction(2))
        b = SqrtSum.from_sqrt(Fraction(3))
        assert a < b
        assert a <= a
        assert a == SqrtSum.from_sqrt(Fraction(2))

    def test_scaled_linearity(self):
        a = SqrtSum.from_sqrt(Fraction(7))
        assert (a.scaled(Fraction(2)) - a - a).sign() == 0

    def test_float_agrees_with_sign(self):
        import math

        combos = [
            (Fraction(2), Fraction(1)),
            (Fraction(3), Fraction(-2)),
            (Fraction(5), Fraction(1, 3)),
        ]
        total = SqrtSum.zero()
        approx = 0.0
        for rad, scale in combos:
            total = total + SqrtSum.from_sqrt(rad).scaled(scale)
            approx += float(scale) * math.sqrt(float(rad))
        assert total.sign() == (1 if approx > 0 else -1)

    def test_quadint_abs_imaginary(self):
        v = GAUSS.element(3, 4)
        assert quadint_abs(v, 0) == SqrtSum.rational(Fraction(5))

    def test_quadint_abs_real_places(self):
        v = REAL2.element(1, 1)
        # 1 + sqrt(2) > 0 at place 0; 1 - sqrt(2) < 0, so |.| flips sign
        a0 = quadint_abs(v, 0)
        a1 = quadint_abs(v, 1)
        assert a0.sign() >= 0 and a1.sign() >= 0
        assert (a0 - a1).sign() != 0


class TestCyclotomic:
    def test_small_polys(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        from smyth.algebra import euler_phi

        for m in range(1, 30):
            assert len(cyclotomic_poly(m)) - 1 == euler_phi(m)

    def test_product_over_divisors(self):
        # product of cyclotomic polynomials over divisors of 12 is x^12 - 1
        def mul(p, q):
            out = [0] * (len(p) + len(q) - 1)
            for i, pi in enumerate(p):
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
            return tuple(out)

        acc = (1,)
        for d in (1, 2, 3, 4, 6, 12):
            acc = mul(acc, cyclotomic_poly(d))
        expected = tuple([-1] + [0] * 11 + [1])
        assert acc == expected


class TestCycInt:
    def test_zeta_powers_reduce(self):
        # z^3 = 1 for order 3: z * z * z is the rational 1
        z = CycInt.zeta(3, 1)
        cube = z * z * z
        assert cube == CycInt.rational(3, 1)

    def test_minimal_polynomial_vanishes(self):
        # 1 + z + z^2 = 0 for a primitive cube root
        z = CycInt.zeta(3, 1)
        assert not (1 + z + z * z)

    def test_order_four(self):
        i = CycInt.zeta(4, 1)
        assert i * i == CycInt.rational(4, -1)

    def test_sixth_root_relation(self):
        z = CycInt.zeta(6, 1)
        # z^2 = z - 1 modulo the sixth cyclotomic polynomial
        assert z * z == z - 1

    def test_arithmetic_ring_axioms(self):
        z = CycInt.zeta(5, 1)
        a = 2 * z + 1
        b = z * z - 3
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + 1) == a * b + a

    def test_str_form(self):
        z = CycInt.zeta(5, 1)
        assert str(2 * z * z - z + 1) == "1-z+2*z^2"
        assert str(CycInt.rational(5, 0)) == "0"

    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
    @settings(max_examples=40, deadline=None)
    def test_mul_associative(self, a, b, c):
        z = CycInt.zeta(12, 1)
        u = a + z
        v = b + z * z
        w = c - z
        assert (u * v) * w == u * (v * w)
