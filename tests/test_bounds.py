"""Order bounds, extremal instances, and minimal search tests."""
import dataclasses
import time
from pathlib import Path

import pytest

from smyth import algebra, bounds
from smyth.algebra import FieldParams, parse_poly
from smyth.bounds import (
    FLOOR_EXP,
    ExtremalInstance,
    MAX_INT_EXTREMAL_D,
    check_criteria_int,
    construct_extremal_fqt,
    construct_extremal_int,
    int_solution_box,
    min_balanced_search,
    order_bound_fqt,
    order_bound_int,
    smallest_primitive_root,
    verify_extremal,
)
from smyth.core import CoeffTuple
from smyth.errors import BudgetExceededError, NonUnitError
from smyth.serialize import parse_json, verify_doc

CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "corpus"

F2 = FieldParams(2)
F3 = FieldParams(3)


def P(field, text):
    return parse_poly(field, text)


class TestOrderBoundFqt:
    def test_frozen_oracle_degree_two(self):
        # -1/t^2 has order 3 in (F_2[t]/(t^2+t+1))*
        cert = order_bound_fqt(P(F2, "1"), P(F2, "t^2"), P(F2, "t^2+t+1"))
        assert cert.order == 3
        assert cert.group_order == 3
        assert cert.generator_flag

    def test_order_divides_group_order(self):
        for a_txt, b_txt, c_txt, q in [
            ("1", "t", "t^2+t+1", 2),
            ("t", "t+1", "t^3+t+1", 2),
            ("1", "t", "t^2+1", 3),
        ]:
            field = FieldParams(q)
            cert = order_bound_fqt(P(field, a_txt), P(field, b_txt), P(field, c_txt))
            assert cert.group_order % cert.order == 0

    def test_reducible_modulus_rejected(self):
        with pytest.raises(ValueError):
            order_bound_fqt(P(F2, "1"), P(F2, "t"), P(F2, "t^2+1"))

    def test_vanishing_entry_rejected(self):
        with pytest.raises(NonUnitError):
            order_bound_fqt(P(F2, "t^2+t+1"), P(F2, "t"), P(F2, "t^2+t+1"))
        with pytest.raises(NonUnitError) as err:  # b = (t+1)*c
            order_bound_fqt(P(F2, "t"), P(F2, "t^3+1"), P(F2, "t^2+t+1"))
        assert err.value.witness == P(F2, "t^2+t+1")


class TestExtremalFqt:
    @pytest.mark.parametrize("q,D", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_construction_verifies(self, q, D):
        inst = construct_extremal_fqt(q, D)
        assert verify_extremal(inst)
        assert inst.claimed_min == max(q ** D - 1, 1) or inst.degenerate

    def test_D_above_the_modulus_degree_fails(self):
        # every order is at most q^deg(c) - 1, so no q^D is formed
        inst = construct_extremal_fqt(2, 3)
        for D in (4, 10**12):
            assert not verify_extremal(dataclasses.replace(inst, D=D))

    def test_D_below_one_fails(self):
        # a negative D would make q^D a float, which overflows for -10^400
        inst = construct_extremal_fqt(2, 3)
        for D in (0, -1, -10**400):
            assert not verify_extremal(dataclasses.replace(inst, D=D))

    def test_q2_d1_degenerate(self):
        # the unit group of F_2[t]/(t+1) is trivial; the triple is the
        # constant-free fallback with minimal size 1
        inst = construct_extremal_fqt(2, 1)
        assert inst.certificate.group_order == 1

    def test_q2_d2_oracle(self):
        inst = construct_extremal_fqt(2, 2)
        a, b, c = inst.triple
        assert str(c) == "t^2+t+1"
        assert inst.certificate.order == 3
        assert inst.claimed_min == 3

    def test_seed_determinism(self):
        one = construct_extremal_fqt(3, 2, seed=9)
        two = construct_extremal_fqt(3, 2, seed=9)
        assert one == two

    def test_criteria_hold(self):
        from smyth.core import check_criteria

        for q, D in [(2, 2), (2, 3), (3, 2)]:
            inst = construct_extremal_fqt(q, D)
            a = CoeffTuple.make(FieldParams(q), list(inst.triple))
            assert check_criteria(a).passes


class TestOrderBoundInt:
    def test_five_six_seven(self):
        cert = order_bound_int(5, 6, 7)
        assert cert.order == 6
        assert cert.group_order == 6
        assert cert.generator_flag

    def test_twelve_thirteen_nineteen(self):
        cert = order_bound_int(12, 13, 19)
        assert cert.order == 18
        assert cert.group_order == 18

    def test_composite_modulus_allowed(self):
        # -1/2 = 4 mod 9 has order 3 in the unit group of size phi(9) = 6
        cert = order_bound_int(1, 2, 9)
        assert cert.order == 3
        assert cert.group_order == 6
        assert not cert.generator_flag

    def test_tiny_modulus_rejected(self):
        with pytest.raises(ValueError):
            order_bound_int(1, 1, 1)

    def test_shared_factor_rejected(self):
        with pytest.raises(NonUnitError):
            order_bound_int(7, 3, 7)


def test_modulus_too_large_to_factor_is_refused_before_irreducibility():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="factoring bound"):
        order_bound_fqt(P(F2, "t^2"), P(F2, "t^4+1"), P(F2, "t^300+t+1"))
    assert time.perf_counter() - start < 0.1


def test_verifying_an_extremal_document_tests_its_modulus_once(monkeypatch):
    moduli = []
    test = algebra.is_irreducible

    def counted(f):
        moduli.append(f)
        return test(f)

    monkeypatch.setattr(algebra, "is_irreducible", counted)
    monkeypatch.setattr(bounds, "is_irreducible", counted)
    doc = parse_json((CORPUS / "extremal-fqt-q2.json").read_text(encoding="utf-8"))
    assert verify_doc(doc) is True
    assert len(moduli) == 1


class TestExtremalInt:
    def test_d1_degenerate(self):
        inst = construct_extremal_int(1)
        assert inst.degenerate
        assert inst.triple == (1, 1, 2)
        assert verify_extremal(inst)

    def test_d2_oracle(self):
        inst = construct_extremal_int(2)
        assert inst.triple == (5, 6, 7)
        assert inst.claimed_min == 6
        assert verify_extremal(inst)

    def test_d3_oracle(self):
        inst = construct_extremal_int(3)
        assert inst.triple == (12, 13, 19)
        assert inst.claimed_min == 18
        assert verify_extremal(inst)

    def test_d_bound_is_the_largest_within_the_prime_search(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            assert FLOOR_EXP == tuple(int(mpmath.floor(mpmath.exp(D)))
                                      for D in range(1, MAX_INT_EXTREMAL_D + 1))
        for D in (MAX_INT_EXTREMAL_D + 1, 1000, 10**9):
            with pytest.raises(BudgetExceededError, match="prime search bound"):
                construct_extremal_int(D)

    def test_D_other_than_the_prime_fails(self):
        # D fixes the prime, so the modulus 139 verifies at D = 5 only
        inst = construct_extremal_int(5)
        assert verify_extremal(inst)
        for D in (0, 1, 4, 6, 8, 17, -1, 10**12):
            assert not verify_extremal(dataclasses.replace(inst, D=D))

    def test_non_generator_fails(self):
        # -4/5 = 2 has order 3 mod 7, so (4, 5, 7) bounds by 3, not by 6
        triple = (4, 5, 7)
        cert = order_bound_int(*triple)
        assert (cert.order, cert.generator_flag) == (3, False)
        assert check_criteria_int(triple)
        inst = ExtremalInstance(ring="int", triple=triple, D=2, claimed_min=3, certificate=cert)
        assert not verify_extremal(inst)

    def test_strict_triangle_holds(self):
        for D in (2, 3):
            a, b, c = construct_extremal_int(D).triple
            assert check_criteria_int([a, b, c])

    def test_primitive_roots(self):
        assert smallest_primitive_root(7) == 3
        assert smallest_primitive_root(19) == 2


# the (q, D, seed) grid of the extremal freeze in tests/test_golden.py
EXTREMAL_FQT_GRID = (
    [(2, D, 0) for D in [*range(1, 17), 20]] + [(2, 12, 1), (2, 13, 1)]
    + [(3, D, 0) for D in range(1, 11)] + [(3, 7, 1), (3, 8, 1)]
    + [(5, D, 0) for D in range(1, 7)] + [(5, 5, 1), (5, 6, 1)]
    + [(7, D, 0) for D in range(1, 6)] + [(7, 5, 1)]
    + [(11, 3, 0), (11, 4, 0), (13, 3, 0), (101, 2, 0), (65537, 2, 0)]
)


class TestCertificateReference:
    """The constructors build each certificate from the order their generator
    scan or primitive root proved; the order bound recomputed from the triple
    must give the same certificate."""

    @pytest.mark.parametrize("q, D, seed", EXTREMAL_FQT_GRID)
    def test_fqt(self, q, D, seed):
        inst = construct_extremal_fqt(q, D, seed)
        assert inst.certificate == order_bound_fqt(*inst.triple)

    @pytest.mark.parametrize("D", range(1, MAX_INT_EXTREMAL_D + 1))
    def test_int(self, D):
        inst = construct_extremal_int(D)
        assert inst.certificate == order_bound_int(*inst.triple)


class TestIntHelpers:
    def test_check_criteria_int(self):
        assert check_criteria_int([5, 6, 7])
        assert check_criteria_int([1, 1, 1])
        assert not check_criteria_int([1, 1, 3])  # 3 >= 1 + 1
        assert not check_criteria_int([2, 4, 6])  # no complementary gcd is 1

    def test_solution_box(self):
        sols = int_solution_box([1, 1, -2], 2, budget=1 << 16)
        assert (0, 0, 0) in sols
        assert (1, 1, 1) in sols
        assert all(a + b - 2 * c == 0 for a, b, c in sols)
        assert all(max(abs(v) for v in s) <= 2 for s in sols)


class TestMinimalSearch:
    def test_frozen_minimum_is_three(self):
        a = CoeffTuple.make(F2, [P(F2, "1"), P(F2, "t^2"), P(F2, "t^2+t+1")])
        found = min_balanced_search(a, 2, 4)
        assert found is not None
        assert found.size == 3

    def test_nothing_below_three(self):
        a = CoeffTuple.make(F2, [P(F2, "1"), P(F2, "t^2"), P(F2, "t^2+t+1")])
        assert min_balanced_search(a, 2, 2) is None

    def test_non_smyth_has_no_multiset(self):
        a = CoeffTuple.make(F2, [P(F2, "1"), P(F2, "1"), P(F2, "t")])
        assert min_balanced_search(a, 2, 5) is None

    def test_zero_N_has_only_the_zero_tuple(self):
        # T_0 and the radius-0 box hold the zero tuple alone, so neither ring
        # has a balanced multiset there; below the height, T_N is still the
        # span of the minimal basis's shifts that fit
        a = CoeffTuple.make(F2, [P(F2, "t^2+1"), P(F2, "t^2"), P(F2, "1")])
        assert min_balanced_search(a, 0, 3) is None
        assert min_balanced_search((1, 1, -2), 0, 3) is None
        found = min_balanced_search(a, 1, 3)
        assert found is not None and found.members == ((F2.one,) * 3,)

    def test_integer_tuple_search(self):
        found = min_balanced_search((1, 1, -2), 1, 3)
        assert found is not None
        assert found.size <= 3

    def test_multiplicity_two_allows_repeats(self):
        found = min_balanced_search((1, 1, -2), 1, 2, max_multiplicity=2)
        assert found is not None
        # (1,1,1) alone balances, so the true minimum is size 1
        assert found.size == 1

    def test_deterministic(self):
        a = CoeffTuple.make(F2, [P(F2, "1"), P(F2, "t"), P(F2, "t+1")])
        one = min_balanced_search(a, 2, 3)
        two = min_balanced_search(a, 2, 3)
        assert one == two
