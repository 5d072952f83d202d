"""Random permutation model tests with exact small-group oracles."""
import math
import random

import pytest

from smyth.algebra import FieldParams, parse_poly
from smyth.core import CoeffTuple
from smyth.heuristic import (
    FAMILY_KINDS,
    GroupFamily,
    limit_scan,
    model_rate,
    monte_carlo,
    p_n_closed_form,
    strictly_decreasing,
)

F2 = FieldParams(2)
F3 = FieldParams(3)


def tup(field, *texts):
    return CoeffTuple.make(field, [parse_poly(field, s) for s in texts])


class TestGroupFamily:
    def test_sizes(self):
        assert GroupFamily("symmetric", 4).size == 24
        assert GroupFamily("alternating", 4).size == 12
        assert GroupFamily("cyclic", 4).size == 4
        assert GroupFamily("dihedral", 4).size == 8
        assert GroupFamily("dihedral", 2).size == 2
        assert GroupFamily("dihedral", 1).size == 1

    def test_elements_counts_match_size(self):
        for kind in FAMILY_KINDS:
            for deg in (1, 2, 3, 4):
                fam = GroupFamily(kind, deg)
                elems = fam.elements()
                assert len(elems) == fam.size, (kind, deg)
                assert len(set(elems)) == len(elems)

    def test_alternating_elements_are_even(self):
        fam = GroupFamily("alternating", 4)
        for perm in fam.elements():
            inversions = sum(
                1
                for i in range(4)
                for j in range(i + 1, 4)
                if perm[i] > perm[j]
            )
            assert inversions % 2 == 0

    def test_samples_stay_in_family(self):
        rng = random.Random(3)
        for kind in FAMILY_KINDS:
            fam = GroupFamily(kind, 4)
            universe = set(fam.elements())
            for _ in range(50):
                assert fam.sample(rng) in universe

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            GroupFamily("sporadic", 4).size


class TestClosedForm:
    def test_fifteen_sixteenths_oracle(self):
        # q=2, d=1, N=1: exponent 4, group size 2, so p = (15/16)^4
        log_p = p_n_closed_form(2, 1, 3, 1, group_size=2)
        assert abs(math.exp(log_p) - (15 / 16) ** 4) < 1e-12

    def test_log_and_direct_group_size_agree(self):
        a = p_n_closed_form(3, 1, 3, 2, group_size=9)
        b = p_n_closed_form(3, 1, 3, 2, log_group_size=math.log(9))
        assert abs(a - b) < 1e-9

    def test_requires_exactly_one_size(self):
        with pytest.raises(ValueError):
            p_n_closed_form(2, 1, 3, 1)
        with pytest.raises(ValueError):
            p_n_closed_form(2, 1, 3, 1, group_size=2, log_group_size=0.7)

    def test_huge_exponent_stays_finite(self):
        log_p = p_n_closed_form(2, 1, 3, 10, log_group_size=50.0)
        assert log_p <= 0
        assert math.isfinite(log_p)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_log_size_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            p_n_closed_form(2, 1, 3, 1, log_group_size=value)

    def test_huge_d_or_n_ends_at_once(self):
        assert repr(p_n_closed_form(2, 10 ** 4000, 3, 5, group_size=6)) == "-0.0"
        assert p_n_closed_form(2, 1, 10 ** 4000, 1, group_size=6) == -math.inf

    def test_refuses_an_exponent_past_the_limit(self):
        # (n-1)*ln|G| near 10^1000 keeps E = 3101 * 2^3100 from being ruled out unformed
        with pytest.raises(ValueError, match="3000-bit limit"):
            p_n_closed_form(2, 1, 10 ** 1000, 3100, group_size=6)

    def test_model_rate(self):
        assert abs(model_rate(2, 1, 3, 1) - 2 ** -4) < 1e-15


class TestMonteCarlo:
    def test_exhaustive_oracle_q2(self):
        # pairs from S_2 x S_2: only (id, id) balances, rate 1/4
        a = tup(F2, "1", "t", "t+1")
        rep = monte_carlo(a, 1, GroupFamily("symmetric", 2), trials=100, seed=0)
        assert rep.exact
        assert rep.trials == 4
        assert rep.hits == 1
        assert rep.empirical_rate == 0.25

    def test_exhaustive_oracle_q3(self):
        # (1,1,1) over F_3 at N=1: 3 of the 36 S_3 pairs vanish
        a = tup(F3, "1", "1", "1")
        rep = monte_carlo(a, 1, GroupFamily("symmetric", 3), trials=100, seed=0)
        assert rep.exact
        assert rep.trials == 36
        assert rep.hits == 3

    def test_exhaustive_is_seed_independent(self):
        a = tup(F2, "1", "t", "t+1")
        r1 = monte_carlo(a, 1, GroupFamily("symmetric", 2), trials=50, seed=1)
        r2 = monte_carlo(a, 1, GroupFamily("symmetric", 2), trials=50, seed=99)
        assert r1 == r2

    def test_sampled_is_seed_deterministic(self):
        a = tup(F2, "1", "t", "t+1")
        fam = GroupFamily("symmetric", 4)
        r1 = monte_carlo(a, 2, fam, trials=300, seed=7)
        r2 = monte_carlo(a, 2, fam, trials=300, seed=7)
        r3 = monte_carlo(a, 2, fam, trials=300, seed=8)
        assert r1 == r2
        assert r1.trials == 300
        assert not r1.exact
        assert r1 != r3

    def test_degree_mismatch_rejected(self):
        a = tup(F2, "1", "t", "t+1")
        with pytest.raises(ValueError):
            monte_carlo(a, 2, GroupFamily("symmetric", 2), trials=10)

    def test_large_degree_rejected(self):
        a = tup(F2, "1", "t", "t+1")
        with pytest.raises(ValueError):
            monte_carlo(a, 5, GroupFamily("symmetric", 32), trials=10)

    def test_tv_distance_bounds(self):
        a = tup(F3, "1", "1", "1")
        rep = monte_carlo(a, 1, GroupFamily("cyclic", 3), trials=500, seed=2)
        assert 0.0 <= rep.tv_distance <= 1.0


class TestLimitScan:
    def test_decreasing_for_linear_growth(self):
        rows = limit_scan(2, 1, 3, [float(c) for c in range(1, 7)])
        assert len(rows) == 6
        assert strictly_decreasing(rows)

    def test_rows_match_closed_form(self):
        rows = limit_scan(2, 1, 3, [2.0, 3.0], start=2)
        for row in rows:
            direct = p_n_closed_form(2, 1, 3, row.N, log_group_size=row.log_group_size)
            assert abs(row.log_p - direct) < 1e-9

    def test_start_offset(self):
        rows = limit_scan(3, 2, 4, [1.0, 1.0], start=4)
        assert [r.N for r in rows] == [4, 5]

    @pytest.mark.parametrize("c", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_growth_rejected(self, c):
        with pytest.raises(ValueError, match="positive and finite"):
            limit_scan(2, 1, 3, [1.0, c])

    @pytest.mark.parametrize("start", [1020, 1100, 10 ** 9])
    def test_log_group_past_the_float_range_rejected(self, start):
        with pytest.raises(ValueError, match=f"N = {start} is past the float range"):
            limit_scan(2, 1, 3, [1.0], start=start)

    @pytest.mark.parametrize("digits", [310, 401])
    def test_n_past_the_float_range_named(self, digits):
        # the float log|G| divides by n - 1, which is then no float or leaves
        # a quotient below the float range
        with pytest.raises(ValueError, match=f"n of {digits} digits is too large"):
            limit_scan(2, 1, 10 ** (digits - 1), [1.0])

    def test_huge_n_within_the_float_range(self):
        # at c = 1, |G|^(n-1) = q^E for every n, so log p_N = q^E * log1p(-q^-E)
        # with E = (N+d)*q^N = 4
        for n in (3, 10 ** 20, 10 ** 305):
            (row,) = limit_scan(2, 1, n, [1.0])
            assert abs(row.log_p - 16 * math.log1p(-1 / 16)) < 1e-12

    def test_not_decreasing_detection(self):
        # constant growth sits at the critical rate: log p climbs toward -1
        rows = limit_scan(2, 1, 3, [1.0] * 6)
        assert not strictly_decreasing(rows)
