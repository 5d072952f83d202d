"""The closed-form p_N estimate against a frozen reference copy in mpmath.

`p_n_reference` is `heuristic.p_n_closed_form` as it was computed with
mpmath: `count * log1p(-q^-E)` at a working precision of `E*log2(q) + 80`
bits, with `E = (N+d)*q^N`, rounded to a float once at the end. Its cost
grows as q^N, so the comparison draws only small exponents; the frozen
grid in `tests/test_golden.py` covers the larger ones.
"""
import math
from typing import Optional

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smyth.heuristic import p_n_closed_form

MAX_EXPONENT = 2500


def p_n_reference(q: int, d: int, n: int, N: int,
                  log_group_size: Optional[float] = None,
                  group_size: Optional[int] = None) -> float:
    """Natural log of the modelled no-solution probability p_N, in mpmath."""
    exponent = (N + d) * q ** N
    bits = max(64, int(exponent * math.log2(q)) + 80)
    with mpmath.workprec(bits):
        per_trial = mpmath.mpf(q) ** (-exponent)
        log_term = mpmath.log1p(-per_trial)
        if group_size is not None:
            count = mpmath.mpf(group_size) ** (n - 1)
        else:
            count = mpmath.exp(mpmath.mpf(log_group_size) * (n - 1))
        return float(count * log_term)


@st.composite
def small_cases(draw):
    """(q, d, n, N) with E <= MAX_EXPONENT, and one group size argument.

    Log sizes are drawn around the critical scale E*ln(q)/(n-1), where
    log p_N is neither -0.0 nor -inf, as well as anywhere in [-1000, 1000].
    """
    q = draw(st.integers(2, 9))
    d = draw(st.integers(0, 3))
    n = draw(st.integers(3, 6))
    N = draw(st.integers(1, max(N for N in range(1, 7) if (N + d) * q ** N <= MAX_EXPONENT)))
    critical = (N + d) * q ** N * math.log(q) / (n - 1)
    size = draw(st.one_of(
        st.builds(lambda g: {"group_size": g}, st.integers(1, 10 ** 40)),
        st.builds(lambda x: {"log_group_size": critical + x},
                  st.floats(-300, 300, allow_nan=False)),
        st.builds(lambda x: {"log_group_size": x}, st.floats(-1000, 1000, allow_nan=False)),
    ))
    return q, d, n, N, size


@settings(max_examples=300, deadline=None)
@given(small_cases())
# 893372^3 * 4^-192 is a midpoint between two doubles, and the x/2 term of
# log1p(-x) = -x*(1 + x/2 + ...) rounds it up in magnitude
@example((4, 0, 4, 3, {"group_size": 893372}))
# 262141^3 * 2^-896 is a midpoint too, at E*ln(q) = 621, where x/2 is far
# below the last digit that a decimal y near -583 carries
@example((2, 0, 4, 7, {"group_size": 262141}))
def test_closed_form_matches_the_mpmath_reference(case):
    q, d, n, N, size = case
    assert repr(p_n_closed_form(q, d, n, N, **size)) == repr(p_n_reference(q, d, n, N, **size))
