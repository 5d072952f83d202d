"""The numfield chain's inner steps against frozen copies of their dense forms.

- `dense_birkhoff` is `birkhoff_decompose` as it was on a dense working copy
  of the matrix, with its own copy of the stack-based augmenting path. The
  public split and the sparse `_split` under it must return its
  permutations on doubly regular matrices built as sums of drawn
  permutations, and refuse what it refused.
- `quadint_points_near` is the nearest-point lister as it was when every
  candidate went through `ambient_q` and became a `QuadInt`. The library's
  lister must list the same (distance, sort_key) pairs in the same order.
- `bracket_sign` is `SqrtSum.sign` by bracket refinement alone. The
  library's sign must agree with it on two-term sums.
- `per_point_rounding_step` is `lattice_rounding_step` as it was before
  the step moved to integers: |alpha| compared with n - 1 through
  `SqrtSum` at every place, the radius bound and the Lagrange reduction
  (`fraction_covering_radius_squared`) in `Fraction`s, and one
  nearest-point search for every ball point. The library's step must give
  the same `LatticeStep`, or raise the same exception with the same
  message, and its covering radius must equal the reference's.

`frac_sqrt_upper` is the bound `numfield._sqrt_upper` returns as a pair,
as one `Fraction`; the references here and in `test_numfield.py` use it.
"""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smyth.errors import BudgetExceededError, PrecisionError
from smyth.numfield import (
    LatticeStep,
    _ball_size_estimate,
    _points_near,
    _split,
    _sqrt_upper,
    _times,
    birkhoff_decompose,
    covering_radius_squared,
    lattice_rounding_step,
    permutation_sum,
)
from smyth.quadratic import QuadField, SqrtSum, _squarefree_split, quadint_abs



def frac_sqrt_upper(f: Fraction) -> Fraction:
    """A rational upper bound on sqrt(f), tight to about 2^-64: the pair
    numfield._sqrt_upper returns, as one Fraction."""
    if f < 0:
        raise ValueError("radicand must be nonnegative")
    return Fraction(*_sqrt_upper(f.numerator, f.denominator))


# ---------------------------------------------------------------------------
# the dense split


def _dense_augment(support, match_col, root):
    visited = set()
    stack = [[root, 0]]
    while stack:
        frame = stack[-1]
        r, i = frame
        cols = support[r]
        while i < len(cols) and cols[i] in visited:
            i += 1
        if i == len(cols):
            stack.pop()
            continue
        c = cols[i]
        frame[1] = i + 1
        visited.add(c)
        owner = match_col[c]
        if owner == -1:
            for row, nxt in stack:
                match_col[support[row][nxt - 1]] = row
            return True
        stack.append([owner, 0])
    return False


def dense_birkhoff(D):
    """Reference split: Kuhn's matchings on a dense copy of D, rows and
    open columns in ascending order."""
    size = len(D)
    work = [list(row) for row in D]
    if any(len(row) != size for row in work):
        raise ValueError("matrix must be square")
    for row in work:
        if not all(issubclass(t, int) for t in set(map(type, row))) or min(row) < 0:
            raise ValueError("entries must be nonnegative integers")
    sums = set(map(sum, work))
    sums.update(map(sum, zip(*work)))
    if len(sums) != 1:
        raise ValueError("row and column sums must all be equal")
    s = sums.pop()
    perms = []
    support = [list(itertools.compress(range(size), row)) for row in work]
    for _ in range(s):
        match_col = [-1] * size
        for r in range(size):
            if not _dense_augment(support, match_col, r):
                raise ValueError("no perfect matching on positive entries")
        perm = [0] * size
        for c, r in enumerate(match_col):
            perm[r] = c
        for r, c in enumerate(perm):
            work[r][c] -= 1
            if not work[r][c]:
                support[r].remove(c)
        perms.append(tuple(perm))
    return perms


@st.composite
def regular_matrices(draw):
    """The sum of s permutations of one size from 1 to 40, drawn from a small
    pool so that repeats, and so entries above 1, are common."""
    size = draw(st.integers(1, 40))
    pool = draw(st.lists(st.permutations(range(size)), min_size=1, max_size=4))
    perms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    return permutation_sum(perms, size)


class TestSplit:
    @given(regular_matrices())
    @settings(max_examples=120, deadline=None)
    def test_matches_dense_reference(self, D):
        want = dense_birkhoff(D)
        assert birkhoff_decompose(D) == want
        counts = [{c: k for c, k in enumerate(row) if k} for row in D]
        frozen = [dict(row) for row in counts]
        assert _split(counts, sum(D[0])) == want
        assert counts == frozen

    @pytest.mark.parametrize("counts, s", [
        ([{}], 1),
        ([{}, {0: 1}], 1),
        ([{0: 1, 1: 1}, {}], 1),
        ([{0: 2}, {1: 1}], 2),
        ([{1: 2}, {1: 2}], 2),
    ], ids=["only-row-empty", "first-row-empty", "last-row-empty", "unequal-rows",
            "unequal-columns"])
    def test_sparse_refusals(self, counts, s):
        with pytest.raises(ValueError, match="row and column sums must all be equal"):
            _split(counts, s)

    @pytest.mark.parametrize("D", [
        ((1, 0), (1,)),
        ((1, 0, 0), (0, 1, 0)),
        ((2, -1), (-1, 2)),
        ((1.0, 0), (0, 1)),
        ((1, 0), (1, 1)),
        ((0, 0), (1, 1)),
        ((0, 1), (0, 1)),
        (),
    ], ids=["ragged", "not-square", "negative", "float", "unequal-rows", "empty-row",
            "empty-column", "empty"])
    def test_refusals_match_reference(self, D):
        with pytest.raises(ValueError) as want:
            dense_birkhoff(D)
        with pytest.raises(ValueError) as got:
            birkhoff_decompose(D)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("D", [
        ((0, 0), (0, 0)),
        ((0,),),
    ], ids=["zero", "zero-1x1"])
    def test_accepted_edge_cases_match_reference(self, D):
        # a zero matrix splits into no permutations
        assert birkhoff_decompose(D) == dense_birkhoff(D)

    def test_bool_entries_refused(self):
        # the reference reads bool, an int subclass, as 0 and 1; the split
        # refuses it, as every document reader does
        D = ((True, False), (False, True))
        assert dense_birkhoff(D) == [(0, 1)]
        with pytest.raises(ValueError, match="^entries must be nonnegative integers$"):
            birkhoff_decompose(D)


# ---------------------------------------------------------------------------
# the nearest-point lister


def quadint_points_near(K, alpha, r_squared):
    """Reference lister: near(wx, wy, d) lists (d^2 * distance^2, sort_key,
    point) with each candidate's distance from ambient_q and its point a
    QuadInt."""
    A = K.ambient_q(1, 0)
    C = K.ambient_q(0, 1)
    B = K.ambient_q(1, 1) - A - C
    disc = 4 * A * C - B * B
    r_squared = Fraction(r_squared)
    rn, rd = r_squared.numerator, r_squared.denominator
    ax, ay = alpha.x, alpha.y

    def near(wx, wy, d=1):
        width = 4 * A * rn * d * d
        limit = rn * d * d // rd
        if ay:
            v_max = math.isqrt(width // (disc * rd))
            k, c = (d * ay, wy) if ay > 0 else (-d * ay, -wy)
            s_range = range(-((v_max - c) // k), (c + v_max) // k + 1)
        else:
            s_range = range(1)
        found = []
        for s in s_range:
            v = wy - d * s * ay
            rest = width - disc * rd * v * v
            if rest < 0:
                continue
            h = math.isqrt(rest // rd)
            c2 = 2 * A * (wx - d * s * ax) + B * v
            k2 = 2 * A * d
            for p in range(-((h - c2) // k2), (c2 + h) // k2 + 1):
                x, y = p + s * ax, s * ay
                dist = K.ambient_q(wx - d * x, wy - d * y)
                if dist <= limit:
                    found.append((dist, (x, y), K.element(x, y)))
        return found

    return near


class TestLister:
    @given(st.sampled_from([2, 3, 5, 13, -1, -2, -3, -7, -15]), st.integers(-4, 4),
           st.integers(-3, 3), st.fractions(Fraction(0), Fraction(40), max_denominator=12),
           st.lists(st.tuples(st.integers(-90, 90), st.integers(-90, 90)),
                    min_size=1, max_size=4),
           st.integers(1, 6))
    @example(-1, 1, 1, Fraction(1, 2), [(3, -1)], 2)
    @example(5, 0, 1, Fraction(25, 4), [(7, 5)], 2)
    @example(-7, 2, 0, Fraction(9), [(5, 0)], 3)
    @settings(max_examples=80, deadline=None)
    def test_same_pairs_as_reference(self, m, x, y, r_squared, centres, d):
        K = QuadField(m)
        alpha = K.element(x, y)
        assume(alpha)
        got = _points_near(K, alpha, r_squared)
        want = quadint_points_near(K, alpha, r_squared)
        for wx, wy in [(0, 0)] + centres:
            pairs = [(dist, key) for dist, key, *_ in got(wx, wy, d)]
            assert pairs == [(dist, key) for dist, key, _ in want(wx, wy, d)]
            assert all(type(dist) is int for dist, _ in pairs)


# ---------------------------------------------------------------------------
# the sign of a two-term sum


def bracket_sign(value):
    """Reference sign: refine rational brackets of every root until one
    excludes 0."""
    if not value.terms:
        return 0
    if len(value.terms) == 1:
        return 1 if value.terms[0][1] > 0 else -1
    bits = 16
    while True:
        scale = 1 << bits
        lo = hi = Fraction(0)
        for s, c in value.terms:
            root_lo = Fraction(math.isqrt(s * scale * scale), scale)
            root_hi = root_lo + Fraction(1, scale)
            if c >= 0:
                lo += c * root_lo
                hi += c * root_hi
            else:
                lo += c * root_hi
                hi += c * root_lo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


fractions = st.fractions(max_denominator=10 ** 6).filter(lambda f: abs(f) < 10 ** 9)
radicands = st.integers(2, 10 ** 6).map(lambda k: _squarefree_split(k)[1]).filter(lambda s: s > 1)


class TestTwoTermSign:
    @given(fractions, fractions, radicands)
    # convergents of sqrt(2) and sqrt(999999): a*a - b*b*s is +-1 over b's denominator
    @example(Fraction(-665857, 470832), Fraction(1), 2)
    @example(Fraction(665857), Fraction(-470832), 2)
    @example(Fraction(1999999), Fraction(-2000), 999999)
    @example(Fraction(0), Fraction(-3, 7), 5)
    @example(Fraction(2), Fraction(0), 5)
    @settings(max_examples=200, deadline=None)
    def test_rational_plus_root(self, a, b, s):
        value = SqrtSum.make({1: a, s: b})
        assert value.sign() == bracket_sign(value)

    @given(fractions, fractions, radicands, radicands)
    @settings(max_examples=100, deadline=None)
    def test_two_roots(self, a, b, s, t):
        value = SqrtSum.make({s: a}) + SqrtSum.make({t: b})
        assert value.sign() == bracket_sign(value)


# ---------------------------------------------------------------------------
# the rounding step on Fractions, one nearest-point search per ball point


def fraction_inner(u, v):
    """<u, v> under the ambient form, as a Fraction."""
    return (Fraction((u + v).abs_squared()) - u.abs_squared() - v.abs_squared()) / 2


def fraction_lagrange_reduce(u1, u2):
    if u2.abs_squared() < u1.abs_squared():
        u1, u2 = u2, u1
    while True:
        r = math.floor(fraction_inner(u1, u2) / u1.abs_squared() + Fraction(1, 2))
        u2 = u2 - r * u1
        if u2.abs_squared() < u1.abs_squared():
            u1, u2 = u2, u1
        else:
            break
    if fraction_inner(u1, u2) > 0:
        u2 = -u2
    return u1, u2


def fraction_covering_radius_squared(K, alpha):
    """Reference covering radius: the Lagrange reduction of (1, alpha) on
    QuadInts with Fraction inner products, then the circumradius."""
    one = K.one
    if alpha.is_rational:
        return Fraction(one.abs_squared(), 4)
    u1, u2 = fraction_lagrange_reduce(one, alpha)
    A = Fraction(u1.abs_squared())
    B = Fraction(u2.abs_squared())
    C = Fraction((u1 + u2).abs_squared())
    return A * B * C / (2 * (A * B + B * C + C * A) - A * A - B * B - C * C)


def _fraction_alpha_abs_upper(alpha):
    if alpha.is_rational:
        return Fraction(abs(alpha.x))
    K = alpha.field
    if not K.is_real:
        return frac_sqrt_upper(Fraction(alpha.norm()))
    u, v = alpha.embedding_coords(0)
    return abs(u) + abs(v) * frac_sqrt_upper(Fraction(K.m))


def per_point_rounding_step(K, alpha, n, radius_factor=0):
    """Reference rounding step: each ball point's nearest point is searched
    for on its own, and the bounds are SqrtSum and Fraction arithmetic."""
    alpha = K.element(alpha) if isinstance(alpha, int) else alpha
    if not alpha:
        raise ValueError("alpha must be nonzero")
    if n < 3:
        raise ValueError("need n >= 3")
    if radius_factor < 0:
        raise ValueError("radius_factor must be nonnegative")
    bound = SqrtSum.rational(n - 1)
    for place in range(K.places):
        if quadint_abs(alpha, place).compare(bound) >= 0:
            raise ValueError(f"|alpha| at place {place} is not strictly below n-1 = {n - 1}")
    m_squared = fraction_covering_radius_squared(K, alpha)
    m_upper = frac_sqrt_upper(m_squared)
    c_upper = _fraction_alpha_abs_upper(alpha)
    if c_upper >= n - 1:
        raise PrecisionError("upper bound for |alpha| touched n-1")
    r_bound = (n - 2) * m_upper * (n - 1) / ((n - 1) - c_upper)
    radius = Fraction(2) ** (math.floor(r_bound).bit_length() + radius_factor)
    r_squared = radius * radius
    estimate = _ball_size_estimate(K, alpha, r_squared)
    if estimate > 1 << 14:
        raise BudgetExceededError(
            f"the rounding ball of radius^2 {r_squared} holds about {estimate} "
            f"lattice points, more than {1 << 14}", required=estimate)
    coords = [key for _, key in sorted(_points_near(K, alpha, r_squared)(0, 0))]
    index = {key: i for i, key in enumerate(coords)}
    nearest = _points_near(K, alpha, m_squared)
    rows = []
    for wx, wy in _times(alpha, coords):
        _, (x1, y1) = min(nearest(wx, wy, n - 1))
        j1 = index[x1, y1]
        j2 = index[wx - (n - 2) * x1, wy - (n - 2) * y1]
        rows.append(((j1, n - 1),) if j1 == j2 else tuple(sorted(((j1, n - 2), (j2, 1)))))
    return LatticeStep(rows=tuple(rows), points=tuple(K.element(x, y) for x, y in coords),
                       radius_squared=r_squared, covering_radius_squared=m_squared, n=n)


def _near_or_inside(m, x, y, n):
    """alpha nonzero with |alpha| below n at every place: inside n - 1, or
    refused by the comparison with it."""
    alpha = QuadField(m).element(x, y)
    return bool(alpha) and all(quadint_abs(alpha, place) < SqrtSum.rational(n)
                               for place in range(alpha.field.places))


# (m, x, y, n, radius_factor): real and imaginary fields, half-integer rings
# and rational alpha, filtered once here so that no draw is rejected
ROUNDING_CASES = [case for case in itertools.product(
    [2, 3, 5, 13, -1, -2, -3, -7, -11, -15], range(-4, 5), range(-2, 3), range(3, 6), range(2))
    if _near_or_inside(*case[:4])]


def outcome(func, *args):
    try:
        return func(*args)
    except Exception as err:  # noqa: BLE001 - the class and message are the outcome
        return type(err).__name__, str(err)


class TestRounding:
    @given(st.sampled_from(ROUNDING_CASES))
    @example((-7, 0, 1, 3, 0))
    @example((-15, 0, 1, 3, 0))  # |w| = 2 = n - 1
    @example((5, 1, 1, 3, 1))  # 1 + w = 2.618... at place 0, past n - 1 = 2
    @example((5, 2, -1, 3, 0))  # 2 - w = 2.618... at place 1
    @example((5, 0, 1, 3, 0))
    @example((2, 1, 1, 4, 1))
    @example((-3, 1, 1, 5, 0))
    @example((3, -2, 0, 4, 1))
    @example((-1, 1, 1, 5, 0))  # the dimension-1030 pipeline's first ball
    @settings(max_examples=60, deadline=None)
    def test_rows_match_per_point_reference(self, case):
        m, x, y, n, radius_factor = case
        K = QuadField(m)
        alpha = K.element(x, y)
        want = outcome(per_point_rounding_step, K, alpha, n, radius_factor)
        assert outcome(lattice_rounding_step, K, alpha, n, radius_factor) == want

    @given(st.sampled_from([2, 3, 5, 6, 7, 13, 101, -1, -2, -3, -5, -7, -11, -15, -163]),
           st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 40, 10 ** 40),
           st.integers(-10 ** 6, 10 ** 6) | st.integers(-10 ** 40, 10 ** 40))
    @example(-1, 1, 1)
    @example(5, 0, 1)
    @example(2, 0, 0)
    @example(-3, 10 ** 30, 1)
    @settings(max_examples=200, deadline=None)
    def test_covering_radius_matches_fraction_reference(self, m, x, y):
        K = QuadField(m)
        alpha = K.element(x, y)
        assert covering_radius_squared(K, alpha) == fraction_covering_radius_squared(K, alpha)
