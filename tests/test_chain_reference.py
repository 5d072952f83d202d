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
"""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smyth.numfield import _points_near, _split, birkhoff_decompose, permutation_sum
from smyth.quadratic import QuadField, SqrtSum, _squarefree_split

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
        ((True, False), (False, True)),
        ((0, 0), (0, 0)),
        ((0,),),
    ], ids=["bool", "zero", "zero-1x1"])
    def test_accepted_edge_cases_match_reference(self, D):
        # bool is an int subclass, read as 0 and 1; a zero matrix splits into
        # no permutations
        assert birkhoff_decompose(D) == dense_birkhoff(D)


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
