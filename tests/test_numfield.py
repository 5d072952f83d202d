"""Number field pipeline tests: criteria, relations, lattices, certificates."""
import itertools
import math
from cmath import exp as cexp, pi as cpi, sqrt as csqrt
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smyth import numfield
from smyth.algebra import euler_phi, kernel_basis
from smyth.core import BalancedMultiset, certificate_from_balanced, verify_certificate
from smyth.errors import (
    BridgeError,
    BudgetExceededError,
    EqualityHypothesisError,
    TupleArityError,
)
from smyth.numfield import (
    MAX_BALL_POINTS,
    MAX_BRIDGE_DIMENSION,
    BridgeResult,
    LatticeStep,
    _as_quadint,
    _cyclotomic_sqrt,
    _points_near,
    _rou_sum_is_zero,
    _sccs,
    birkhoff_decompose,
    covering_radius_squared,
    lattice_rounding_step,
    numfield_pipeline,
    permutation_sum,
    perron_bridge,
    rou_relation_search,
    rou_twist,
    strong_criteria_check,
    unimodular_extract,
    verify_numfield_certificate,
)
from smyth.quadratic import QuadField, SqrtSum, parse_quadint, quadint_abs
from test_chain_reference import abs_squared, frac_sqrt_upper, fraction_inner
from test_numfield_reference import reference_matrix_fixes

GAUSS = QuadField(-1)
M7 = QuadField(-7)
M15 = QuadField(-15)
M2 = QuadField(-2)
REAL2 = QuadField(2)


def sparse(matrix):
    """The sparse rows of a dense matrix: (column, entry) for each nonzero entry."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in matrix)


def recursive_birkhoff(D):
    """Reference split: Kuhn's matching by recursion, columns in ascending order."""
    size = len(D)
    work = [list(row) for row in D]
    perms = []
    for _ in range(sum(work[0])):
        match_col = [-1] * size

        def assign(r, visited):
            for c in range(size):
                if work[r][c] > 0 and c not in visited:
                    visited.add(c)
                    if match_col[c] == -1 or assign(match_col[c], visited):
                        match_col[c] = r
                        return True
            return False

        for r in range(size):
            assert assign(r, set())
        perm = [0] * size
        for c, r in enumerate(match_col):
            perm[r] = c
        for r, c in enumerate(perm):
            work[r][c] -= 1
        perms.append(tuple(perm))
    return perms


def bareiss_det_is_zero(matrix):
    """Reference singularity test: Bareiss on a square matrix over a
    quadratic ring, pivoting only when the diagonal entry vanishes."""
    size = len(matrix)
    mat = [row[:] for row in matrix]
    prev = 1
    for k in range(size - 1):
        if not mat[k][k]:
            swap = next((i for i in range(k + 1, size) if mat[i][k]), None)
            if swap is None:
                return True
            mat[k], mat[swap] = mat[swap], mat[k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                if prev != 1:
                    quot = num.exact_div(prev)
                    assert quot is not None, "inexact division in elimination"
                    num = quot
                mat[i][j] = num
        prev = mat[k][k]
    return not mat[size - 1][size - 1]


def quadint_det_verdict(alpha, perms):
    """Reference for verify_numfield_certificate: Bareiss on S - alpha*I
    over the quadratic ring itself."""
    K = alpha.field
    size = len(perms[0])
    S = permutation_sum(perms, size)
    return bareiss_det_is_zero([[K.element(S[i][j]) - (alpha if i == j else K.zero)
                          for j in range(size)] for i in range(size)])


def integer_eigenvector(alpha, n, perms):
    """Reference for verify_numfield_certificate without a witness: an
    eigenvector of S, the sum of the permutation matrices, for alpha, or
    None when det(S - alpha*I) != 0.

    kernel_basis runs on an integer matrix: S - alpha*I for rational alpha,
    and otherwise f(S) with f(x) = x^2 - tr(alpha)*x + N(alpha) the minimal
    polynomial of alpha, with S^2 accumulated as the sum of the products
    P_i P_j. det f(S) is Norm(det(S - alpha*I)). A kernel vector u of
    f(S) = (S - alpha)(S - alpha') gives the eigenvector (S - alpha') u,
    which is nonzero because u is rational and alpha' is not.
    """
    perms = [tuple(p) for p in perms]
    assert len(perms) == n - 1
    K = alpha.field
    size = len(perms[0])
    S = permutation_sum(perms, size)
    if not alpha.is_rational:
        mat = [[0] * size for _ in range(size)]
        trace = alpha.trace()
        for p in perms:
            for k, image in enumerate(p):
                mat[k][image] -= trace
                for q in perms:
                    mat[k][q[image]] += 1
        diagonal = alpha.norm()
    else:
        mat = [list(row) for row in S]
        diagonal = -alpha.x
    for k in range(size):
        mat[k][k] += diagonal
    basis = kernel_basis(mat)
    if not basis:
        return None
    u = basis[0]
    if alpha.is_rational:
        return [K.element(x) for x in u]
    conj = alpha.conj()
    return [K.element(sum(S[k][j] * u[j] for j in range(size))) - conj * u[k]
            for k in range(size)]


def assert_matches_quadint_reference(alpha, n, perms):
    """The reference's eigenvector passes as the witness exactly when the
    QuadInt determinant vanishes; otherwise the all-ones vector is refused.
    Returns the verdict."""
    S = permutation_sum(perms, len(perms[0]))
    vec = integer_eigenvector(alpha, n, perms)
    verdict = quadint_det_verdict(alpha, perms)
    assert (vec is not None) == verdict
    witness = vec or [alpha.field.one] * len(S)
    assert verify_numfield_certificate(alpha, n, S, perms, witness) == verdict
    return verdict


def reference_ball_points(K, alpha, r_squared):
    """Reference ball: the points of Z[alpha] with ambient form at most
    r_squared, row by row about 0, sorted by (form, sort_key)."""
    one = K.one
    q1 = Fraction(abs_squared(one))
    if alpha.is_rational:
        kmax = math.isqrt(math.floor(r_squared / q1))
        pts = [K.element(k) for k in range(-kmax, kmax + 1)]
    else:
        g01 = fraction_inner(one, alpha)
        det = q1 * Fraction(abs_squared(alpha)) - g01 * g01
        smax = math.isqrt(math.floor(r_squared * q1 / det))
        pts = []
        for s in range(-smax, smax + 1):
            up = frac_sqrt_upper(r_squared * q1 - det * s * s)
            for p in range(math.ceil((-g01 * s - up) / q1),
                           math.floor((-g01 * s + up) / q1) + 1):
                z = K.element(p + s * alpha.x, s * alpha.y)
                if abs_squared(z) <= r_squared:
                    pts.append(z)
    pts.sort(key=lambda z: (abs_squared(z), z.sort_key))
    return pts


def scan_rounding_step(K, alpha, n, r_squared):
    """Reference for lattice_rounding_step: each nearest point found by
    scanning every ball point, O(P^2) comparisons."""
    points = reference_ball_points(K, alpha, r_squared)
    index = {z: i for i, z in enumerate(points)}
    rows = []
    for z in points:
        w = alpha * z
        tx, ty = Fraction(w.x, n - 1), Fraction(w.y, n - 1)
        z1 = min(points, key=lambda c: (K.ambient_q(tx - c.x, ty - c.y), c.sort_key))
        row = [0] * len(points)
        row[index[z1]] += n - 2
        row[index[w - (n - 2) * z1]] += 1
        rows.append(tuple(row))
    return LatticeStep(rows=sparse(rows), points=tuple(points), radius_squared=r_squared,
                       covering_radius_squared=covering_radius_squared(K, alpha), n=n)


def fraction_points_near(K, alpha, r_squared):
    """Reference lister on Fraction centres, as the library had it before
    distances moved to integers: maps a centre tx + ty*w = a + b*alpha to
    entries (distance^2, sort_key, point). In rank 1 (rational alpha) the
    only row is s = 0 and ty must be 0."""
    q1 = Fraction(abs_squared(K.one))
    width = r_squared * q1
    ax, ay = alpha.x, alpha.y
    g01 = fraction_inner(K.one, alpha)
    det = q1 * abs_squared(alpha) - g01 * g01
    s_half = frac_sqrt_upper(width / det) if ay else 0

    def near(tx, ty):
        b = Fraction(ty, ay) if ay else Fraction(0)
        a = tx - b * ax
        found = []
        for s in range(math.ceil(b - s_half), math.floor(b + s_half) + 1):
            disc = width - det * (s - b) ** 2
            if disc < 0:
                continue
            mid = a - g01 * (s - b) / q1
            up = frac_sqrt_upper(disc) / q1
            for p in range(math.ceil(mid - up), math.floor(mid + up) + 1):
                x, y = p + s * ax, s * ay
                dist = K.ambient_q(tx - x, ty - y)
                if dist <= r_squared:
                    found.append((dist, (x, y), K.element(x, y)))
        return found

    return near


def fraction_rounding_step(K, alpha, n, r_squared):
    """Reference for lattice_rounding_step at a given ball radius: the ball and
    every nearest point from fraction_points_near, rows written densely."""
    points = [z for _, _, z in sorted(fraction_points_near(K, alpha, r_squared)(0, 0))]
    index = {z: i for i, z in enumerate(points)}
    m_squared = covering_radius_squared(K, alpha)
    nearest = fraction_points_near(K, alpha, m_squared)
    rows = []
    for z in points:
        w = alpha * z
        _, _, z1 = min(nearest(Fraction(w.x, n - 1), Fraction(w.y, n - 1)))
        row = [0] * len(points)
        row[index[z1]] += n - 2
        row[index[w - (n - 2) * z1]] += 1
        rows.append(tuple(row))
    return LatticeStep(rows=sparse(rows), points=tuple(points), radius_squared=r_squared,
                       covering_radius_squared=m_squared, n=n)


def reference_perron_bridge(C, alpha, z):
    """Reference for perron_bridge: the bridge as it was on dense rows and
    QuadInt points, with BalancedMultiset.make checking each member.

    Rebalance a row-regular rounding matrix to equal column sums.

    If C is already doubly regular it is returned as found. Otherwise the
    nonzero ball points are restricted to the smallest norm shell admitting
    a nonempty subset closed under the decomposition alpha*p = (n-2)*p_1 +
    p_2, a sink strongly connected component of the chosen decompositions
    is isolated, and its positive left eigenvector (eigenvalue n-1,
    guaranteed by irreducibility) sets member multiplicities. Routing those
    members through slots and reading the columns back produces a doubly
    regular matrix; the eigen identity is verified before returning, and
    failure raises BridgeError carrying C.
    """
    points = tuple(z)
    if not points:
        raise BridgeError("empty point list", matrix=tuple(map(tuple, C)))
    field = points[0].field
    alpha = _as_quadint(field, alpha)
    matrix = tuple(tuple(row) for row in C)
    size = len(matrix)
    if size != len(points) or any(len(row) != size for row in matrix):
        raise ValueError("matrix shape must match the point list")
    row_sums = {sum(row) for row in matrix}
    if len(row_sums) != 1:
        raise ValueError("rows must share a common sum")
    n = row_sums.pop() + 1
    if n < 3:
        raise ValueError("row sums must be at least 2")
    if all(col == n - 1 for col in map(sum, zip(*matrix))):
        if not reference_matrix_fixes(matrix, points, alpha):
            raise BridgeError("doubly regular input fails the eigen identity",
                              matrix=matrix)
        return BridgeResult(matrix=matrix, eigenvector=points, strategy="as-given")
    index = {p: i for i, p in enumerate(points)}
    norms = {i: abs_squared(p) for i, p in enumerate(points) if p}
    scaled = {i: (n - 2) * points[i] for i in norms}

    def find_decomp(i: int, order: list, allowed: set) :
        """The first (j1, j2) in order with alpha*p_i = (n-2)*p_j1 + p_j2."""
        w = alpha * points[i]
        for j1 in order:
            j2 = index.get(w - scaled[j1])
            if j2 is not None and j2 in allowed:
                return (j1, j2)
        return None

    def fixpoint(candidates):
        """The largest subset of candidates closed under the decomposition,
        as each member's decomposition inside it."""
        live = candidates
        while True:
            order = sorted(live)
            decomp = {}
            for i in order:
                found = find_decomp(i, order, live)
                if found is not None:
                    decomp[i] = found
            if len(decomp) == len(live):
                return decomp
            live = set(decomp)

    decomp = {}
    for bound in sorted(set(norms.values())):
        decomp = fixpoint({i for i, norm in norms.items() if norm <= bound})
        if decomp:
            break
    if not decomp:
        raise BridgeError("no nonzero subset closed under the decomposition",
                          matrix=matrix)
    live = set(decomp)
    succ = {i: sorted(set(decomp[i])) for i in live}
    components = _sccs(live, succ)
    sinks = [comp for comp in components
             if all(child in comp for node in comp for child in succ[node])]
    if not sinks:
        raise BridgeError("no sink component", matrix=matrix)
    final = min(sinks, key=min)
    order = sorted(final)
    pos = {i: k for k, i in enumerate(order)}
    sub = [[0] * len(order) for _ in order]
    for i in order:
        j1, j2 = decomp[i]
        sub[pos[i]][pos[j1]] += n - 2
        sub[pos[i]][pos[j2]] += 1
    eig = [[sub[c][r] - (n - 1 if r == c else 0)
            for c in range(len(order))] for r in range(len(order))]
    basis = kernel_basis(eig)
    if len(basis) != 1:
        raise BridgeError(
            f"left eigenspace has dimension {len(basis)}, expected 1",
            matrix=matrix)
    vec = basis[0]
    if all(x <= 0 for x in vec):
        vec = [-x for x in vec]
    if not all(x > 0 for x in vec):
        raise BridgeError("left eigenvector is not positive", matrix=matrix)
    g = math.gcd(*vec)
    mult = {i: vec[pos[i]] // g for i in order}

    member_source = []
    for i in order:
        member_source.extend([i] * mult[i])
    slots = []
    slot_base = {}
    for w in order:
        slot_base[w] = len(slots)
        slots.extend([w] * mult[w])
    total = len(slots)
    if total > 4096:
        raise BridgeError(
            f"rebalanced dimension {total} is too large to materialize",
            matrix=matrix)
    fill = {w: 0 for w in order}
    bip = [[0] * total for _ in range(total)]
    for r, i in enumerate(member_source):
        j1, j2 = decomp[i]
        for w in [j1] * (n - 2) + [j2]:
            col = slot_base[w] + fill[w] // (n - 1)
            fill[w] += 1
            bip[r][col] += 1
    if any(fill[w] != (n - 1) * mult[w] for w in order):
        raise BridgeError("slot routing does not balance", matrix=matrix)
    matchings = birkhoff_decompose(tuple(map(tuple, bip)))
    one = field.one
    coeffs = tuple([one] * (n - 1) + [-alpha])
    members = []
    for r, i in enumerate(member_source):
        coords = tuple(points[slots[mt[r]]] for mt in matchings)
        members.append(coords + (points[i],))
    balanced = BalancedMultiset.make(coeffs, members)
    cert = certificate_from_balanced(coeffs, balanced)
    # each row of the certificate is (D v)[k] = alpha*v[k] with D the sum of
    # its first n-1 permutations, whose rows and columns then sum to n-1
    if not verify_certificate(coeffs, cert):
        raise BridgeError("rebalanced matrix fails the eigen identity",
                          matrix=matrix)
    D = permutation_sum(cert.perms[:-1], cert.m)
    return BridgeResult(matrix=D, eigenvector=tuple(cert.kernel), strategy="sink-class")


def _conjugate_bound(value):
    if isinstance(value, int):
        return abs(value)
    field = value.field
    w_bound = abs(field.omega_trace) + math.isqrt(abs(field.m)) + 1
    return abs(value.x) + abs(value.y) * w_bound


def _interval_embeddings(values, M, exps):
    import mpmath

    iv = mpmath.iv
    two_pi = 2 * iv.pi
    re = iv.mpf(0)
    im = iv.mpf(0)
    for value, e in zip(values, exps):
        if isinstance(value, int):
            vr, vi = iv.mpf(value), iv.mpf(0)
        else:
            field = value.field
            if field.m > 0:
                root = iv.sqrt(field.m)
                om_re = (field.omega_trace + root) / 2 if field.half else root
                om_im = iv.mpf(0)
            else:
                root = iv.sqrt(-field.m)
                om_re = iv.mpf(field.omega_trace) / 2
                om_im = root / 2 if field.half else root
            vr = value.x + value.y * om_re
            vi = value.y * om_im
        ang = two_pi * e / M
        zr, zi = iv.cos(ang), iv.sin(ang)
        re += vr * zr - vi * zi
        im += vr * zi + vi * zr
    return re, im


def rigorous_rou_zero(values, M, exps):
    """Reference zero test for sum a_i zeta_M^e_i: mpmath interval arithmetic.

    The sum is an algebraic integer of degree at most 2*phi(M) when the
    entries share one field; if nonzero, its modulus is at least 1/B^(D-1)
    where B bounds every conjugate. The interval either clears that
    separation bound or excludes zero, doubling the precision up to
    2^14 bits.
    """
    import mpmath

    B = max(2, sum(_conjugate_bound(v) for v in values))
    D = 2 * euler_phi(M)
    sep_sq = Fraction(1, B ** (2 * max(D - 1, 1)))
    prec = 64
    while prec <= 1 << 14:
        old = mpmath.iv.prec
        try:
            mpmath.iv.prec = prec
            re, im = _interval_embeddings(values, M, exps)
            mag_sq = re * re + im * im
            lo = mpmath.mpf(mag_sq.a)
            hi = mpmath.mpf(mag_sq.b)
        finally:
            mpmath.iv.prec = old
        if lo > 0:
            return False
        if hi < mpmath.mpf(sep_sq.numerator) / sep_sq.denominator:
            return True
        prec *= 2
    raise AssertionError("reference zero test undecided at 2^14 bits")


@st.composite
def permutation_sets(draw, max_size=7, min_count=1, max_count=4):
    size = draw(st.integers(1, max_size))
    count = draw(st.integers(min_count, max_count))
    return [tuple(draw(st.permutations(range(size)))) for _ in range(count)]


class TestStrongCriteria:
    def test_integer_triple_passes(self):
        rep = strong_criteria_check(M7, [3, 4, -5])
        assert rep.archimedean_ok
        assert rep.nonarch_status == "pass"
        assert rep.passes

    def test_shared_factor_fails_nonarch(self):
        # removing the 3 leaves (2, -4) with gcd 2
        rep = strong_criteria_check(M7, [2, 3, -4])
        assert rep.archimedean_ok
        assert rep.nonarch_status == "fail"
        assert not rep.passes

    def test_arity_guard(self):
        with pytest.raises(TupleArityError):
            strong_criteria_check(M7, [1, 2])

    def test_violation_detected(self):
        rep = strong_criteria_check(M7, [1, 1, 5])
        assert not rep.archimedean_ok
        assert (2, 0) in rep.violations
        assert not rep.passes

    def test_equality_detected(self):
        # |omega| = 2 in the sqrt(-15) ring while the others sum to 2
        rep = strong_criteria_check(M15, [1, 1, M15.omega])
        assert (2, 0) in rep.equalities
        assert not rep.passes

    def test_unit_coordinate_fallback(self):
        # two rational unit coordinates support the finite-place argument
        rep = strong_criteria_check(M7, [1, -1, M7.element(1, 1)])
        assert rep.nonarch_status in ("pass", "unsupported")

    def test_real_field_places(self):
        rep = strong_criteria_check(REAL2, [1, 1, 1])
        assert rep.archimedean_ok
        assert rep.passes


class TestRouRelationSearch:
    def test_rational_signs_are_order_one_or_two(self):
        rel = rou_relation_search([GAUSS.element(2), GAUSS.element(3), GAUSS.element(-5)])
        assert rel is not None
        assert rel.common_order in (1, 2)
        assert 2 + 3 - 5 == 0

    def test_cube_roots_for_ones(self):
        rel = rou_relation_search([GAUSS.one, GAUSS.one, GAUSS.one])
        assert rel is not None
        assert rel.common_order == 3
        assert rel.exponents == (0, 1, 2)
        assert sorted(rel.orders) == [1, 3, 3]

    def test_negative_control_sqrt_minus_15(self):
        rel = rou_relation_search([M15.one, M15.one, M15.omega], max_order=60)
        assert rel is None

    def test_exponent_normalization(self):
        rel = rou_relation_search([GAUSS.one, GAUSS.one, GAUSS.one])
        assert rel.exponents[0] == 0

    def test_mixed_fields_rejected(self):
        with pytest.raises(ValueError, match="different quadratic field"):
            rou_relation_search([GAUSS.one, 1, M7.one])
        with pytest.raises(ValueError, match="different quadratic field"):
            rou_relation_search([M7.omega, REAL2.omega])

    def test_entries_too_large_for_the_prefilter_rejected(self):
        # n = 3: an entry is refused once 3 * 44 * (|x| + |y|*(isqrt|m| + 1)) >= 2^33
        limit = ((1 << 33) - 1) // (3 * 44)
        rel = rou_relation_search([limit] * 3, max_order=3)
        assert rel is not None and rel.common_order == 3
        for values in ([limit + 1] * 3, [10**11] * 3, [10**400, 1, 1],
                       [GAUSS.one, GAUSS.one, GAUSS.element(0, limit // 2 + 1)]):
            with pytest.raises(ValueError, match="too large"):
                rou_relation_search(values)

    def test_plain_ints_mix_with_one_field(self):
        rel = rou_relation_search([1, GAUSS.one, GAUSS.element(-1), GAUSS.omega], max_order=4)
        assert rel is not None and rel.common_order == 4
        assert rou_relation_search([1, -1]).common_order == 1


# fields with m = 1, 2 and 3 mod 4, both signs, and |disc| at most 60
ROU_FIELDS = (-1, -2, -3, -5, -6, -7, -11, -15, 2, 3, 5, 6, 7, 13)


def as_entries(K, entries):
    """Plain ints stay ints; strings parse as x+y*w in K."""
    return [v if isinstance(v, int) else parse_quadint(K, v) for v in entries]


# true relations sum a_i zeta_M^e_i = 0 whose sqrt(m) part does not cancel
PLANTED_ROU = [
    (-1, (1, 1, "w"), 12, (0, 4, 5)),
    (-1, (1, 1, "w"), 24, (0, 8, 10)),
    (-1, ("1", "w"), 4, (0, 1)),
    (-2, ("1", "1", "w"), 8, (0, 2, 3)),
    (-3, ("1", "w"), 3, (0, 1)),
    (-5, ("w", -1, -2, -2), 20, (0, 5, 9, 1)),
    (-6, ("w", -1, -1, -1, -1), 24, (0, 11, 7, 5, 1)),
    (-7, ("1", "1", "1", "1-w"), 7, (0, 1, 3, 6)),
    (-7, ("1", "1", "1", "1-w"), 14, (0, 2, 6, 12)),
    (-11, ("w", -1, -1, -1, -1, -1, -1), 11, (0, 0, 1, 3, 4, 5, 9)),
    (-15, (1, 1, 1, 1, "-w"), 15, (0, 1, 3, 7, 14)),
    (2, (1, 1, "w"), 8, (0, 2, 5)),
    (3, (1, 1, "w"), 12, (0, 2, 7)),
    (5, (1, 1, "w"), 5, (0, 1, 3)),
    (5, ("1", "-1", "w"), 10, (0, 3, 4)),
    (6, ("w", -1, -1, -1, -1), 24, (0, 5, 1, 23, 19)),
    (13, ("w", -1, -1, -1, -1, -1, -1, -1), 13, (0, 0, 1, 3, 4, 9, 10, 12)),
]


@st.composite
def rou_sums(draw):
    K = QuadField(draw(st.sampled_from(ROU_FIELDS)))
    disc = abs(K.discriminant)
    M = draw(st.one_of(st.integers(1, 60),
                       st.sampled_from(range(disc, 61, disc))))
    n = draw(st.integers(2, 4))
    pairs = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2, 2)).filter(any),
                          min_size=n, max_size=n))
    values = [x if not y and draw(st.booleans()) else K.element(x, y) for x, y in pairs]
    exps = draw(st.lists(st.integers(0, M - 1), min_size=n, max_size=n))
    return values, M, exps


@st.composite
def planted_variants(draw):
    """A planted relation at a multiple of its order, rotated, scaled by a
    field element, and with its exponents moved by a unit mod M: the last
    step keeps the sum zero exactly when it fixes sqrt(m)."""
    m, entries, M, exps = draw(st.sampled_from(PLANTED_ROU))
    K = QuadField(m)
    k = draw(st.integers(1, 60 // M))
    M = M * k
    unit = draw(st.sampled_from([u for u in range(1, M) if math.gcd(u, M) == 1]))
    shift = draw(st.integers(0, M - 1))
    factor = K.element(draw(st.integers(-2, 2)), draw(st.integers(-1, 1)))
    assume(factor)
    values = [v * factor for v in as_entries(K, entries)]
    return values, M, [(unit * k * e + shift) % M for e in exps]


class TestRouZeroTest:
    """The exact zero test in Q(zeta_M) against the mpmath interval reference."""

    @pytest.mark.parametrize("m", ROU_FIELDS + (10, -10, 21, -21, 30))
    def test_gauss_sum_is_the_principal_root(self, m):
        disc = abs(QuadField(m).discriminant)
        for M in (disc, 2 * disc, 3 * disc):
            root, scale = _cyclotomic_sqrt(m, M)
            value = sum(r * cexp(2j * cpi * k / M) for k, r in enumerate(root))
            assert abs(value - scale * csqrt(m)) < 1e-9

    @pytest.mark.parametrize("m, entries, M, exps", PLANTED_ROU,
                             ids=[f"m={c[0]} M={c[2]}" for c in PLANTED_ROU])
    def test_planted_relations(self, m, entries, M, exps):
        values = as_entries(QuadField(m), entries)
        assert _rou_sum_is_zero(values, M, exps) is True
        assert rigorous_rou_zero(values, M, exps) is True
        shifted = exps[:-1] + ((exps[-1] + 1) % M,)
        assert _rou_sum_is_zero(values, M, shifted) is False
        assert rigorous_rou_zero(values, M, shifted) is False
        bumped = values[:-1] + [values[-1] + 1]
        assert _rou_sum_is_zero(bumped, M, exps) is False
        assert rigorous_rou_zero(bumped, M, exps) is False

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(rou_sums(), planted_variants()))
    @example(([GAUSS.one, GAUSS.element(-1)], 1, [0, 0]))
    @example(([1, M15.omega, M15.element(-1, -1)], 30, [0, 0, 0]))
    def test_matches_interval_reference(self, case):
        values, M, exps = case
        assert _rou_sum_is_zero(values, M, exps) == rigorous_rou_zero(values, M, exps)

    def test_no_precision_ceiling(self):
        # the interval reference runs out of precision on entries this large
        c = 10 ** 2000
        values = [c, c, c * GAUSS.omega]
        assert _rou_sum_is_zero(values, 12, (0, 4, 5)) is True
        assert _rou_sum_is_zero([c + 1] + values[1:], 12, (0, 4, 5)) is False
        with pytest.raises(AssertionError, match="undecided"):
            rigorous_rou_zero(values, 12, (0, 4, 5))


class TestRouTwist:
    def _base(self):
        return BalancedMultiset.make((1, 1, -2), [(1, 1, 1), (2, 2, 2)])

    def test_order_one_is_identity(self):
        b = self._base()
        assert rou_twist(b, 1, 1) is b

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_twist_balances(self, m):
        b = self._base()
        tw = rou_twist(b, 1, m)
        assert tw.size == b.size * m
        # re-validation happened inside make; spot-check one relation
        c = tw.coeffs
        v = tw.members[0]
        assert not (c[0] * v[0] + c[1] * v[1] + c[2] * v[2])

    def test_twist_other_coordinate(self):
        tw = rou_twist(self._base(), 3, 2)
        assert tw.size == 4

    def test_rejects_bad_coordinate(self):
        with pytest.raises(ValueError):
            rou_twist(self._base(), 4, 2)

    def test_rejects_large_order(self):
        with pytest.raises(ValueError):
            rou_twist(self._base(), 1, 25)

    def test_rejects_non_integer_multiset(self):
        b = BalancedMultiset.make(
            (GAUSS.one, GAUSS.one, GAUSS.element(-2)),
            [(GAUSS.one, GAUSS.one, GAUSS.one)],
        )
        with pytest.raises(ValueError):
            rou_twist(b, 1, 2)


class TestUnimodularExtract:
    def test_requires_equality(self):
        b = BalancedMultiset.make((1, 1, -2), [(1, 1, 1)])
        with pytest.raises(EqualityHypothesisError):
            unimodular_extract((1, 1, -3), b)

    def test_extracts_max_rows(self):
        # |-2| = |1| + |1| holds; only (2,2,2) attains the max modulus in
        # every coordinate, and dividing by 2 normalizes it to units
        b = BalancedMultiset.make(
            (1, 1, -2), [(2, 2, 2), (1, 1, 1), (1, 1, 1)]
        )
        res = unimodular_extract((1, 1, -2), b)
        assert res.normalized
        members = res.multiset.members
        assert all(abs(v) == 1 for row in members for v in row)

    def test_unit_rows_pass_through(self):
        b = BalancedMultiset.make(
            (1, 1, -2), [(1, 1, 1), (-1, -1, -1)]
        )
        res = unimodular_extract((1, 1, -2), b)
        assert res.normalized
        assert res.multiset.size == 2


class TestFracSqrtUpper:
    def test_upper_bound_tightness(self):
        for f in (Fraction(2), Fraction(3, 4), Fraction(17, 5)):
            ub = frac_sqrt_upper(f)
            assert ub * ub >= f
            # within 2^-60 relative slack
            assert (ub - Fraction(1, 1 << 60)) ** 2 <= f or ub <= Fraction(1, 1 << 59)

    def test_exact_squares(self):
        assert frac_sqrt_upper(Fraction(4)) ** 2 >= 4
        assert 0 <= frac_sqrt_upper(Fraction(0)) <= Fraction(1, 1 << 60)


class TestCoveringRadius:
    def test_frozen_oracles(self):
        assert covering_radius_squared(M7, M7.omega) == Fraction(4, 7)
        assert covering_radius_squared(M2, M2.omega) == Fraction(3, 4)
        assert covering_radius_squared(GAUSS, GAUSS.omega) == Fraction(1, 2)
        assert covering_radius_squared(REAL2, REAL2.omega) == Fraction(3, 2)

    def test_rational_alpha_rank_one(self):
        assert covering_radius_squared(M7, M7.element(2)) == Fraction(1, 4)


class TestLatticeRoundingStep:
    def test_sqrt_minus_7(self):
        step = lattice_rounding_step(M7, M7.omega, 3)
        assert step.radius_squared == Fraction(16)
        assert len(step.points) == 43
        assert len(step.matrix) == 43
        assert all(sum(row) == 2 for row in step.matrix)

    def test_strictness_guard(self):
        # |omega| = 2 = n - 1 in the sqrt(-15) ring: not strictly inside
        with pytest.raises(ValueError):
            lattice_rounding_step(M15, M15.omega, 3)

    def test_matrix_acts_on_points(self):
        step = lattice_rounding_step(GAUSS, GAUSS.omega, 3)
        alpha = GAUSS.omega
        for i, row in enumerate(step.matrix):
            acc = GAUSS.zero
            for j, e in enumerate(row):
                acc = acc + e * step.points[j]
            assert acc == alpha * step.points[i]

    # real fields (the golden ratio among them), half-integer rings and
    # rational alpha; |alpha| <= n - 2 keeps the ball, and the scan, small
    @given(st.sampled_from([2, 5, -1, -2, -3, -7, -15]), st.integers(-2, 2),
           st.integers(-1, 1), st.integers(3, 4), st.integers(0, 1))
    @example(5, 0, 1, 4, 0)
    @example(2, 0, 1, 4, 0)
    @example(-3, 0, 1, 3, 1)
    @example(-15, 0, 1, 4, 0)
    @example(-7, 0, 1, 4, 0)
    @example(-7, -2, 0, 4, 1)
    @settings(max_examples=30, deadline=None)
    def test_matches_scan_reference(self, m, x, y, n, radius_factor):
        K = QuadField(m)
        alpha = K.element(x, y)
        assume(alpha and all(quadint_abs(alpha, place) <= SqrtSum.rational(n - 2)
                             for place in range(K.places)))
        step = lattice_rounding_step(K, alpha, n, radius_factor)
        assume(len(step.points) <= 120)
        assert step == scan_rounding_step(K, alpha, n, step.radius_squared)

    # the fields of test_matches_scan_reference, with |alpha| up to n - 1
    @given(st.sampled_from([2, 5, -1, -2, -3, -7, -15]), st.integers(-2, 2),
           st.integers(-1, 1), st.integers(3, 4), st.integers(0, 1),
           st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                    min_size=1, max_size=4),
           st.integers(1, 5))
    @example(-1, 1, 1, 3, 0, [(3, -1)], 2)
    @example(5, 0, 1, 3, 1, [(7, 5)], 2)
    @example(-7, 2, 0, 4, 0, [(5, 0)], 3)
    @settings(max_examples=40, deadline=None)
    def test_integer_lister_matches_fraction_reference(self, m, x, y, n, radius_factor,
                                                       centres, d):
        K = QuadField(m)
        alpha = K.element(x, y)
        assume(alpha and all(quadint_abs(alpha, place) < SqrtSum.rational(n - 1)
                             for place in range(K.places)))
        step = lattice_rounding_step(K, alpha, n, radius_factor)
        assume(len(step.points) <= 800)
        assert step == fraction_rounding_step(K, alpha, n, step.radius_squared)
        for r_squared in (step.covering_radius_squared, step.radius_squared):
            near = _points_near(K, alpha, r_squared)
            reference = fraction_points_near(K, alpha, r_squared)
            # the reference's point is K.element(*sort_key), which the lister leaves out
            assert near(0, 0) == [(dist, key) for dist, key, _ in reference(0, 0)]
            for wx, wy in centres:
                if alpha.is_rational:
                    wy = 0  # rank 1: centres lie on the rational line
                got = near(wx, wy, d)
                want = reference(Fraction(wx, d), Fraction(wy, d))
                assert [key for _, key in got] == [key for _, key, _ in want]
                assert all(type(dist) is int for dist, _ in got)
                assert [dist for dist, _ in got] == [d * d * dist for dist, _, _ in want]


def _inside(m, x, y, n):
    K = QuadField(m)
    alpha = K.element(x, y)
    return bool(alpha) and all(quadint_abs(alpha, place) < SqrtSum.rational(n - 1)
                               for place in range(K.places))


# The bridge test's draws (m, x, y, n, radius_factor): every tuple of the
# finite grid with alpha nonzero and strictly inside n - 1 at every place,
# filtered once here so that no draw is rejected for it.
BRIDGE_CASES = [case for case in itertools.product(
    [2, 3, 5, -1, -2, -3, -7, -11, -15], range(-3, 4), range(-2, 3), range(3, 6), range(2))
    if _inside(*case[:4])]


class TestPerronBridge:
    def test_as_given_when_doubly_regular(self):
        # alpha = 2 fixes the all-ones vector of [[1,1],[1,1]]
        pts = (GAUSS.one, GAUSS.one)
        res = perron_bridge(sparse([[1, 1], [1, 1]]), GAUSS.element(2), pts)
        assert res.strategy == "as-given"
        assert res.matrix == ((1, 1), (1, 1))

    def test_as_given_checks_the_eigen_identity(self):
        # [[1,1],[1,1]] is doubly regular, but (1, w) is no eigenvector of it
        pts = (GAUSS.one, GAUSS.omega)
        with pytest.raises(BridgeError, match="fails the eigen identity"):
            perron_bridge(sparse([[1, 1], [1, 1]]), GAUSS.element(2), pts)

    def test_impossible_rebalance_raises(self):
        # only 0 and 1 among the points: alpha*1 = 1 has no two-part
        # decomposition with both parts nonzero points
        pts = (GAUSS.zero, GAUSS.one)
        rows = sparse([[2, 0], [1, 1]])
        with pytest.raises(BridgeError) as exc:
            perron_bridge(rows, GAUSS.one, pts)
        assert exc.value.matrix == rows == (((0, 2),), ((0, 1), (1, 1)))

    def test_as_given_past_the_dimension_cap_refused(self):
        # 2I fixes every vector, but the split would need a 4097 x 4097 matrix
        size = MAX_BRIDGE_DIMENSION + 1
        rows = tuple(((i, 2),) for i in range(size))
        pts = tuple(GAUSS.element(i) for i in range(size))
        with pytest.raises(BridgeError, match="dimension 4097 is too large") as exc:
            perron_bridge(rows, GAUSS.element(2), pts)
        assert exc.value.matrix == rows

    def test_as_given_zero_eigenvector_refused(self):
        # 2I fixes the zero vector, which witnesses nothing
        with pytest.raises(BridgeError, match="fails the eigen identity"):
            perron_bridge(sparse([[2, 0], [0, 2]]), GAUSS.element(2), (GAUSS.zero, GAUSS.zero))

    def test_negative_entries_refused(self):
        # rows and columns sum to 2, and (1, 1) is fixed by [[3, -1], [-1, 3]]
        rows = (((0, 3), (1, -1)), ((0, -1), (1, 3)))
        with pytest.raises(ValueError, match="row entries must be nonnegative"):
            perron_bridge(rows, GAUSS.element(2), (GAUSS.one, GAUSS.one))

    def test_bad_row_sums_rejected(self):
        pts = (GAUSS.one, GAUSS.omega)
        with pytest.raises(ValueError):
            perron_bridge(sparse([[1, 0], [1, 1]]), GAUSS.one, pts)

    def test_pairs_sharing_a_column_add_up(self):
        rows = (((0, 1), (0, 1)), ((1, 2),))
        res = perron_bridge(rows, GAUSS.element(2), (GAUSS.one, GAUSS.omega))
        assert res.matrix == ((2, 0), (0, 2))

    @pytest.mark.parametrize("rows", [
        (((0, 2),),),
        (((0, 2),), ((2, 2),)),
        (((0, 2),), ((-1, 2),)),
    ], ids=["too-few-rows", "column-past-the-points", "negative-column"])
    def test_rows_that_do_not_match_the_points_rejected(self, rows):
        with pytest.raises(ValueError, match="rows must match the point list"):
            perron_bridge(rows, GAUSS.element(2), (GAUSS.one, GAUSS.one))

    def test_rebalance_from_lattice_step(self):
        step = lattice_rounding_step(M7, M7.omega, 3)
        res = perron_bridge(step.rows, M7.omega, step.points)
        assert res.strategy == "sink-class"
        size = len(res.matrix)
        assert all(sum(row) == 2 for row in res.matrix)
        assert all(sum(res.matrix[i][j] for i in range(size)) == 2 for j in range(size))
        assert reference_matrix_fixes(res.matrix, res.eigenvector, M7.omega)

    # real, imaginary and half-integer rings, rational alpha among them:
    # sink classes, refusals for size, and balls with no closed subset
    @given(st.sampled_from(BRIDGE_CASES))
    @example((2, 1, 0, 3, 0))  # no nonzero subset closed under the decomposition
    @example((-1, -1, -1, 4, 1))  # rebalanced dimension 4275
    @example((-3, 1, -2, 5, 0))  # rebalanced dimension 161590
    @example((-7, 0, 1, 3, 0))
    @example((-15, -1, 1, 4, 0))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, case):
        m, x, y, n, radius_factor = case
        K = QuadField(m)
        alpha = K.element(x, y)
        try:
            size = len(lattice_rounding_step(K, alpha, n, radius_factor).points)
        except BudgetExceededError:
            size = MAX_BALL_POINTS + 1
        assume(size <= 300)  # the reference and the step's matrix are dense
        step = lattice_rounding_step(K, alpha, n, radius_factor)
        try:
            want = reference_perron_bridge(step.matrix, alpha, step.points)
        except BridgeError as err:
            with pytest.raises(BridgeError) as exc:
                perron_bridge(step.rows, alpha, step.points)
            assert str(exc.value) == str(err)
            assert exc.value.matrix == sparse(err.matrix)
        else:
            assert perron_bridge(step.rows, alpha, step.points) == want


class TestBirkhoff:
    def test_decomposes_doubly_regular(self):
        D = ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        perms = birkhoff_decompose(D)
        assert len(perms) == 2
        total = [[0] * 3 for _ in range(3)]
        for p in perms:
            for r, c in enumerate(p):
                total[r][c] += 1
        assert tuple(map(tuple, total)) == D

    def test_multiplicity_entries(self):
        D = ((2, 0), (0, 2))
        perms = birkhoff_decompose(D)
        assert perms == [(0, 1), (0, 1)]

    def test_rejects_unbalanced(self):
        with pytest.raises(ValueError):
            birkhoff_decompose(((1, 0), (1, 1)))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            birkhoff_decompose(((2, -1), (-1, 2)))

    @pytest.mark.parametrize("D, message", [
        (((1, 0), (1,)), "matrix must be square"),
        (((1, 0, 0), (0, 1, 0)), "matrix must be square"),
        (((2, -1), (-1, 2)), "entries must be nonnegative integers"),
        (((1.0, 0), (0, 1)), "entries must be nonnegative integers"),
        (((1, 0), (0, Fraction(1))), "entries must be nonnegative integers"),
        (((1, 0), (1, 1)), "row and column sums must all be equal"),
        (((1, 1), (2, 0)), "row and column sums must all be equal"),
        ((), "row and column sums must all be equal"),
    ], ids=["ragged", "not-square", "negative", "float", "fraction",
            "unequal-rows", "unequal-columns", "empty"])
    def test_rejection_messages(self, D, message):
        with pytest.raises(ValueError) as exc:
            birkhoff_decompose(D)
        assert str(exc.value) == message

    def test_augmenting_path_longer_than_recursion_limit(self):
        # the last row's first open column, 0, is taken, and freeing it
        # shifts every other row by one: an augmenting path through all rows
        n = 1200
        D = [[0] * n for _ in range(n)]
        for i in range(n):
            D[i][i] = D[i][(i + 1) % n] = 1
        perms = birkhoff_decompose(D)
        assert perms[0] == tuple(range(1, n)) + (0,)
        assert permutation_sum(perms, n) == tuple(map(tuple, D))

    @given(permutation_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_recursive_reference(self, perms):
        D = permutation_sum(perms, len(perms[0]))
        assert birkhoff_decompose(D) == recursive_birkhoff(D)


class TestVerifyNumfieldCertificate:
    def test_integer_eigenvalue_two(self):
        # two identity permutations sum to 2I, and 2 is an eigenvalue
        ones = (GAUSS.one, GAUSS.one)
        assert verify_numfield_certificate(2, 3, ((2, 0), (0, 2)), ((0, 1), (0, 1)), ones)

    def test_rejects_non_eigenvalue(self):
        S = ((1, 1), (1, 1))
        for vec in ((GAUSS.one, GAUSS.one), (GAUSS.one, -GAUSS.one)):
            assert not verify_numfield_certificate(3, 3, S, ((0, 1), (1, 0)), vec)

    def test_quadratic_alpha(self):
        # column sums are 2, and alpha = 2 is rational inside the ring
        vec = (GAUSS.one, GAUSS.zero)
        assert verify_numfield_certificate(GAUSS.element(2), 3, ((2, 0), (0, 2)),
                                           ((0, 1), (0, 1)), vec)

    def test_rejects_a_wrong_split_or_a_zero_vector(self):
        ones = (GAUSS.one, GAUSS.one)
        assert not verify_numfield_certificate(2, 3, ((1, 1), (1, 1)), ((0, 1), (0, 1)), ones)
        zeros = (GAUSS.zero, GAUSS.zero)
        assert not verify_numfield_certificate(2, 3, ((2, 0), (0, 2)), ((0, 1), (0, 1)), zeros)
        assert not verify_numfield_certificate(2, 3, ((2, 0), (0, 2)), ((0, 1), (0, 1)), ones[:1])

    def test_perm_count_guard(self):
        with pytest.raises(ValueError):
            verify_numfield_certificate(2, 4, ((2, 0), (0, 2)), ((0, 1), (0, 1)),
                                        (GAUSS.one, GAUSS.one))

    @pytest.mark.parametrize("n,perms", [(1, ()), (2, ((),)), (3, ((), ()))])
    def test_no_permutation_entries_rejected(self, n, perms):
        with pytest.raises(ValueError):
            verify_numfield_certificate(2, n, (), perms, ())

    @given(st.sampled_from([-1, -2, -3, -7, -15, 2, 3, 5]), st.integers(-3, 3),
           st.integers(-3, 3), permutation_sets(max_size=6, min_count=2))
    # irrational eigenvalues: 1 + i and 1 + w (w a sixth root of unity) from
    # a cycle plus the identity; -w (w the golden ratio) from a 5-cycle
    # plus its inverse
    @example(-1, 1, 1, [(1, 2, 3, 0), (0, 1, 2, 3)])
    @example(-3, 1, 1, [(1, 2, 3, 4, 5, 0), (0, 1, 2, 3, 4, 5)])
    @example(5, 0, -1, [(1, 2, 3, 4, 0), (4, 0, 1, 2, 3)])
    @settings(max_examples=150, deadline=None)
    def test_matches_quadint_reference(self, m, x, y, perms):
        alpha = QuadField(m).element(x, y)
        assert_matches_quadint_reference(alpha, len(perms) + 1, perms)

    @pytest.mark.parametrize("m,alpha,n", [(-3, "w", 3), (-7, "w", 3), (-7, "w", 4),
                                           (-1, "w", 3), (2, "w", 5)])
    def test_pipeline_outputs_match_quadint_reference(self, m, alpha, n):
        K = QuadField(m)
        cert = numfield_pipeline(K, parse_quadint(K, alpha), n=n)
        assert verify_numfield_certificate(cert.alpha, n, cert.matrix, cert.perms,
                                           cert.eigenvector)
        for a in (cert.alpha, cert.alpha.conj(), cert.alpha + 1):
            verdict = assert_matches_quadint_reference(a, n, cert.perms)
            assert verdict == (a != cert.alpha + 1)


class TestPipeline:
    def test_sqrt_minus_7_end_to_end(self):
        cert = numfield_pipeline(M7, M7.omega, n=3)
        assert cert.n == 3
        assert cert.covering_radius_squared == Fraction(4, 7)
        assert verify_numfield_certificate(cert.alpha, cert.n, cert.matrix, cert.perms,
                                           cert.eigenvector)
        size = len(cert.matrix)
        assert all(sum(row) == 2 for row in cert.matrix)
        assert all(sum(cert.matrix[i][j] for i in range(size)) == 2 for j in range(size))

    def test_gauss_unit(self):
        cert = numfield_pipeline(GAUSS, GAUSS.omega, n=3)
        assert verify_numfield_certificate(cert.alpha, cert.n, cert.matrix, cert.perms,
                                           cert.eigenvector)

    def test_negative_control_raises(self):
        with pytest.raises(ValueError):
            numfield_pipeline(M15, M15.omega, n=3)

    def test_bridge_error_carries_the_sparse_rounding_rows(self):
        # the three points of the first ball hold no nonzero p = p_1 + p_2
        K = QuadField(2)
        with pytest.raises(BridgeError, match="no nonzero subset") as exc:
            numfield_pipeline(K, K.one, n=3, attempts=1)
        assert exc.value.matrix == sparse(lattice_rounding_step(K, K.one, 3).matrix)

    def test_split_that_does_not_sum_back_is_refused(self, monkeypatch):
        # the split after the bridge is checked against the bridge matrix's
        # entries: rotating its first permutation moves one image of every row
        split, bridge = numfield._split, numfield.perron_bridge
        bridged = []

        def bridge_spy(*args):
            result = bridge(*args)
            bridged.append(result)
            return result

        def split_spy(counts, s):
            perms = split(counts, s)
            if bridged:
                bridged.clear()
                perms[0] = perms[0][1:] + perms[0][:1]
            return perms

        monkeypatch.setattr(numfield, "perron_bridge", bridge_spy)
        monkeypatch.setattr(numfield, "_split", split_spy)
        with pytest.raises(BridgeError, match="decomposed certificate failed verification"):
            numfield_pipeline(GAUSS, GAUSS.omega, n=3)

    @pytest.mark.parametrize("attempts, calls", [(4, 2), (1, 1)])
    def test_runs_the_public_steps_once_per_attempt(self, monkeypatch, attempts, calls):
        # 1 in Q(sqrt(2)) with n = 3 needs a second, larger ball
        rounding, bridge = numfield.lattice_rounding_step, numfield.perron_bridge
        steps, bridged = [], []

        def rounding_spy(*args):
            steps.append((args[3], rounding(*args)))
            return steps[-1][1]

        def bridge_spy(rows, alpha, z):
            bridged.append(rows)
            return bridge(rows, alpha, z)

        monkeypatch.setattr(numfield, "lattice_rounding_step", rounding_spy)
        monkeypatch.setattr(numfield, "perron_bridge", bridge_spy)
        K = QuadField(2)
        if attempts > 1:
            cert = numfield_pipeline(K, K.one, n=3, attempts=attempts)
            assert cert.radius_squared == steps[-1][1].radius_squared
        else:
            with pytest.raises(BridgeError):
                numfield_pipeline(K, K.one, n=3, attempts=attempts)
        assert [factor for factor, _ in steps] == list(range(calls))
        assert bridged == [step.rows for _, step in steps]
        # no dense rounding matrix was built
        assert all("matrix" not in vars(step) for _, step in steps)

    def test_ball_past_the_cap_refused_before_listing(self):
        # the third attempt for 2 + w in Q(sqrt(-7)) with n = 4 would list
        # about 39,000 points
        alpha = M7.element(2, 1)
        assert len(lattice_rounding_step(M7, alpha, 4, 1).points) == 9741
        with pytest.raises(BudgetExceededError) as exc:
            lattice_rounding_step(M7, alpha, 4, radius_factor=2)
        assert exc.value.required > MAX_BALL_POINTS
        with pytest.raises(BudgetExceededError):
            numfield_pipeline(M7, alpha, n=4)
