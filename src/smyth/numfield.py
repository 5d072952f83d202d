"""Number-field layer: strong criteria, root-of-unity relations and twists,
equality-case extraction, and the lattice-rounding certificate pipeline.

Scope is quadratic fields. Rank at most 2 keeps every geometric step exact:
the covering radius comes from the circumradius formula on a Lagrange-reduced
superbase, closest points by exact comparison among the lattice points within
the covering radius, and eigenvalue claims by an exact eigen identity with a
nonzero witness. Nothing in a pass/fail path rounds.

The pipeline for tuples (1, ..., 1, -alpha):

    lattice_rounding_step -> perron_bridge -> birkhoff_decompose

builds a nonnegative integer matrix with row sums n-1 and exact eigenvalue
alpha, rebalances it to equal column sums, and splits it into n-1
permutation matrices. The nonzero eigenvector v with (sum P_i) v = alpha*v
that travels with the split proves det(sum P_i - alpha*I) = 0, and
verify_numfield_certificate checks exactly that witness.

The rounding matrix has at most two nonzero entries per row. Rounding
hands it to the bridge as sparse rows, and the bridge searches on the
points' integer coordinates and indices, so memory is linear in the ball.
The Birkhoff split works on each row's nonzero entries, inside the bridge
and after it, so the one dense matrix is the bridge's result, of dimension
at most MAX_BRIDGE_DIMENSION, which the certificate carries.
LatticeStep.matrix writes the rounding matrix out only when read.
"""
from __future__ import annotations

import functools
import itertools
import math
from cmath import exp as cexp, pi as cpi, sqrt as csqrt
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import kernel_basis
from .core import (
    DEFAULT_BUDGET,
    BalancedMultiset,
    _balanced,
    _ranked_multiset,
    _validate_perms,
    certificate_from_balanced,
    verify_certificate,
)
from .errors import (
    BridgeError,
    BudgetExceededError,
    EqualityHypothesisError,
    PrecisionError,
    TupleArityError,
)
from .quadratic import CycInt, QuadField, QuadInt, SqrtSum, quadint_abs

IntMatrix = tuple[tuple[int, ...], ...]

Entry = Union[int, QuadInt]

MAX_ROU_ORDER = 360
MAX_TWIST_ORDER = 24
# The rounding refuses a ball estimated to hold more points than this; the
# bridge refuses a result of larger dimension than MAX_BRIDGE_DIMENSION.
MAX_BALL_POINTS = 1 << 14
MAX_BRIDGE_DIMENSION = 4096


def _as_quadint(K: QuadField, value: Entry) -> QuadInt:
    if isinstance(value, QuadInt):
        if value.field != K:
            raise ValueError("entry from a different quadratic field")
        return value
    return K.element(int(value))


def _abs_entry(value: Entry, place: int) -> SqrtSum:
    if isinstance(value, QuadInt):
        return quadint_abs(value, place)
    return SqrtSum.rational(abs(int(value)))


# ---------------------------------------------------------------------------
# strong absolute value criteria


@dataclass(frozen=True)
class StrongCriteriaReport:
    """Strict archimedean triangle condition plus the nonarchimedean check.

    equalities and violations list (index, place) pairs, 0-based, where
    |a_i| respectively equals or exceeds the sum of the other absolute
    values. nonarch_status is "pass", "fail", or "unsupported".
    """

    archimedean_ok: bool
    equalities: tuple
    violations: tuple
    nonarch_status: str

    @property
    def passes(self) -> bool:
        return self.archimedean_ok and self.nonarch_status == "pass"


def _rational_finite_places_ok(entries: Sequence[int]) -> bool:
    g = 0
    for v in entries:
        g = math.gcd(g, v)
    scaled = [v // g for v in entries]
    for i in range(len(scaled)):
        comp = 0
        for j, v in enumerate(scaled):
            if j != i:
                comp = math.gcd(comp, v)
        if comp != 1:
            return False
    return True


def strong_criteria_check(K: QuadField, a: Sequence[Entry]) -> StrongCriteriaReport:
    """Decide the strict triangle inequality at every archimedean place.

    Comparisons run in exact sqrt-sum arithmetic; an equality is reported
    separately from a violation because the equality case feeds
    unimodular_extract rather than an outright rejection.

    The nonarchimedean condition (each |a_i| at most the max of the others,
    at every finite place) is decided exactly for rational tuples and for
    tuples with at least two rational unit coordinates; anything else is
    reported as "unsupported" rather than silently passed.
    """
    values = tuple(_as_quadint(K, v) for v in a)
    if len(values) < 3:
        raise TupleArityError("need at least three coordinates")
    if not all(values):
        raise ValueError("coordinates must be nonzero")
    equalities = []
    violations = []
    for place in range(K.places):
        absv = [quadint_abs(v, place) for v in values]
        total = SqrtSum.zero()
        for s in absv:
            total = total + s
        for i, s in enumerate(absv):
            rest = total - s
            c = s.compare(rest)
            if c == 0:
                equalities.append((i, place))
            elif c > 0:
                violations.append((i, place))
    if all(v.is_rational for v in values):
        status = "pass" if _rational_finite_places_ok([v.x for v in values]) else "fail"
    elif sum(1 for v in values if v.is_rational and abs(v.x) == 1) >= 2:
        # two unit coordinates pin every finite max at 1, and integral
        # entries never exceed 1 at a finite place
        status = "pass"
    else:
        status = "unsupported"
    return StrongCriteriaReport(
        archimedean_ok=not equalities and not violations,
        equalities=tuple(equalities),
        violations=tuple(violations),
        nonarch_status=status,
    )


# ---------------------------------------------------------------------------
# root-of-unity relations


@dataclass(frozen=True)
class RouRelation:
    """Verified vanishing sum a_1*z^e_1 + ... + a_n*z^e_n = 0, z = zeta_M."""

    common_order: int
    exponents: tuple[int, ...]
    orders: tuple[int, ...]


def _embedding_complex(value: Entry) -> complex:
    if isinstance(value, int):
        return complex(value)
    field = value.field
    om = (1 + csqrt(field.m)) / 2 if field.half else csqrt(field.m)
    return value.x + value.y * om


def _cyclotomic_sqrt(m: int, M: int) -> tuple[list[int], int]:
    """(r, c) with c*sqrt(m) = sum_k r[k] zeta_M^k, sqrt on its principal branch.

    M must be a multiple of |disc Q(sqrt(m))|. With the quadratic Gauss sum
    G(d) = sum_{k<d} zeta_d^(k^2): sqrt(m) = G(|m|) when m = 1 mod 4, else
    4*sqrt(m) = i^[m<0] * (1-i) * G(4|m|) with i = zeta_M^(M/4).
    """
    d = abs(m) if m % 4 == 1 else 4 * abs(m)
    step = M // d
    gauss = [0] * M
    for k in range(d):
        gauss[step * k * k % M] += 1
    if m % 4 == 1:
        return gauss, 1
    quarter = M // 4
    shift = quarter if m < 0 else 0
    return [gauss[(k - shift) % M] - gauss[(k - shift - quarter) % M] for k in range(M)], 4


def _rou_sum_is_zero(values: Sequence[Entry], M: int, exps: Sequence[int]) -> bool:
    """Whether sum a_i zeta_M^e_i = 0, decided exactly in Q(zeta_M).

    With a_i = x_i + y_i*w the sum is X + Y*w for X, Y in Z[zeta_M]. If Y = 0
    it vanishes exactly when X does. Otherwise it is A + Y*sqrt(m) (doubled to
    (2X + Y) + Y*sqrt(m) when w = (1+sqrt(m))/2), which can vanish only if
    sqrt(m) = -A/Y lies in Q(zeta_M), that is when |disc| divides M; then
    sqrt(m) is a Gauss sum and the test is one CycInt zero test.
    """
    xs = [0] * M
    ys = [0] * M
    for value, e in zip(values, exps):
        if isinstance(value, QuadInt):
            xs[e] += value.x
            ys[e] += value.y
        else:
            xs[e] += value
    if not CycInt.make(M, ys):
        return not CycInt.make(M, xs)
    field = next(v.field for v in values if isinstance(v, QuadInt))
    if M % abs(field.discriminant):
        return False
    if field.half:
        xs = [2 * x + y for x, y in zip(xs, ys)]
    root, scale = _cyclotomic_sqrt(field.m, M)
    total = [scale * x for x in xs]
    for e, y in enumerate(ys):
        if y:
            for k, r in enumerate(root):
                total[(e + k) % M] += y * r
    return not CycInt.make(M, total)


def rou_relation_search(a: Sequence[Entry], max_order: int = MAX_ROU_ORDER,
                        budget: int = DEFAULT_BUDGET) -> Optional[RouRelation]:
    """First vanishing root-of-unity combination, or None.

    Common orders are scanned in increasing order; within an order the
    exponent tuple (e_1 = 0 fixed) is lexicographically first. A floating
    hash prefilter only proposes candidates: each is accepted or rejected by
    an exact zero test in Q(zeta_M), which writes sqrt(m) as a quadratic
    Gauss sum. Entries must lie in one quadratic field; plain ints may mix in.

    The hash proposes every true relation while its float error stays below
    the grid step 2^-20. With u = 2^-53 and s = |x| + |y|*(isqrt|m| + 1) for
    an entry x + y*w, each term a*zeta^e is off by at most 43*u*s (embedding,
    cexp root, product) and the n - 2 additions by (n-2)*u*sum(s): below
    (n + 41)*u*n*max(s). An entry with n*(n + 41)*s >= 2^33 is a ValueError.
    """
    values = tuple(a)
    field = next((v.field for v in values if isinstance(v, QuadInt)), None)
    if field is not None:
        values = tuple(_as_quadint(field, v) for v in values)
    if len(values) < 2:
        raise TupleArityError("need at least two coordinates")
    if not all(bool(v) if isinstance(v, QuadInt) else v != 0 for v in values):
        raise ValueError("coordinates must be nonzero")
    n = len(values)
    cost = sum(M ** max(n - 2, 1) for M in range(1, max_order + 1))
    if cost > budget:
        raise BudgetExceededError(
            f"relation scan needs about {cost} probes, budget {budget}",
            required=cost)
    width = math.isqrt(abs(field.m)) + 1 if field is not None else 0
    for i, v in enumerate(values, 1):
        x, y = (v.x, v.y) if isinstance(v, QuadInt) else (v, 0)
        if n * (n + 41) * (abs(x) + abs(y) * width) >= 1 << 33:
            raise ValueError(f"entry {i} is too large for the floating-point "
                             "prefilter of the relation search")
    embeds = [_embedding_complex(v) for v in values]
    quantum = 2.0 ** -20
    for M in range(1, max_order + 1):
        roots = [cexp(2j * cpi * k / M) for k in range(M)]
        # last coordinate resolved by hash lookup on a quantized grid
        table: dict = {}
        for e in range(M):
            z = embeds[-1] * roots[e]
            key = (round(z.real / quantum), round(z.imag / quantum))
            table.setdefault(key, []).append(e)
        for mid in itertools.product(range(M), repeat=n - 2):
            partial = embeds[0]
            for v, e in zip(embeds[1:-1], mid):
                partial += v * roots[e]
            target = -partial
            kx = round(target.real / quantum)
            ky = round(target.imag / quantum)
            hits = []
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    hits.extend(table.get((kx + dx, ky + dy), ()))
            for e_last in sorted(hits):
                exps = (0,) + tuple(mid) + (e_last,)
                if _rou_sum_is_zero(values, M, exps):
                    orders = tuple(M // math.gcd(M, e) for e in exps)
                    return RouRelation(common_order=M, exponents=exps, orders=orders)
    return None


# ---------------------------------------------------------------------------
# root-of-unity twisting


def rou_twist(b: BalancedMultiset, j: int, m: int) -> BalancedMultiset:
    """Twist coordinate j (1-based) of a rational balanced multiset by zeta_m.

    Each member x spawns m members: coordinate j carries zeta^(k-1) x_j and
    every other coordinate zeta^k x_i, k = 0..m-1, so the relation for the
    twisted coefficients (a_1, ..., zeta*a_j, ..., a_n) is zeta^k times the
    original one. The result is re-verified, not assumed.
    """
    if not 1 <= m <= MAX_TWIST_ORDER:
        raise ValueError(f"twist order must be in [1, {MAX_TWIST_ORDER}]")
    if not 1 <= j <= b.n:
        raise ValueError(f"coordinate must be in [1, {b.n}]")
    flat = list(b.coeffs) + [v for row in b.members for v in row]
    if not all(isinstance(v, int) for v in flat):
        raise ValueError("twisting requires rational integer entries")
    if m == 1:
        return b
    omega = CycInt.zeta(m, 1)
    coeffs = tuple(
        omega * c if i == j - 1 else CycInt.rational(m, c)
        for i, c in enumerate(b.coeffs)
    )
    members = []
    for row in b.members:
        for k in range(m):
            members.append(tuple(
                CycInt.zeta(m, (k - 1) % m if i == j - 1 else k) * v
                for i, v in enumerate(row)
            ))
    return BalancedMultiset.make(coeffs, members)


# ---------------------------------------------------------------------------
# equality-case extraction


@dataclass(frozen=True)
class UnimodularExtract:
    """Sub-multiset of members whose coordinates all attain the maximum.

    normalized means every entry was divided exactly by an element of
    maximal absolute value; otherwise scale carries that element as a
    witness and the members are returned unscaled.
    """

    multiset: BalancedMultiset
    scale: Optional[Entry]
    normalized: bool


def unimodular_extract(a: Sequence[Entry], b: BalancedMultiset,
                       place: int = 0) -> UnimodularExtract:
    """Keep the members whose coordinates all have maximal absolute value.

    Requires the archimedean equality |a_i| = sum of the others for some i
    at the chosen place; under it the extracted sub-multiset is balanced,
    which is verified rather than trusted.
    """
    coeffs = tuple(a)
    absa = [_abs_entry(c, place) for c in coeffs]
    total = SqrtSum.zero()
    for s in absa:
        total = total + s
    if not any(s.compare(total - s) == 0 for s in absa):
        raise EqualityHypothesisError(
            "no coordinate's absolute value equals the sum of the others "
            f"at place {place}")
    best: Optional[SqrtSum] = None
    for row in b.members:
        for v in row:
            s = _abs_entry(v, place)
            if best is None or s.compare(best) > 0:
                best = s
    assert best is not None
    sub = [row for row in b.members
           if all(_abs_entry(v, place).compare(best) == 0 for v in row)]
    if not sub:
        raise ValueError("no member attains the maximum in every coordinate")
    divisor = sub[0][0]
    if isinstance(divisor, int):
        d = abs(divisor)
        members = [tuple(v // d for v in row) for row in sub]
        return UnimodularExtract(
            multiset=BalancedMultiset.make(coeffs, members),
            scale=None,
            normalized=True,
        )
    divided = []
    for row in sub:
        out = []
        for v in row:
            q = v.exact_div(divisor)
            if q is None:
                return UnimodularExtract(
                    multiset=BalancedMultiset.make(coeffs, sub),
                    scale=divisor,
                    normalized=False,
                )
            out.append(q)
        divided.append(tuple(out))
    return UnimodularExtract(
        multiset=BalancedMultiset.make(coeffs, divided),
        scale=None,
        normalized=True,
    )


# ---------------------------------------------------------------------------
# lattice rounding


def frac_sqrt_upper(f: Fraction) -> Fraction:
    """A rational upper bound on sqrt(f), tight to about 2^-64."""
    if f < 0:
        raise ValueError("radicand must be nonnegative")
    p, q = f.numerator, f.denominator
    scale = 1 << 64
    return Fraction(math.isqrt(p * q * scale * scale) + 1, q * scale)


def _nearest_int(f: Fraction) -> int:
    return math.floor(f + Fraction(1, 2))


def _inner(u: QuadInt, v: QuadInt) -> Fraction:
    return (Fraction((u + v).abs_squared()) - u.abs_squared() - v.abs_squared()) / 2


def _lagrange_reduce(u1: QuadInt, u2: QuadInt) -> tuple[QuadInt, QuadInt]:
    if u2.abs_squared() < u1.abs_squared():
        u1, u2 = u2, u1
    while True:
        r = _nearest_int(_inner(u1, u2) / u1.abs_squared())
        u2 = u2 - r * u1
        if u2.abs_squared() < u1.abs_squared():
            u1, u2 = u2, u1
        else:
            break
    if _inner(u1, u2) > 0:
        u2 = -u2
    return u1, u2


def covering_radius_squared(K: QuadField, alpha: QuadInt) -> Fraction:
    """Exact squared covering radius of Z[alpha] under the ambient form.

    Rank 1 (rational alpha) is half the generator; rank 2 reduces the basis
    (1, alpha) and takes the circumradius of the obtuse-superbase triangle,
    which is where a Voronoi cell is farthest from the lattice.
    """
    one = K.one
    if alpha.is_rational:
        return Fraction(one.abs_squared(), 4)
    u1, u2 = _lagrange_reduce(one, alpha)
    A = Fraction(u1.abs_squared())
    B = Fraction(u2.abs_squared())
    C = Fraction((u1 + u2).abs_squared())
    denom = 2 * (A * B + B * C + C * A) - A * A - B * B - C * C
    return A * B * C / denom


def _alpha_abs_upper(alpha: QuadInt) -> Fraction:
    if alpha.is_rational:
        return Fraction(abs(alpha.x))
    K = alpha.field
    if not K.is_real:
        return frac_sqrt_upper(Fraction(alpha.norm()))
    u, v = alpha.embedding_coords(0)
    return abs(u) + abs(v) * frac_sqrt_upper(Fraction(K.m))


def _points_near(K: QuadField, alpha: QuadInt, r_squared: Fraction):
    """Lister of the points of Z[alpha] within ambient distance^2 r_squared of a centre.

    The returned function near(wx, wy, d=1) takes the centre (wx + wy*w)/d
    as integer numerators over one positive denominator d and returns pairs
    (d^2 * distance^2, sort_key), whose order is the (distance, sort_key)
    order, with sort_key the point's integer coordinates (x, y); the scaled
    distance is the ambient form Q(u, v) = A*u^2 + B*u*v + C*v^2 at
    (u, v) = (wx - d*x, wy - d*y), an int. With disc = 4AC - B^2 > 0,
    completing the square gives 4A*Q =
    (2A*u + B*v)^2 + disc*v^2. A point p + s*alpha has v = wy - d*s*ay, so
    disc*v^2 <= 4A*d^2*r_squared bounds the rows s, and then the first square
    bounds p on each row. Both bounds are isqrt of a floor, exact for integer
    unknowns; the exact filter still checks every candidate. In rank 1
    (rational alpha) the only row is s = 0.
    """
    A = K.ambient_q(1, 0)
    C = K.ambient_q(0, 1)
    B = K.ambient_q(1, 1) - A - C
    disc = 4 * A * C - B * B
    r_squared = Fraction(r_squared)
    rn, rd = r_squared.numerator, r_squared.denominator
    ax, ay = alpha.x, alpha.y

    def near(wx: int, wy: int, d: int = 1) -> list[tuple[int, tuple[int, int]]]:
        width = 4 * A * rn * d * d  # rd * 4A * d^2 * r_squared
        limit = rn * d * d // rd    # an int distance is <= d^2 * r_squared iff <= this
        if ay:
            v_max = math.isqrt(width // (disc * rd))
            # d*ay*s lies in [wy - v_max, wy + v_max]
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
            # |2A*(u0 - d*p) + B*v| <= h with u0 = wx - d*s*ax
            u0, x0, y = wx - d * s * ax, s * ax, s * ay
            bv, cvv = B * v, C * v * v
            c2 = 2 * A * u0 + bv
            k2 = 2 * A * d
            for p in range(-((h - c2) // k2), (c2 + h) // k2 + 1):
                u = u0 - d * p
                dist = (A * u + bv) * u + cvv
                if dist <= limit:
                    found.append((dist, (p + x0, y)))
        return found

    return near


# A sparse row: its nonzero entries as (column, entry) pairs, in ascending
# column order. Pairs that share a column add up.
SparseRow = tuple[tuple[int, int], ...]


def _dense(rows: Sequence[SparseRow], size: int) -> IntMatrix:
    out = []
    for row in rows:
        dense = [0] * size
        for j, c in row:
            dense[j] += c
        out.append(tuple(dense))
    return tuple(out)


@dataclass(frozen=True)
class LatticeStep:
    """Rounding matrix C with C.z = alpha*z over the ball points z.

    rows holds C as sparse rows, one per point; matrix is the dense view,
    built when it is first read.
    """

    rows: tuple[SparseRow, ...]
    points: tuple[QuadInt, ...]
    radius_squared: Fraction
    covering_radius_squared: Fraction
    n: int

    @functools.cached_property
    def matrix(self) -> IntMatrix:
        return _dense(self.rows, len(self.points))


def _times(alpha: QuadInt, coords: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """The coordinates of alpha*(x + y*w) for each (x, y) in coords."""
    ax, ay = alpha.x, alpha.y
    t, nm = alpha.field.omega_trace, alpha.field.omega_norm
    return [(ax * x - ay * y * nm, ax * y + ay * x + ay * y * t) for x, y in coords]


def _ball_size_estimate(K: QuadField, alpha: QuadInt, r_squared: Fraction) -> int:
    """About how many points of Z[alpha] lie within ambient distance^2 r_squared of 0.

    The ball's area over the lattice's covolume: with the ambient form
    Q(u, v) = A*u^2 + B*u*v + C*v^2 and disc = 4AC - B^2, {Q <= r^2} has
    area 2*pi*r^2/sqrt(disc), pi taken as 355/113, and Z + Z*alpha has
    covolume |ay|. In rank 1 (rational alpha) the count is exact.
    """
    A = K.ambient_q(1, 0)
    rn, rd = r_squared.numerator, r_squared.denominator
    if not alpha.y:
        return 2 * math.isqrt(rn // (rd * A)) + 1
    C = K.ambient_q(0, 1)
    B = K.ambient_q(1, 1) - A - C
    disc = 4 * A * C - B * B
    # (2*pi*r^2)^2 / (disc * ay^2)
    return math.isqrt((710 * rn) ** 2 // (113 * 113 * rd * rd * disc * alpha.y ** 2))


def lattice_rounding_step(K: QuadField, alpha: Entry, n: int,
                          radius_factor: int = 0) -> LatticeStep:
    """Round alpha*z/(n-1) to the lattice for every z in an exact-radius ball.

    The radius R is the smallest power of two with
    upper(|alpha|)/(n-1)*R + (n-2)*upper(M) < R, which guarantees both the
    rounded point z_1 and the remainder z_2 = alpha*z - (n-2)*z_1 stay in
    the ball. radius_factor doubles R that many extra times for retries.
    A ball that its area and the lattice covolume put at more than
    MAX_BALL_POINTS points raises BudgetExceededError before it is listed.
    z_1 is nearest to t = alpha*z/(n-1), ties broken by sort_key. Every
    nearest point lies within M of t and |t| + M < R, so comparing the few
    points of Z[alpha] within M of t finds what a scan of the ball would.
    Each row is found in its sparse form, (n-2) units on z_1 plus one on
    z_2, and the identity C.z = alpha*z is asserted on integer coordinates
    against the stored points.
    """
    alpha = _as_quadint(K, alpha)
    if not alpha:
        raise ValueError("alpha must be nonzero")
    if n < 3:
        raise ValueError("need n >= 3")
    if radius_factor < 0:
        raise ValueError("radius_factor must be nonnegative")
    bound = SqrtSum.rational(n - 1)
    for place in range(K.places):
        if quadint_abs(alpha, place).compare(bound) >= 0:
            raise ValueError(
                f"|alpha| at place {place} is not strictly below n-1 = {n - 1}")
    m_squared = covering_radius_squared(K, alpha)
    m_upper = frac_sqrt_upper(m_squared)
    c_upper = _alpha_abs_upper(alpha)
    if c_upper >= n - 1:
        raise PrecisionError("upper bound for |alpha| touched n-1")
    r_bound = (n - 2) * m_upper * (n - 1) / ((n - 1) - c_upper)
    # the least k with 2^k > r_bound, then radius_factor doublings
    k = math.floor(r_bound).bit_length() + radius_factor
    radius = Fraction(2) ** k
    r_squared = radius * radius
    estimate = _ball_size_estimate(K, alpha, r_squared)
    if estimate > MAX_BALL_POINTS:
        raise BudgetExceededError(
            f"the rounding ball of radius^2 {r_squared} holds about {estimate} "
            f"lattice points, more than {MAX_BALL_POINTS}", required=estimate)
    ball = sorted(_points_near(K, alpha, r_squared)(0, 0))
    coords = [key for _, key in ball]
    index = {key: i for i, key in enumerate(coords)}
    nearest = _points_near(K, alpha, m_squared)
    rows = []
    for wx, wy in _times(alpha, coords):
        _, (x1, y1) = min(nearest(wx, wy, n - 1))
        j1 = index.get((x1, y1))
        j2 = index.get((wx - (n - 2) * x1, wy - (n - 2) * y1))
        if j1 is None:
            raise AssertionError("rounded point escaped the ball")
        if j2 is None:
            raise AssertionError("remainder point escaped the ball")
        (p1, q1), (p2, q2) = coords[j1], coords[j2]
        if ((n - 2) * p1 + p2, (n - 2) * q1 + q2) != (wx, wy):
            raise AssertionError("rounding row fails C.z = alpha*z")
        if j1 == j2:
            rows.append(((j1, n - 1),))
        else:
            rows.append(tuple(sorted(((j1, n - 2), (j2, 1)))))
    return LatticeStep(rows=tuple(rows), points=tuple(itertools.starmap(K.element, coords)),
                       radius_squared=r_squared, covering_radius_squared=m_squared, n=n)


# ---------------------------------------------------------------------------
# doubly regular rebalancing


@dataclass(frozen=True)
class BridgeResult:
    matrix: IntMatrix
    eigenvector: tuple[QuadInt, ...]
    strategy: str


def matrix_fixes(matrix: Sequence[Sequence[int]], vec: Sequence[QuadInt],
                  alpha: QuadInt) -> bool:
    """Whether matrix . vec = alpha * vec, on integer coordinates over each
    row's nonzero entries; a vector of another length or field raises ValueError."""
    K = alpha.field
    if len(vec) != len(matrix) or any(v.field is not K and v.field != K for v in vec):
        raise ValueError("vector length or field differs from the matrix and alpha")
    xs, ys = [v.x for v in vec], [v.y for v in vec]
    for row, image in zip(matrix, _times(alpha, zip(xs, ys))):
        cols = list(itertools.compress(range(len(row)), row))
        if (sum(row[j] * xs[j] for j in cols), sum(row[j] * ys[j] for j in cols)) != image:
            return False
    return True


def _sccs(nodes: set, succ: dict) -> list[set]:
    index: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    out: list[set] = []
    counter = itertools.count()
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = next(counter)
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = next(counter)
                    stack.append(child)
                    onstack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in onstack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)
    return out


def perron_bridge(rows: Sequence[SparseRow], alpha: Entry,
                  z: Sequence[QuadInt]) -> BridgeResult:
    """Rebalance a row-regular rounding matrix to equal column sums.

    The matrix comes as sparse rows, one per point of z, as LatticeStep.rows
    holds it. If it is already doubly regular it is returned as found.
    Otherwise the nonzero ball points are restricted to the smallest norm
    shell admitting a nonempty subset closed under the decomposition
    alpha*p = (n-2)*p_1 + p_2, a sink strongly connected component of the
    chosen decompositions is isolated, and its positive left eigenvector
    (eigenvalue n-1, guaranteed by irreducibility) sets member
    multiplicities. Routing those members through slots and reading the
    columns back produces a doubly regular matrix; the eigen identity is
    verified before returning, and failure raises BridgeError carrying the
    rows. A result of dimension above MAX_BRIDGE_DIMENSION is refused with
    BridgeError in either case. The search runs on the points' integer
    coordinates and indices: QuadInt objects are read only as the values of
    the rebalanced multiset.
    """
    rows = tuple(rows)
    points = tuple(z)
    if not points:
        raise BridgeError("empty point list", matrix=rows)
    alpha = _as_quadint(points[0].field, alpha)
    size = len(points)
    if len(rows) != size or not all(0 <= j < size for row in rows for j, _ in row):
        raise ValueError("rows must match the point list")
    row_sums = {sum(c for _, c in row) for row in rows}
    if len(row_sums) != 1:
        raise ValueError("rows must share a common sum")
    n = row_sums.pop() + 1
    if n < 3:
        raise ValueError("row sums must be at least 2")
    column_sums = [0] * size
    for row in rows:
        for j, c in row:
            column_sums[j] += c
    if all(s == n - 1 for s in column_sums):
        if size > MAX_BRIDGE_DIMENSION:
            raise BridgeError(f"doubly regular dimension {size} is too large to "
                              "materialize", matrix=rows)
        matrix = _dense(rows, size)
        if not matrix_fixes(matrix, points, alpha):
            raise BridgeError("doubly regular input fails the eigen identity",
                              matrix=rows)
        return BridgeResult(matrix=matrix, eigenvector=tuple(points), strategy="as-given")
    coords = [(p.x, p.y) for p in points]
    images = _times(alpha, coords)
    index = {xy: i for i, xy in enumerate(coords)}
    ambient_q = alpha.field.ambient_q
    norms = {i: ambient_q(x, y) for i, (x, y) in enumerate(coords) if x or y}
    scaled = {i: ((n - 2) * coords[i][0], (n - 2) * coords[i][1]) for i in norms}

    def find_decomp(i: int, order: list, allowed: set) -> Optional[tuple[int, int]]:
        """The first (j1, j2) in order with alpha*p_i = (n-2)*p_j1 + p_j2."""
        wx, wy = images[i]
        for j1 in order:
            sx, sy = scaled[j1]
            j2 = index.get((wx - sx, wy - sy))
            if j2 is not None and j2 in allowed:
                return (j1, j2)
        return None

    def fixpoint(candidates: set) -> dict:
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

    decomp: dict = {}
    for bound in sorted(set(norms.values())):
        decomp = fixpoint({i for i, norm in norms.items() if norm <= bound})
        if decomp:
            break
    if not decomp:
        raise BridgeError("no nonzero subset closed under the decomposition",
                          matrix=rows)
    live = set(decomp)
    succ = {i: sorted(set(decomp[i])) for i in live}
    components = _sccs(live, succ)
    sinks = [comp for comp in components
             if all(child in comp for node in comp for child in succ[node])]
    if not sinks:
        raise BridgeError("no sink component", matrix=rows)
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
            matrix=rows)
    vec = basis[0]
    if all(x <= 0 for x in vec):
        vec = [-x for x in vec]
    if not all(x > 0 for x in vec):
        raise BridgeError("left eigenvector is not positive", matrix=rows)
    g = math.gcd(*vec)
    mult = {i: vec[pos[i]] // g for i in order}
    total = sum(mult.values())
    if total > MAX_BRIDGE_DIMENSION:
        raise BridgeError(
            f"rebalanced dimension {total} is too large to materialize",
            matrix=rows)

    member_source = []
    for i in order:
        member_source.extend([i] * mult[i])
    slots = []
    slot_base = {}
    for w in order:
        slot_base[w] = len(slots)
        slots.extend([w] * mult[w])
    fill = {w: 0 for w in order}
    bip = [{} for _ in range(total)]
    for row, i in zip(bip, member_source):
        j1, j2 = decomp[i]
        for w in [j1] * (n - 2) + [j2]:
            col = slot_base[w] + fill[w] // (n - 1)
            fill[w] += 1
            row[col] = row.get(col, 0) + 1
    if any(fill[w] != (n - 1) * mult[w] for w in order):
        raise BridgeError("slot routing does not balance", matrix=rows)
    matchings = _split(bip, n - 1)
    one = alpha.field.one
    coeffs = tuple([one] * (n - 1) + [-alpha])
    # member r is (p[slots[mt[r]]] for each matching mt, then p[member_source[r]])
    columns = [list(map(slots.__getitem__, mt)) for mt in matchings]
    columns.append(member_source)
    used = _balanced(columns)
    if used is None:
        raise ValueError("coordinate value multisets differ: not balanced")
    balanced = _ranked_multiset(coeffs, points, columns, used)
    cert = certificate_from_balanced(coeffs, balanced)
    # each row of the certificate is (D v)[k] = alpha*v[k] with D the sum of
    # its first n-1 permutations, whose rows and columns then sum to n-1
    if not verify_certificate(coeffs, cert):
        raise BridgeError("rebalanced matrix fails the eigen identity",
                          matrix=rows)
    D = permutation_sum(cert.perms[:-1], cert.m)
    return BridgeResult(matrix=D, eigenvector=tuple(cert.kernel), strategy="sink-class")


def permutation_sum(perms: Sequence[Sequence[int]], size: int) -> IntMatrix:
    """The sum of the permutation matrices of perms: row k has a 1 at p[k]."""
    rows = [[0] * size for _ in range(size)]
    for p in perms:
        for k, image in enumerate(p):
            rows[k][image] += 1
    return tuple(map(tuple, rows))


def _augment(support: list[list[int]], match_col: list[int], root: int) -> bool:
    """Kuhn's augmenting path from root, depth first on an explicit stack.

    support[r] lists the columns open to row r in ascending order. Columns
    are tried in the order the recursive formulation tries them, so the
    matching is the same. Each frame is [row, next index into support[row]].
    """
    visited: set = set()
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


def _nonzero_rows(D: Sequence[Sequence[int]]) -> list[dict[int, int]]:
    """The nonzero entries of each row of a square matrix, as {column: entry}."""
    cols = tuple(range(len(D)))
    return [{c: row[c] for c in itertools.compress(cols, row)} for row in D]


def _split(counts: Sequence[dict[int, int]], s: int) -> list[tuple[int, ...]]:
    """Split a doubly regular matrix, given as {column: entry} for each row's
    nonzero entries, into s permutations; counts is left as it was.

    A row or column that does not sum to s raises ValueError. Each round
    takes a perfect matching on the positive entries (Hall's condition holds
    for regular bipartite multigraphs) and subtracts it. Rows and open
    columns go in ascending order, so the output is deterministic. A row
    whose first open column is free takes it, as the augmenting path would;
    the others follow augmenting paths on an explicit stack.
    """
    size = len(counts)
    column_sums = [0] * size
    for row in counts:
        if sum(row.values()) != s:
            raise ValueError("row and column sums must all be equal")
        for c, k in row.items():
            column_sums[c] += k
    if column_sums.count(s) != size:
        raise ValueError("row and column sums must all be equal")
    left = [dict(row) for row in counts]
    support = [sorted(row) for row in counts]
    perms = []
    for _ in range(s):
        match_col = [-1] * size
        for r, cols in enumerate(support):
            if match_col[cols[0]] == -1:
                match_col[cols[0]] = r
            elif not _augment(support, match_col, r):
                raise ValueError("no perfect matching on positive entries")
        perm = [0] * size
        for c, r in enumerate(match_col):
            perm[r] = c
        for r, c in enumerate(perm):
            left[r][c] -= 1
            if not left[r][c]:
                support[r].remove(c)
        perms.append(tuple(perm))
    return perms


def birkhoff_decompose(D: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Split a doubly regular nonnegative integer matrix into permutations.

    A dense wrapper over the sparse split: D must be square with nonnegative
    integer entries and equal row and column sums, else ValueError.
    """
    size = len(D)
    if any(len(row) != size for row in D):
        raise ValueError("matrix must be square")
    for row in D:
        if not all(issubclass(t, int) for t in set(map(type, row))) or min(row) < 0:
            raise ValueError("entries must be nonnegative integers")
    if not size:
        raise ValueError("row and column sums must all be equal")
    counts = _nonzero_rows(D)
    return _split(counts, sum(counts[0].values()))


# ---------------------------------------------------------------------------
# certificate verification


def verify_numfield_certificate(alpha: Entry, n: int, matrix: Sequence[Sequence[int]],
                                perms: Sequence[Sequence[int]],
                                eigenvector: Sequence[QuadInt]) -> bool:
    """Whether the n - 1 permutations sum to matrix and eigenvector is a
    nonzero vector with matrix . eigenvector = alpha * eigenvector.

    Such a vector proves det(sum P_i - alpha*I) = 0. Malformed permutations,
    or too few or too many of them, raise ValueError.
    """
    size = len(matrix)
    if len(perms) != n - 1 or not perms or not size:
        raise ValueError(f"expected n - 1 = {n - 1} >= 1 permutations of a nonempty "
                         f"matrix, got {len(perms)}")
    _validate_perms(perms, size)
    return (permutation_sum(perms, size) == tuple(map(tuple, matrix))
            and _eigenvector_holds(matrix, eigenvector, alpha))


def _eigenvector_holds(matrix: Sequence[Sequence[int]], vec: Sequence[QuadInt],
                       alpha: Entry) -> bool:
    """Whether vec is a nonzero vector of the matrix's dimension with
    matrix . vec = alpha * vec; an int alpha is taken in vec's field."""
    if len(vec) != len(matrix) or not any(vec):
        return False
    return matrix_fixes(matrix, vec, _as_quadint(vec[0].field, alpha))


# ---------------------------------------------------------------------------
# pipeline


@dataclass(frozen=True)
class NumfieldCertificate:
    """Verified doubly regular matrix with eigenvalue alpha, plus its split."""

    field: QuadField
    alpha: QuadInt
    n: int
    matrix: IntMatrix
    perms: tuple[tuple[int, ...], ...]
    eigenvector: tuple[QuadInt, ...]
    radius_squared: Fraction
    covering_radius_squared: Fraction
    strategy: str


def numfield_pipeline(K: QuadField, alpha: Entry, n: int = 3,
                      attempts: int = 4) -> NumfieldCertificate:
    """Full chain from lattice rounding to a verified permutation certificate.

    Rounding hands its rows to the bridge in sparse form, so no matrix of
    the ball's size is written out; only the bridge's result, of dimension
    at most MAX_BRIDGE_DIMENSION, is dense. The split reads its nonzero
    entries once, and the permutations must count back to them row by row.
    Retries with a doubled ball radius when the bridge cannot rebalance; the
    final BridgeError propagates with the last rounding matrix attached as
    sparse rows. A ball past MAX_BALL_POINTS raises BudgetExceededError.
    """
    alpha = _as_quadint(K, alpha)
    last_error: Optional[BridgeError] = None
    for attempt in range(max(attempts, 1)):
        step = lattice_rounding_step(K, alpha, n, attempt)
        try:
            bridge = perron_bridge(step.rows, alpha, step.points)
        except BridgeError as err:
            last_error = err
            continue
        counts = _nonzero_rows(bridge.matrix)
        perms = _split(counts, n - 1)
        # the bridge checked the eigen identity; a nonzero eigenvector of
        # the matrix the split sums back to proves the determinant vanishes
        left = [dict(row) for row in counts]
        for perm in perms:
            for row, c in zip(left, perm):
                row[c] = row.get(c, 0) - 1
        if any(any(row.values()) for row in left) or not any(bridge.eigenvector):
            last_error = BridgeError("decomposed certificate failed verification",
                                     matrix=step.rows)
            continue
        return NumfieldCertificate(
            field=K,
            alpha=alpha,
            n=n,
            matrix=bridge.matrix,
            perms=tuple(tuple(p) for p in perms),
            eigenvector=bridge.eigenvector,
            radius_squared=step.radius_squared,
            covering_radius_squared=step.covering_radius_squared,
            strategy=bridge.strategy,
        )
    assert last_error is not None
    raise last_error
