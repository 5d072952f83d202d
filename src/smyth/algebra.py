"""Exact arithmetic over F_q[t], fraction-free elimination, and integer factoring.

Polynomials are held as dense coefficient tuples in ascending degree with no
trailing zeros, so each residue class has exactly one representation and
values are hashable. The zero polynomial has degree ``-inf`` (a float
sentinel), which keeps degree comparisons total without overloading -1.

The text form of a polynomial is ``c*t^k`` terms joined by ``+`` in
descending powers, e.g. ``t^2+t+1`` or ``2*t^3+1``; the zero polynomial
prints as ``0``. The parser is liberal: it also accepts ascending order,
redundant unit coefficients (``1*t^2``), spaces, and ``-`` signs.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BudgetExceededError, NonUnitError, ParseError

NEG_INF = float("-inf")

DEFAULT_FACTOR_BOUND = 1 << 64

# parse_poly refuses higher exponents, far above any degree a budget-bounded
# command emits, before it allocates the coefficient tuple
MAX_PARSE_DEGREE = 1 << 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class FieldParams:
    """A prime field F_q, the coefficient field for everything here."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q!r}")
        if self.q >= 1 << 63:
            raise ValueError("q must fit in a machine word")
        if not is_probable_prime(self.q):
            raise ValueError(f"q must be prime, got {self.q}")

    @property
    def zero(self) -> "Poly":
        return Poly(self, ())

    @property
    def one(self) -> "Poly":
        return Poly(self, (1,))

    @property
    def t(self) -> "Poly":
        return Poly(self, (0, 1))

    def constant(self, c: int) -> "Poly":
        c %= self.q
        return Poly(self, (c,) if c else ())

    def poly(self, spec) -> "Poly":
        """Build a polynomial from text, an int constant, or ascending coefficients."""
        if isinstance(spec, Poly):
            if spec.field != self:
                raise ValueError("polynomial belongs to a different field")
            return spec
        if isinstance(spec, str):
            return parse_poly(self, spec)
        if isinstance(spec, int):
            return self.constant(spec)
        return Poly(self, _trim(int(c) % self.q for c in spec))


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True, slots=True)
class Poly:
    """Element of F_q[t]. Immutable, hashable, exact.

    Do not call the constructor with unreduced data; go through
    ``FieldParams.poly`` instead.
    """

    field: FieldParams
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int | float:
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return self.coeffs == (1,)

    @property
    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    @property
    def lc(self) -> int:
        """Leading coefficient (of the zero polynomial: 0)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def sort_key(self) -> tuple:
        """Deterministic total order key: degree first, then coefficients."""
        return (len(self.coeffs), self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self) -> int:
        # equality still compares the field; only the hash leaves it out
        return hash(self.coeffs)

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise ValueError("mixed coefficient fields")
            return other
        if isinstance(other, int):
            return self.field.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        q = self.field.q
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % q
        return Poly(self.field, _trim(out))

    __radd__ = __add__

    def __neg__(self):
        q = self.field.q
        return Poly(self.field, tuple((-c) % q for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(self.field, ())
        q = self.field.q
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % q
        return Poly(self.field, _trim(out))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.field.one
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        q = self.field.q
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lc = pow(other.coeffs[-1], -1, q)
        quot = [0] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                factor = c * inv_lc % q
                quot[i - db] = factor
                for j, cb in enumerate(other.coeffs):
                    rem[i - db + j] = (rem[i - db + j] - factor * cb) % q
        return Poly(self.field, _trim(quot)), Poly(self.field, _trim(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly | None":
        """self / other when other divides self, else None."""
        quot, rem = divmod(self, other)
        return None if rem else quot

    def monic(self) -> "Poly":
        if self.is_zero or self.lc == 1:
            return self
        inv = pow(self.lc, -1, self.field.q)
        return Poly(self.field, tuple(c * inv % self.field.q for c in self.coeffs))

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)!r}, q={self.field.q})"


def format_poly(p: Poly) -> str:
    """Canonical text: descending powers joined by +, zero prints as 0."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        if k == 0:
            parts.append(str(c))
        elif k == 1:
            parts.append("t" if c == 1 else f"{c}*t")
        else:
            parts.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
    return "+".join(parts)


# one signed term, ending where the next sign or the text begins; a term
# may close with one newline, as a "$" at the end of its text would allow
_TERM_RE = re.compile(r"([+-]?)(?:(\d+)\*?)?(t(?:\^(\d+))?)?\n?(?=[+-]|\Z)")
_TOKEN_RE = re.compile(r"[+-]?[^+-]*")
# a sign followed by another sign or by the end of the text
_LONE_SIGN_RE = re.compile(r"[+-](?![^+-])")


def _read_terms(term_re: re.Pattern, text: str, what: str) -> dict[int, int]:
    """The integer coefficient of each degree in a sum of terms of one
    variable; what names the text in messages.

    term_re matches one signed term as _TERM_RE does, its groups the sign,
    the coefficient, the variable and the exponent. The terms are read in
    one pass, and their matches must tile the text. A text that does not
    parse is refused as malformed when it holds a lone sign, before any of
    its terms is named.
    """
    if not isinstance(text, str):
        raise ParseError(f"{what} text must be a string, not {type(text).__name__}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError(f"empty {what} text")
    coeffs: dict[int, int] = {}
    pos = 0
    try:
        # the loop stops at the last term, before the empty match at the end
        for m in term_re.finditer(s):
            sign, cstr, tpart, estr = m.groups()
            if m.start() != pos or (cstr is None and tpart is None):
                raise ParseError(f"bad term {_TOKEN_RE.match(s, pos).group()!r} in {text!r}")
            c = int(cstr) if cstr is not None else 1
            k = 0 if tpart is None else (int(estr) if estr is not None else 1)
            if k > MAX_PARSE_DEGREE:
                raise ParseError(f"degree {k} in {text!r} exceeds the cap {MAX_PARSE_DEGREE}")
            coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
            pos = m.end()
            if pos == len(s):
                break
    except ValueError as err:  # a bad term, a degree past the cap or an int of too many digits
        if _LONE_SIGN_RE.search(s):
            raise ParseError(f"malformed {what} text: {text!r}") from None
        raise ParseError(str(err)) from None
    return coeffs


def parse_poly(field: FieldParams, text: str) -> Poly:
    """Parse polynomial text in any term order, e.g. '1+t+1*t^2'."""
    coeffs = _read_terms(_TERM_RE, text, "polynomial")
    if not coeffs:
        return field.zero
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c % field.q
    return Poly(field, _trim(out))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; an error for (0, 0)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Monic g plus Bezout cofactors (g, u, v) with u*a + v*b = g."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    field = a.field
    r0, r1 = a, b
    s0, s1 = field.one, field.zero
    t0, t1 = field.zero, field.one
    while not r1.is_zero:
        quo, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    inv = pow(r0.lc, -1, field.q)
    c = field.constant(inv)
    return r0 * c, s0 * c, t0 * c


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero or b.is_zero:
        return a.field.zero
    return ((a * b) // poly_gcd(a, b)).monic()


def many_gcd(polys: Sequence[Poly]) -> Poly:
    """Monic gcd of a nonempty sequence."""
    acc = polys[0]
    for p in polys[1:]:
        if acc.is_unit and not acc.is_zero:
            break
        if p.is_zero and acc.is_zero:
            continue
        if acc.is_zero:
            acc = p
        elif not p.is_zero:
            acc = poly_gcd(acc, p)
    if acc.is_zero:
        raise ValueError("gcd of all-zero sequence is undefined")
    return acc.monic()


def unit_group_order(q: int, degree: int) -> int:
    """q^degree - 1: the order of the unit group modulo an irreducible
    polynomial of that degree over F_q.

    Orders in that group are found by factoring it, so a group above
    DEFAULT_FACTOR_BOUND raises BudgetExceededError here, before any
    polynomial of that degree is tested for irreducibility (about cubic in
    the degree). As q >= 2, a degree of at least the bound's bit length is
    refused without forming q^degree.
    """
    group = q**degree - 1 if degree < DEFAULT_FACTOR_BOUND.bit_length() else None
    if group is None or group > DEFAULT_FACTOR_BOUND:
        raise BudgetExceededError(
            f"the unit group modulo a degree-{degree} polynomial over F_{q} "
            f"has order above the factoring bound {DEFAULT_FACTOR_BOUND}",
            required=group,
        )
    return group


def _order(is_one, group: int) -> int:
    """Order of an element of a group of the given order, where is_one(e)
    tells whether the element's e-th power is the identity: the group order
    divided by each of its primes while the power stays the identity."""
    order = group
    for p in integer_factor(group):
        while order % p == 0 and is_one(order // p):
            order //= p
    return order


def _powmod(base: Poly, exp: int, modulus: Poly) -> Poly:
    result = base.field.one % modulus
    base = base % modulus
    while exp:
        if exp & 1:
            result = result * base % modulus
        base = base * base % modulus
        exp >>= 1
    return result


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: x^(q^d) = x mod f, and gcd(x^(q^(d/l)) - x, f) = 1."""
    if f.degree < 1:
        raise ValueError("irreducibility is only defined for nonconstant polynomials")
    f = f.monic()
    d = int(f.degree)
    if d == 1:
        return True
    field = f.field
    x = field.t % f
    frob = [x]
    cur = x
    for _ in range(d):
        cur = _powmod(cur, field.q, f)
        frob.append(cur)
    if frob[d] != x:
        return False
    for ell in integer_factor(d):
        g = poly_gcd(frob[d // ell] - x, f)
        if g.degree != 0:
            return False
    return True


def poly_from_index(field: FieldParams, k: int) -> Poly:
    """The k-th polynomial in base-q counting order: the base-q digits of k,
    least significant first, are its ascending coefficients."""
    digits = []
    while k:
        digits.append(k % field.q)
        k //= field.q
    return Poly(field, tuple(digits))


def monic_polys(field: FieldParams, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree, in base-q counting order."""
    lead = field.q**degree
    for k in range(lead):
        yield poly_from_index(field, lead + k)


def monic_irreducibles(field: FieldParams, degree: int) -> Iterator[Poly]:
    for f in monic_polys(field, degree):
        if is_irreducible(f):
            yield f


def random_irreducible(q: int, degree: int, seed) -> Poly:
    """Uniformly sampled monic irreducible, deterministic for a fixed seed."""
    field = FieldParams(q)
    rng = random.Random(f"irr:{q}:{degree}:{seed}")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    while True:
        coeffs = tuple(rng.randrange(field.q) for _ in range(degree)) + (1,)
        f = Poly(field, coeffs)
        if is_irreducible(f):
            return f


def _exact_div(a, b):
    """a / b where b divides a in their ring; ArithmeticError otherwise."""
    if isinstance(a, int):
        quot, rem = divmod(a, b)
        if rem:
            raise ArithmeticError("inexact integer division in elimination")
        return quot
    quot = a.exact_div(b)
    if quot is None:
        raise ArithmeticError("inexact ring division in elimination")
    return quot


def kernel_basis(matrix: Sequence[Sequence], q: Optional[int] = None) -> list[list]:
    """A basis of the right kernel of a matrix over Z, F_q[t], a quadratic
    ring or, given a prime modulus q, F_q on int entries.

    Fraction-free throughout: Bareiss elimination (Math. Comp. 1968) brings
    the rows to echelon form, each entry then a minor of the input, and back
    substitution solves for one vector per free column, whose entries are
    minors again by Cramer's rule, so every division is exact. The vector
    for free column f is zero at the other free columns and at the pivot
    columns after f; its entry at f is the leading minor on the pivots
    before f, so f is its last nonzero entry. Returns [] when the columns
    are independent. Entries share one ring, with ints mixing in freely.

    With q, entries are reduced mod q and each pivot row is scaled to 1, so
    the divisions become reductions mod q and each vector is 1 at its f.
    """
    rows = [list(row) for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise ValueError("matrix rows must have equal length")
    if q is None:
        sample = next((e for row in rows for e in row if not isinstance(e, int)), 0)
        zero = sample * 0
        rows = [[zero + e for e in row] for row in rows]
    else:
        zero = 0
        rows = [[e % q for e in row] for row in rows]
    one = zero + 1
    pivots: list[int] = []
    prev = one
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if found is None:
            continue
        rows[r], rows[found] = rows[found], rows[r]
        top = rows[r]
        p = top[c]
        if q is not None and p != 1:
            inv = pow(p, -1, q)
            top = rows[r] = [e * inv % q for e in top]
            p = 1
        for row in rows[r + 1:]:
            f = row[c]
            if not f and p == prev:
                continue  # the update would leave the row as it is
            if q is not None:
                row[c + 1:] = [(u - f * v) % q for u, v in zip(row[c + 1:], top[c + 1:])]
            else:
                for j in range(c + 1, ncols):
                    num = row[j] * p - f * top[j]
                    row[j] = _exact_div(num, prev) if r else num
            row[c] = zero
        pivots.append(c)
        prev = p
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        t = sum(1 for c in pivots if c < free)
        v = [zero] * ncols
        v[free] = rows[t - 1][pivots[t - 1]] if t else one
        for k in range(t - 1, -1, -1):
            s = zero
            for c in pivots[k + 1:t] + [free]:
                s = s + rows[k][c] * v[c]
            v[pivots[k]] = -s % q if q is not None else _exact_div(-s, rows[k][pivots[k]])
        basis.append(v)
    return basis


def _floyd_split(n: int) -> int:
    # Floyd cycle factor finder with deterministic parameter sweep.
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _digit_count(m: int) -> int:
    """Decimal digits of m >= 1, without str(m), which refuses past 4,300 digits."""
    digits = int((m.bit_length() - 1) * math.log10(2)) + 1  # those of 2^(bit_length - 1)
    return digits + (m >= 10 ** digits)


def integer_factor(m: int, bound: int = DEFAULT_FACTOR_BOUND) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; refuses inputs above bound."""
    if m < 1:
        raise ValueError("integer_factor requires a positive integer")
    if m > bound:
        raise BudgetExceededError(
            f"an integer of {_digit_count(m)} digits exceeds the factoring bound {bound}",
            required=m,
        )
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            factors[v] = factors.get(v, 0) + 1
            continue
        d = _floyd_split(v)
        stack.append(d)
        stack.append(v // d)
    return dict(sorted(factors.items()))


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in integer_factor(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def multiplicative_order_int(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)*; NonUnitError when gcd(a, modulus) > 1."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    a %= modulus
    g = math.gcd(a, modulus)
    if g != 1:
        raise NonUnitError(f"{a} is not a unit modulo {modulus}", witness=g)
    return _order(lambda e: pow(a, e, modulus) == 1, euler_phi(modulus))


def complementary_gcds_are_one(values: Sequence[int]) -> bool:
    """Whether the gcd of the other values is 1 at each index."""
    return all(math.gcd(*values[:i], *values[i + 1:]) == 1 for i in range(len(values)))


def largest_prime_at_most(x: int) -> int:
    """Largest prime <= x; x must be at least 2."""
    if x < 2:
        raise ValueError("no prime at or below " + str(x))
    for n in range(x, 1, -1):
        if is_probable_prime(n):
            return n
    raise AssertionError("unreachable")
