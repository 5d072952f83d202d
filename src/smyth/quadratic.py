"""Exact arithmetic in quadratic number rings and cyclotomic integers.

QuadInt represents x + y*w in the ring of integers of Q(sqrt(m)), where w is
sqrt(m), or (1+sqrt(m))/2 when m = 1 mod 4. Norm, trace, and conjugation are
closed-form integer computations, so every archimedean comparison in the
package reduces to exact integer or rational arithmetic.

SqrtSum represents sums c_1*sqrt(s_1) + ... + c_k*sqrt(s_k) with rational
coefficients and distinct squarefree radicands. Such sums are zero only when
all coefficients vanish, so sign determination by isqrt-interval refinement
always terminates: the loop narrows brackets until zero is excluded.

CycInt represents elements of Z[zeta_m] as integer coefficient vectors
modulo the m-th cyclotomic polynomial, giving exact equality tests for the
root-of-unity layer.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import _read_terms, integer_factor
from .errors import PrecisionError

Rational = Union[int, Fraction]

_SIGN_PRECISION_CEILING = 1 << 13


@dataclass(frozen=True)
class QuadField:
    """Q(sqrt(m)) with its ring of integers Z[w]."""

    m: int

    def __post_init__(self):
        if self.m in (0, 1):
            raise ValueError("m must not be 0 or 1")
        for p, e in integer_factor(abs(self.m)).items():
            if e > 1:
                raise ValueError(f"m must be squarefree, got {self.m} = ...{p}^{e}...")

    # Computed once per field: QuadInt arithmetic reads these on every operation.
    @functools.cached_property
    def half(self) -> bool:
        """Whether w = (1+sqrt(m))/2 rather than sqrt(m)."""
        return self.m % 4 == 1

    @functools.cached_property
    def omega_trace(self) -> int:
        return 1 if self.half else 0

    @functools.cached_property
    def omega_norm(self) -> int:
        return (1 - self.m) // 4 if self.half else -self.m

    @property
    def is_real(self) -> bool:
        return self.m > 0

    @property
    def places(self) -> int:
        """Number of archimedean places: 1 complex or 2 real."""
        return 2 if self.is_real else 1

    @property
    def discriminant(self) -> int:
        return self.m if self.half else 4 * self.m

    @property
    def omega_label(self) -> str:
        return "half" if self.half else "sqrt"

    def element(self, x: int, y: int = 0) -> "QuadInt":
        return QuadInt(self, x, y)

    @property
    def zero(self) -> "QuadInt":
        return QuadInt(self, 0, 0)

    @property
    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    def ambient_q(self, u: Rational, v: Rational) -> Rational:
        """The positive quadratic form sum over archimedean places of |u+v*w|^2.

        An integer polynomial in (u, v): an int on int arguments, a Fraction
        on Fraction arguments.
        """
        norm = u * u + u * v * self.omega_trace + v * v * self.omega_norm
        if not self.is_real:
            return norm
        trace = 2 * u + v * self.omega_trace
        return trace * trace - 2 * norm

    def omega_coords(self, place: int) -> tuple[Fraction, Fraction]:
        """(rational part, sqrt(m) coefficient) of the image of w at a place."""
        if self.half:
            base, coeff = Fraction(1, 2), Fraction(1, 2)
        else:
            base, coeff = Fraction(0), Fraction(1)
        if place == 1:
            coeff = -coeff
        return base, coeff


@dataclass(frozen=True)
class QuadInt:
    """x + y*w in the ring of integers of a quadratic field."""

    field: QuadField
    x: int
    y: int

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    @property
    def sort_key(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def _coerce(self, other) -> "QuadInt | None":
        if isinstance(other, QuadInt):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixed quadratic fields")
            return other
        if isinstance(other, int):
            return QuadInt(self.field, other, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.field, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __neg__(self):
        return QuadInt(self.field, -self.x, -self.y)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadInt(self.field, self.x - other.x, self.y - other.y)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        t = self.field.omega_trace
        nm = self.field.omega_norm
        yy = self.y * other.y
        return QuadInt(
            self.field,
            self.x * other.x - yy * nm,
            self.x * other.y + self.y * other.x + yy * t,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        return QuadInt(self.field, self.x + self.y * self.field.omega_trace, -self.y)

    def norm(self) -> int:
        t = self.field.omega_trace
        nm = self.field.omega_norm
        return self.x * self.x + self.x * self.y * t + self.y * self.y * nm

    def trace(self) -> int:
        return 2 * self.x + self.y * self.field.omega_trace

    def exact_div(self, other: "QuadInt") -> Optional["QuadInt"]:
        """self / other when the quotient lies in the ring, else None."""
        other = self._coerce(other)
        if not other:
            raise ZeroDivisionError("division by zero quadratic integer")
        num = self * other.conj()
        d = other.norm()
        if num.x % d or num.y % d:
            return None
        return QuadInt(self.field, num.x // d, num.y // d)

    def embedding_coords(self, place: int) -> tuple[Fraction, Fraction]:
        """self at the given place as (rational, sqrt(m)-coefficient)."""
        base, coeff = self.field.omega_coords(place)
        return (self.x + self.y * base, self.y * coeff)

    def __str__(self) -> str:
        return format_quadint(self)

    def __repr__(self) -> str:
        return f"QuadInt({format_quadint(self)!r}, m={self.field.m})"


def format_quadint(v: QuadInt) -> str:
    """Canonical text x+y*w, omitting zero parts; zero prints as 0."""
    if v.x == 0 and v.y == 0:
        return "0"
    parts = []
    if v.x:
        parts.append(str(v.x))
    if v.y:
        if v.y == 1:
            term = "w"
        elif v.y == -1:
            term = "-w"
        else:
            term = f"{v.y}*w"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)


# one signed term of x+y*w as algebra._TERM_RE reads t; w takes no exponent,
# so the exponent group at the end never takes part
_QTERM_RE = re.compile(r"([+-]?)(?:(\d+)\*?)?(w)?()??\n?(?=[+-]|\Z)")


def parse_quadint(field: QuadField, text: str) -> QuadInt:
    """Parse x+y*w text, any term order, e.g. 'w-1' or '-3+2*w'.

    The terms are read as parse_poly reads those of t, so the same texts
    are refused with the same messages; w^1 is a bad term.
    """
    coeffs = _read_terms(_QTERM_RE, text, "quadratic integer")
    return QuadInt(field, coeffs.get(0, 0), coeffs.get(1, 0))


def _squarefree_split(k: int) -> tuple[int, int]:
    # k = f*f*s with s squarefree
    f = 1
    s = 1
    for p, e in integer_factor(k).items():
        f *= p ** (e // 2)
        if e % 2:
            s *= p
    return f, s


@dataclass(frozen=True)
class SqrtSum:
    """An exact sum of rational multiples of square roots of squarefree integers."""

    terms: tuple[tuple[int, Fraction], ...]

    @classmethod
    def make(cls, data: dict[int, Fraction]) -> "SqrtSum":
        cleaned = tuple(sorted((s, c) for s, c in data.items() if c))
        return cls(cleaned)

    @classmethod
    def zero(cls) -> "SqrtSum":
        return cls(())

    @classmethod
    def rational(cls, c: Rational) -> "SqrtSum":
        c = Fraction(c)
        return cls.make({1: c})

    @classmethod
    def from_sqrt(cls, value: Rational, scale: Rational = 1) -> "SqrtSum":
        """scale * sqrt(value) for value >= 0."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("from_sqrt needs a nonnegative radicand")
        if value == 0 or scale == 0:
            return cls.zero()
        k = value.numerator * value.denominator
        f, s = _squarefree_split(k)
        return cls.make({s: Fraction(scale) * Fraction(f, value.denominator)})

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        data = dict(self.terms)
        for s, c in other.terms:
            data[s] = data.get(s, Fraction(0)) + c
        return SqrtSum.make(data)

    def __neg__(self) -> "SqrtSum":
        return SqrtSum(tuple((s, -c) for s, c in self.terms))

    def __sub__(self, other: "SqrtSum") -> "SqrtSum":
        return self + (-other)

    def scaled(self, factor: Rational) -> "SqrtSum":
        factor = Fraction(factor)
        if factor == 0:
            return SqrtSum.zero()
        return SqrtSum(tuple((s, c * factor) for s, c in self.terms))

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1.

        Distinct squarefree radicands are linearly independent over Q, so the
        sum is zero only in the trivial case. Two terms a*sqrt(s) + b*sqrt(t)
        (a rational part has s = 1) are decided exactly: a*a*s != b*b*t, so
        when the signs of a and b differ the term with the larger square
        wins. Longer sums are separated from zero by bracket refinement.
        """
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            s, c = self.terms[0]
            return 1 if c > 0 else -1
        if len(self.terms) == 2:
            (s, a), (t, b) = self.terms
            if (a > 0) != (b > 0) and a * a * s < b * b * t:
                a = b
            return 1 if a > 0 else -1
        bits = 16
        while bits <= _SIGN_PRECISION_CEILING:
            scale = 1 << bits
            lo = Fraction(0)
            hi = Fraction(0)
            for s, c in self.terms:
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
        raise PrecisionError(f"sign of {self} undecided at precision ceiling")

    def compare(self, other: "SqrtSum") -> int:
        return (self - other).sign()

    def __lt__(self, other: "SqrtSum") -> bool:
        return self.compare(other) < 0

    def __le__(self, other: "SqrtSum") -> bool:
        return self.compare(other) <= 0

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for s, c in self.terms:
            piece = str(c) if s == 1 else (f"{c}*sqrt({s})" if c != 1 else f"sqrt({s})")
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)


def quadint_abs(v: QuadInt, place: int = 0) -> SqrtSum:
    """|v| at an archimedean place, exactly.

    Imaginary fields have the single place 0 with |v| = sqrt(norm); real
    fields have places 0 and 1 with |v| the absolute value of the real
    embedding.
    """
    field = v.field
    if not field.is_real:
        if place != 0:
            raise ValueError("imaginary quadratic fields have one archimedean place")
        return SqrtSum.from_sqrt(v.norm())
    if place not in (0, 1):
        raise ValueError("real quadratic fields have places 0 and 1")
    u, w = v.embedding_coords(place)
    value = SqrtSum.make({1: u, field.m: w})
    return value if value.sign() >= 0 else -value


def _intpoly_divmod(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder, ascending, of integer polynomials by a monic den."""
    rem = list(num)
    deg = len(den) - 1
    quot = [0] * max(len(rem) - deg, 0)
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            quot[i - deg] = c
            for j, dc in enumerate(den):
                rem[i - deg + j] -= c * dc
    return quot, rem[:deg] + [0] * (deg - len(rem))


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending, monic:
    t^m - 1 divided by the cyclotomic polynomial of each proper divisor."""
    if m < 1:
        raise ValueError("order must be positive")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, _ = _intpoly_divmod(num, cyclotomic_poly(d))
    return tuple(num)


@dataclass(frozen=True)
class CycInt:
    """Element of Z[zeta_m] as an integer coefficient vector modulo the m-th cyclotomic polynomial."""

    order: int
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, order: int, coeffs: Sequence[int]) -> "CycInt":
        return cls(order, tuple(_intpoly_divmod(coeffs, cyclotomic_poly(order))[1]))

    @classmethod
    def zeta(cls, order: int, exponent: int = 1) -> "CycInt":
        e = exponent % order
        return cls.make(order, [0] * e + [1])

    @classmethod
    def rational(cls, order: int, c: int) -> "CycInt":
        return cls.make(order, [c])

    @property
    def sort_key(self) -> tuple:
        return self.coeffs

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _coerce(self, other) -> "CycInt | None":
        if isinstance(other, CycInt):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, int):
            return CycInt.rational(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt(self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.order, tuple(-c for c in self.coeffs))

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
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return CycInt.make(self.order, out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not any(self.coeffs):
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                piece = str(c)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                if c == 1:
                    piece = zk
                elif c == -1:
                    piece = "-" + zk
                else:
                    piece = f"{c}*{zk}"
            if parts and not piece.startswith("-"):
                parts.append("+" + piece)
            else:
                parts.append(piece)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"CycInt({self.__str__()!r}, order={self.order})"
