"""Random-permutation heuristics for solution abundance.

The model: pick n-1 independent uniform permutations from a chosen subgroup
family acting on V_N, hold the last coordinate fixed, and ask how often the
per-row sums all vanish. The closed-form prediction treats the q^N row sums
as independent uniform values in V_{N+d}, giving success probability
q^(-(N+d)*q^N) per trial and

    p_N = (1 - q^(-(N+d)*q^N)) ** |G|^(n-1)

for the probability that no trial among |G|^(n-1) succeeds. Exponents grow
doubly exponentially, so log p_N = -exp(Y) is computed through its log Y, in
the standard library's decimal arithmetic at a precision sized from the
exponent's length rather than its value.

monte_carlo measures the empirical rate. When the family is small enough it
switches to exhaustive enumeration of all permutation combinations, making
the counts exact and independent of the seed.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from .core import CoeffTuple, vn_elements

FAMILY_KINDS = ("symmetric", "alternating", "cyclic", "dihedral")

MAX_SAMPLING_DEGREE = 16

# p_n_closed_form refuses E = (N+d)*q^N above this size, which keeps its
# decimal ln and exp at most 1,040 digits wide (about 20 ms each)
MAX_EXPONENT_BITS = 3000

# p_n_closed_form rounds from the exact integers |G|^(n-1) and q^E while
# (n-1) * (bits of |G| - 1) is at most this (a few ms)
MAX_EXACT_COUNT_BITS = 1 << 16


@dataclass(frozen=True)
class GroupFamily:
    """A standard permutation subgroup of S_m, m = q^N."""

    kind: str
    degree: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family {self.kind!r}; pick one of {FAMILY_KINDS}")
        if self.degree < 1:
            raise ValueError("degree must be positive")

    @property
    def size(self) -> int:
        m = self.degree
        if self.kind == "symmetric":
            return math.factorial(m)
        if self.kind == "alternating":
            return max(math.factorial(m) // 2, 1)
        if self.kind == "cyclic":
            return m
        return 1 if m == 1 else (2 if m == 2 else 2 * m)

    def elements(self) -> list[tuple[int, ...]]:
        """All members, deterministically ordered. Only call for small sizes."""
        m = self.degree
        if self.kind == "symmetric":
            return list(itertools.permutations(range(m)))
        if self.kind == "alternating":
            return [p for p in itertools.permutations(range(m)) if _parity_even(p)]
        rotations = [tuple((i + k) % m for i in range(m)) for k in range(m)]
        if self.kind == "cyclic":
            return rotations
        reflections = [tuple((k - i) % m for i in range(m)) for k in range(m)]
        return list(dict.fromkeys(rotations + reflections))

    def sample(self, rng: random.Random) -> tuple[int, ...]:
        m = self.degree
        if self.kind in ("symmetric", "alternating"):
            perm = list(range(m))
            rng.shuffle(perm)
            if self.kind == "alternating" and not _parity_even(perm) and m >= 2:
                perm[0], perm[1] = perm[1], perm[0]
            return tuple(perm)
        k = rng.randrange(m)
        if self.kind == "dihedral" and rng.randrange(2):
            return tuple((k - i) % m for i in range(m))
        return tuple((i + k) % m for i in range(m))


def _parity_even(perm: Sequence[int]) -> bool:
    seen = [False] * len(perm)
    even = True
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            even = not even
    return even


def p_n_closed_form(q: int, d: int, n: int, N: int,
                    log_group_size: Optional[float] = None,
                    group_size: Optional[int] = None) -> float:
    """Natural log of the modelled no-solution probability p_N.

    Exactly one of log_group_size (natural log of |G|) and group_size must be
    given; the log form exists because interesting group sizes overflow any
    float long before the model becomes boring.

    log p_N = |G|^(n-1) * log1p(-x), x = q^-E, E = (N+d)*q^N, is -exp(Y) with
    Y = (n-1)*ln|G| - E*ln(q) + ln(-log1p(-x)/x). Y is computed in decimal at
    about 40 digits past the size of E, and E*ln(q) digits more where the
    last term still shows; it is -0.0 below Y = -800 and -inf above Y = 800,
    where every double has long underflowed or overflowed. Between, an
    integer |G| with (n-1) * (bits of |G| - 1) <= MAX_EXACT_COUNT_BITS is
    rounded from the exact integers |G|^(n-1) and q^E instead.
    """
    if (log_group_size is None) == (group_size is None):
        raise ValueError("give exactly one of log_group_size and group_size")
    if q < 2 or n < 3 or N < 1 or d < 0:
        raise ValueError("need q >= 2, n >= 3, N >= 1, d >= 0")
    if group_size is not None and group_size < 1:
        raise ValueError("group_size must be positive")
    if log_group_size is not None and not math.isfinite(log_group_size):
        raise ValueError(f"log_group_size must be finite, not {log_group_size!r}")
    # (n-1)*ln|G| <= count_bits and E >= 2^e_bits, so once 2^e_bits exceeds
    # 2*(count_bits + 801), E*ln(q) > (n-1)*ln|G| + 801 and Y < -800: decided
    # before q**N is formed, which bounds E by about count_bits^2 below
    count_bits = (n - 1) * (group_size.bit_length() if group_size is not None
                            else max(math.ceil(log_group_size), 0))
    e_bits = (N + d).bit_length() - 1 + N * (q.bit_length() - 1)
    if e_bits >= (2 * count_bits + 1602).bit_length():
        return -0.0
    exponent = (N + d) * q ** N
    if exponent.bit_length() > MAX_EXPONENT_BITS:
        raise ValueError(f"(N+d)*q^N has {exponent.bit_length()} bits, past the "
                         f"{MAX_EXPONENT_BITS}-bit limit of the estimate")
    exact = (group_size is not None
             and (n - 1) * (group_size.bit_length() - 1) <= MAX_EXACT_COUNT_BITS)
    with localcontext() as ctx:
        ctx.prec = exponent.bit_length() // 3 + 40
        e_log_q = exponent * Decimal(q).ln()
        # past E*ln(q) = 400, ln(-log1p(-x)/x) < x moves the double only at a
        # rounding tie, and a float ln|G| makes none
        near = e_log_q < 400 and not exact
        if near:
            # a rounding tie of the double needs y to within x/2, and 1 - x spends
            # E*log10(q) digits on x and as many again on x^2: every term gets
            # E*ln(q) more digits, which covers both
            ctx.prec += 2 * (int(e_log_q) // 2 + 1)
            e_log_q = exponent * Decimal(q).ln()
        log_count = (n - 1) * (Decimal(group_size).ln() if group_size is not None
                               else Decimal(log_group_size))
        y = log_count - e_log_q
        if exact and -801 <= y <= 800:
            # here E*ln(q) <= (n-1)*ln|G| + 801, so q^E is about as long as |G|^(n-1)
            return _nearest_log_p(group_size ** (n - 1), q ** exponent)
        if near:
            x = Decimal(q) ** -exponent
            y += (-(1 - x).ln() / x).ln()
        if y < -800:
            return -0.0
        if y > 800:
            return -math.inf
        return -float(y.exp())


def _nearest_log_p(count: int, b: int) -> float:
    """The double nearest count * log1p(-1/b), for integers count >= 1, b >= 2:
    -log1p(-1/b) sums 1/(k*b^k) over k >= 1, the terms past the k-th add less
    than 1/b^(k+1), and terms are added until both ends round to one double."""
    low, k = Fraction(0), 0
    while True:
        k += 1
        low += Fraction(count, k * b ** k)
        # values from 2^1024 - 2^970 up round past the largest double
        ends = {float(v) if v < (1 << 1024) - (1 << 970) else math.inf
                for v in (low, low + Fraction(count, b ** (k + 1)))}
        if len(ends) == 1:
            return -ends.pop()


def model_rate(q: int, d: int, n: int, N: int) -> float:
    """Modelled per-trial success probability q^(-(N+d)*q^N) as a float."""
    return math.exp(-(N + d) * q ** N * math.log(q))


@dataclass(frozen=True)
class HeuristicReport:
    family: GroupFamily
    exact: bool
    trials: int
    hits: int
    empirical_rate: float
    model_rate: float
    tv_distance: float
    sum_counts: dict

    def summary(self) -> str:
        mode = "exhaustive" if self.exact else "sampled"
        return (f"{mode} {self.family.kind} deg {self.family.degree}: "
                f"{self.hits}/{self.trials} hits, rate {self.empirical_rate:.6g} "
                f"(model {self.model_rate:.6g}), tv {self.tv_distance:.4f}")


def monte_carlo(a: CoeffTuple, N: int, family: GroupFamily,
                trials: int = 10000, seed: int = 0) -> HeuristicReport:
    """Estimate the solution rate for permutation combinations from a family.

    Exhaustive when |G|^(n-1) <= trials, which makes the counts exact and
    seed-independent. Per-row sums are tallied into a total-variation
    distance against the uniform distribution on V_{N+d}.
    """
    field = a.field
    if N < 1:
        raise ValueError("N must be positive")
    m = field.q ** N
    if m > MAX_SAMPLING_DEGREE:
        raise ValueError(
            f"degree too large: q^N = {m} exceeds the sampling limit {MAX_SAMPLING_DEGREE}")
    if family.degree != m:
        raise ValueError(f"family degree {family.degree} must equal q^N = {m}")
    if trials < 1:
        raise ValueError("trials must be positive")
    d = max(a.height, 0)
    n = a.n
    v = vn_elements(field, N)
    prods = [[c * x for x in v] for c in a.coeffs]
    last = prods[-1]
    counter: Counter = Counter()
    hits = 0
    total = 0
    exhaustive = family.size ** (n - 1) <= trials
    if exhaustive:
        combos = itertools.product(family.elements(), repeat=n - 1)
    else:
        rng = random.Random(f"mc:{field.q}:{N}:{family.kind}:{seed}")
        combos = (tuple(family.sample(rng) for _ in range(n - 1))
                  for _ in range(trials))
    for combo in combos:
        total += 1
        all_zero = True
        for j in range(m):
            s = last[j]
            for i, perm in enumerate(combo):
                s = s + prods[i][perm[j]]
            counter[s] += 1
            if s:
                all_zero = False
        if all_zero:
            hits += 1
    row_count = total * m
    space = field.q ** (N + d)
    uniform = 1.0 / space
    tv = 0.0
    for value in vn_elements(field, N + d):
        tv += abs(counter.get(value, 0) / row_count - uniform)
    tv *= 0.5
    return HeuristicReport(
        family=family,
        exact=exhaustive,
        trials=total,
        hits=hits,
        empirical_rate=hits / total,
        model_rate=model_rate(field.q, d, n, N),
        tv_distance=tv,
        sum_counts=dict(counter),
    )


@dataclass(frozen=True)
class ScanRow:
    N: int
    growth_constant: float
    log_group_size: float
    log_p: float


def limit_scan(q: int, d: int, n: int, growth: Sequence[float],
               start: int = 1) -> list[ScanRow]:
    """Model p_N along a growth schedule |G_N| = c_N * q^((N+d)*q^N/(n-1)).

    growth[i] is c_N for N = start + i. At this critical scale the exponent
    in p_N collapses to -c_N^(n-1) * (1 + o(1)), so increasing c_N drives
    log p_N down; the scan makes that visible row by row.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    rows = []
    for i, c in enumerate(growth):
        c = float(c)
        if not (0 < c < math.inf):
            raise ValueError(f"growth constants must be positive and finite, not {c!r}")
        N = start + i
        log_group = math.inf
        if N * (q.bit_length() - 1) <= 1024:  # else q**N alone is past the float range
            with contextlib.suppress(OverflowError):
                # the float below divides by n - 1: a float whose quotient must not underflow
                if (n - 1 > sys.float_info.max
                        or (N + d) * q ** N / (n - 1) * math.log(q) < sys.float_info.min):
                    raise ValueError(f"n of {len(str(n))} digits is too large for the "
                                     f"float log|G| at N = {N}")
                log_group = math.log(c) + (N + d) * (q ** N) * math.log(q) / (n - 1)
        if not math.isfinite(log_group):
            raise ValueError(f"log|G| at N = {N} is past the float range")
        log_p = p_n_closed_form(q, d, n, N, log_group_size=log_group)
        rows.append(ScanRow(N=N, growth_constant=c, log_group_size=log_group, log_p=log_p))
    return rows


def strictly_decreasing(rows: Sequence[ScanRow]) -> bool:
    return all(b.log_p < a.log_p for a, b in zip(rows, rows[1:]))
