"""Lower bounds on balanced-multiset size and extremal instance generators.

The key bound: for a coprime triple (a, b, c) with c irreducible and b a
unit mod c, every balanced multiset with respect to (a, b, c) has size at
least the multiplicative order of -a/b in (F_q[t]/c)*. Choosing -a/b to be a
generator makes the bound q^D - 1 for deg c = D. The integer analogue works
mod a prime p with the bound p - 1.

An exhaustive oracle searches all small sub-multisets of the solution pool
for a balanced one, confirming minimality claims independently.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebra import (
    FieldParams,
    Poly,
    _order,
    _powmod,
    complementary_gcds_are_one,
    euler_phi,
    is_irreducible,
    largest_prime_at_most,
    multiplicative_order_int,
    poly_ext_gcd,
    poly_from_index,
    poly_gcd,
    random_irreducible,
    unit_group_order,
)
from .core import (
    DEFAULT_BUDGET,
    BalancedMultiset,
    CoeffTuple,
    _balanced,
    _solution_pool,
    check_criteria,
    vn_elements,
)
from .errors import BudgetExceededError, NonUnitError

# floor(e^D) for D = 1..16, exact integers: construct_extremal_int scans down
# from FLOOR_EXP[D - 1] for its prime and refuses a larger D
FLOOR_EXP = (2, 7, 20, 54, 148, 403, 1096, 2980, 8103, 22026, 59874, 162754,
             442413, 1202604, 3269017, 8886110)
MAX_INT_EXTREMAL_D = len(FLOOR_EXP)

_EXHAUSTIVE_GROUP_LIMIT = 1 << 12


@dataclass(frozen=True)
class OrderBoundCertificate:
    """Order of -a/b in the unit group mod c, a size lower bound.

    group_order is |(R/c)*|; generator_flag marks order = group_order.
    """

    triple: tuple
    order: int
    group_order: int
    generator_flag: bool


@dataclass(frozen=True)
class ExtremalInstance:
    """A triple built to make the order bound as large as the group allows."""

    ring: str
    triple: tuple
    D: int
    claimed_min: int
    certificate: OrderBoundCertificate
    degenerate: bool = False


def order_bound_fqt(a: Poly, b: Poly, c: Poly) -> OrderBoundCertificate:
    """Size bound from the order of -a/b in (F_q[t]/c)*, c irreducible."""
    if c.degree < 1:
        raise ValueError(f"modulus {c} is constant; the order bound needs an irreducible c")
    group_order = unit_group_order(c.field.q, int(c.degree))
    if not is_irreducible(c):
        raise ValueError(f"modulus {c} is reducible; the order bound needs an irreducible c")
    c = c.monic()
    b_mod = b % c
    if b_mod.is_zero:
        raise NonUnitError(f"{b} vanishes mod {c}", witness=c)
    _, b_inv, _ = poly_ext_gcd(b_mod, c)  # c is irreducible, so the gcd is 1
    u = -a * b_inv % c
    if u.is_zero:
        raise NonUnitError(f"{a} vanishes mod {c}, so -a/b is not a unit", witness=c)
    order = _order(lambda e: _powmod(u, e, c).is_one, group_order)
    return OrderBoundCertificate(
        triple=(a, b, c),
        order=order,
        group_order=group_order,
        generator_flag=order == group_order,
    )


def _find_generator(field: FieldParams, c: Poly, rng: random.Random) -> Poly:
    # residues of full order in (F_q[t]/c)*: exhaustive for tiny groups,
    # seeded sampling otherwise; c is a monic irreducible, so no candidate
    # tests it again
    D = int(c.degree)
    group_order = field.q**D - 1
    if group_order <= _EXHAUSTIVE_GROUP_LIMIT:
        candidates = vn_elements(field, D)
    else:
        candidates = (field.poly([rng.randrange(field.q) for _ in range(D)])
                      for _ in itertools.count())
    for r in candidates:
        if r and _order(lambda e: _powmod(r, e, c).is_one, group_order) == group_order:
            return r
    raise AssertionError("a cyclic group always has a generator")


def construct_extremal_fqt(q: int, D: int, seed=0) -> ExtremalInstance:
    """A triple (a, b, c) of height D whose order bound is q^D - 1.

    c is a seeded-random monic irreducible of degree D and g a generator mod
    c. b ranges over all degree-D polynomials coprime to c, taking the first
    for which a = -g*b mod c is coprime to b; then -a/b = g mod c, so the
    order is the group order g was found to have. a has degree at most
    D - 1, so the maximal degree D is attained by b and c, and a is nonzero
    and prime to the irreducible c, so the criteria hold.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    field = FieldParams(q)
    group_order = unit_group_order(q, D)
    lead = group_order + 1
    c = random_irreducible(q, D, seed)
    rng = random.Random(f"extremal-fqt:{q}:{D}:{seed}")
    g = _find_generator(field, c, rng)
    for tail in range(lead):
        for lc in range(1, q):
            b = poly_from_index(field, tail + lc * lead)
            if not poly_gcd(b, c).is_one:
                continue
            a = (-(g * b)) % c
            if poly_gcd(a, b).is_one:  # fails for a = 0, as gcd(0, b) = b
                return ExtremalInstance(
                    ring="fqt",
                    triple=(a, b, c),
                    D=D,
                    claimed_min=group_order,
                    certificate=OrderBoundCertificate((a, b, c), group_order, group_order, True),
                )
    raise AssertionError("no admissible b of degree D; cannot happen for prime q")


def order_bound_int(a: int, b: int, c: int) -> OrderBoundCertificate:
    """Size bound from the order of -a/b in (Z/cZ)*."""
    if c < 2:
        raise ValueError("modulus c must be at least 2")
    if math.gcd(b, c) != 1:
        raise NonUnitError(f"{b} is not a unit mod {c}", witness=math.gcd(b, c))
    u = (-a * pow(b, -1, c)) % c
    if math.gcd(u, c) != 1:
        raise NonUnitError(f"-{a}/{b} = {u} mod {c} is not a unit", witness=math.gcd(u, c))
    order = multiplicative_order_int(u, c)
    group_order = euler_phi(c)
    return OrderBoundCertificate(
        triple=(a, b, c),
        order=order,
        group_order=group_order,
        generator_flag=order == group_order,
    )


def smallest_primitive_root(p: int) -> int:
    """Least primitive root mod an odd prime (1 for p = 2)."""
    for g in range(1, p):
        if _order(lambda e: pow(g, e, p) == 1, p - 1) == p - 1:
            return g
    raise AssertionError("every prime has a primitive root")


def construct_extremal_int(D: int) -> ExtremalInstance:
    """The integer triple whose order bound is p - 1 for p the largest prime <= e^D.

    With g the least primitive root mod p and n the representative of
    -1/(g+1), the triple is (n, n+1, p) when the triangle condition
    2n+1 >= p holds, with -a/b = 1/g, and the reflected (p-n-1, p-n, p)
    otherwise, with -a/b = g; either way -a/b has order p - 1. D = 1 gives
    p = 2, where the construction degenerates: the triple (1, 1, 2) is
    returned with a trivial bound and the degenerate flag set.
    """
    if D < 1:
        raise ValueError("D must be at least 1")
    if D > MAX_INT_EXTREMAL_D:
        raise BudgetExceededError(
            f"e^{D} is past the prime search bound e^{MAX_INT_EXTREMAL_D}: "
            f"D must be at most {MAX_INT_EXTREMAL_D}"
        )
    if D == 1:
        cert = order_bound_int(1, 1, 2)
        return ExtremalInstance(
            ring="int", triple=(1, 1, 2), D=1, claimed_min=1, certificate=cert, degenerate=True
        )
    p = largest_prime_at_most(FLOOR_EXP[D - 1])
    g = smallest_primitive_root(p)
    n0 = (-pow(g + 1, -1, p)) % p
    if 2 * n0 + 1 >= p:
        triple = (n0, n0 + 1, p)
    else:
        triple = (p - n0 - 1, p - n0, p)
    return ExtremalInstance(
        ring="int", triple=triple, D=D, claimed_min=p - 1,
        certificate=OrderBoundCertificate(triple, p - 1, p - 1, True),
    )


def check_criteria_int(coeffs: Sequence[int]) -> bool:
    """Absolute value criteria over Z: triangle at infinity, unit complementary gcds."""
    if any(c == 0 for c in coeffs):
        return False
    total = sum(abs(c) for c in coeffs)
    if any(2 * abs(c) > total for c in coeffs):
        return False
    return complementary_gcds_are_one(coeffs)


def verify_extremal(inst: ExtremalInstance) -> bool:
    """Recheck an extremal instance from its triple alone.

    order, group_order, generator_flag and claimed_min must match the bound
    recomputed from the triple, and the order must be q^D - 1 over F_q[t],
    so D below 1 or above deg c fails before q^D is formed, and p - 1 over
    Z, where c must be the prime p the construction takes for D, so D must
    lie in 1..MAX_INT_EXTREMAL_D. Only the integer triple (1, 1, 2) is
    degenerate.
    """
    a, b, c = inst.triple
    if inst.ring == "fqt":
        cert = order_bound_fqt(a, b, c)
        triple = CoeffTuple.make(a.field, (a, b, c))
        if not check_criteria(triple).passes:
            return False
        if not 1 <= inst.D <= c.degree:  # every order is at most q^deg(c) - 1 < q^D - 1
            return False
        expected = a.field.q**inst.D - 1
    elif inst.ring == "int":
        if not 1 <= inst.D <= MAX_INT_EXTREMAL_D:
            return False
        if c != largest_prime_at_most(FLOOR_EXP[inst.D - 1]):
            return False
        cert = order_bound_int(a, b, c)
        if not inst.degenerate and not check_criteria_int(inst.triple):
            return False
        expected = c - 1
    else:
        raise ValueError(f"unknown ring {inst.ring!r}")
    if inst.degenerate != (inst.ring == "int" and inst.triple == (1, 1, 2)):
        return False
    if cert.order != inst.certificate.order or cert.order != inst.claimed_min:
        return False
    if cert.group_order != inst.certificate.group_order or cert.order != expected:
        return False
    return cert.generator_flag == inst.certificate.generator_flag


def int_solution_box(coeffs: Sequence[int], radius: int, budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All integer solutions of sum(c_i x_i) = 0 with every |x_i| <= radius."""
    n = len(coeffs)
    if n < 2:
        raise ValueError("need at least two coefficients")
    if any(c == 0 for c in coeffs):
        raise ValueError("coefficients must be nonzero")
    side = 2 * radius + 1
    candidates = side ** (n - 1)
    if candidates > budget:
        raise BudgetExceededError(
            f"box search needs {candidates} candidates, budget is {budget}",
            required=candidates,
        )
    last = coeffs[-1]
    sols = []
    for head in itertools.product(range(-radius, radius + 1), repeat=n - 1):
        s = sum(c * x for c, x in zip(coeffs, head))
        z, r = divmod(-s, last)
        if r == 0 and -radius <= z <= radius:
            sols.append(head + (z,))
    return sols


def _submultiset_count(pool_size: int, size_bound: int, max_multiplicity: int) -> int:
    total = 0
    for s in range(1, size_bound + 1):
        if max_multiplicity == 1:
            total += math.comb(pool_size, s)
        else:
            for doubles in range(0, s // 2 + 1):
                singles = s - 2 * doubles
                total += math.comb(pool_size, doubles) * math.comb(pool_size - doubles, singles)
    return total


def _candidate_indices(pool_size: int, s: int, max_multiplicity: int):
    if max_multiplicity == 1:
        yield from itertools.combinations(range(pool_size), s)
        return
    for combo in itertools.combinations_with_replacement(range(pool_size), s):
        counts = {}
        ok = True
        for i in combo:
            counts[i] = counts.get(i, 0) + 1
            if counts[i] > max_multiplicity:
                ok = False
                break
        if ok:
            yield combo


def min_balanced_search(
    a: Union[CoeffTuple, Sequence[int]],
    N: int,
    size_bound: int,
    max_multiplicity: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Optional[BalancedMultiset]:
    """Exhaustive search for the smallest balanced multiset up to size_bound.

    The pool is T_N minus the zero tuple for a polynomial tuple, or the
    radius-N solution box for an integer tuple. Sub-multisets are visited in
    (size, lexicographic) order with per-member multiplicity capped at
    max_multiplicity, so the first hit is minimal and deterministic. Returns
    None when no balanced sub-multiset exists within the bound; a negative N
    is a ValueError.
    """
    if max_multiplicity not in (1, 2):
        raise ValueError("max_multiplicity must be 1 or 2")
    if N < 0:
        raise ValueError(f"N must be nonnegative, got {N}")
    if isinstance(a, CoeffTuple):
        coeffs = a.coeffs
        pool = _solution_pool(a, N, budget)
    else:
        coeffs = tuple(a)
        pool = int_solution_box(coeffs, N, budget)
    pool = [m for m in pool if any(bool(v) for v in m)]
    needed = _submultiset_count(len(pool), min(size_bound, len(pool) * max_multiplicity), max_multiplicity)
    if needed > budget:
        raise BudgetExceededError(
            f"sub-multiset search needs {needed} candidates, budget is {budget}",
            required=needed,
        )
    top = min(size_bound, len(pool) * max_multiplicity)
    for s in range(1, top + 1):
        for combo in _candidate_indices(len(pool), s, max_multiplicity):
            members = [pool[i] for i in combo]
            if _balanced(list(zip(*members))) is not None:
                return BalancedMultiset.make(coeffs, members)
    return None
