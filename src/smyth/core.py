"""The Smyth-tuple engine over F_q(t).

A coefficient tuple (a_1, ..., a_n) of nonzero polynomials is tested against
two absolute value criteria: at the place at infinity the maximum degree must
be attained by at least two coordinates, and at the finite places every
complementary gcd g_i = gcd_{j != i}(a_j) must be a unit. Tuples passing both
admit balanced multisets of solutions to sum(a_i x_i) = 0, which convert to
permutation certificates: permutations X_1, ..., X_n with X_n = I and an
explicit nonzero kernel vector v of sum(a_i X_i).

Conventions used throughout:

* V_N is the set of polynomials of degree < N, enumerated in base-q counting
  order (element k has the base-q digits of k as ascending coefficients).
* A solution tuple is a plain tuple of ring elements. The multiset machinery
  is generic: it only needs +, *, truth testing, and hashability, so the same
  code validates balanced multisets over F_q[t], Z, and the number-field
  rings layered on top.
* A permutation p_i is stored as the tuple of 0-based images with the
  defining property (X_i v)[k] = v[p_i[k]]; the certificate contract is
  sum_i a_i * v[p_i[k]] = 0 for every row k, with p_n the identity.
* T_N is the kernel of the F_q-linear map V_N^n -> V_{N+d},
  (x_i) -> sum(a_i x_i), with d the height. Enumeration takes a kernel
  basis by kernel_basis over F_q and works on packed rows: a row is one
  int of nN digits, w bits each (w = 1 for q = 2, else bit_length(q) + 1),
  and coefficient k of x_i is digit (n - i) * N + k (1-based i), so x_1
  holds the most significant digits and integer order is the lexicographic
  order of the value indices. Rows are added digit-wise mod q: XOR for
  q = 2, a SWAR add with one conditional subtract of q per digit otherwise.
"""
from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .algebra import FieldParams, Poly, kernel_basis, many_gcd, poly_from_index
from .errors import (
    BudgetExceededError,
    NotSmythTupleError,
    NoRelationError,
    RelationViolationError,
    TupleArityError,
)

DEFAULT_BUDGET = 1 << 24


def vn_elements(field: FieldParams, N: int) -> list[Poly]:
    """V_N, all q^N polynomials of degree < N, in canonical order."""
    return [poly_from_index(field, k) for k in range(field.q**N)]


@dataclass(frozen=True, slots=True)
class CoeffTuple:
    """A coprime tuple of n >= 3 nonzero polynomials over a common field."""

    field: FieldParams
    coeffs: tuple[Poly, ...]

    @classmethod
    def make(cls, field: FieldParams, coeffs) -> "CoeffTuple":
        polys = tuple(field.poly(c) for c in coeffs)
        cls.refuse_malformed(polys)
        g = many_gcd(polys)
        if not g.is_one:
            polys = tuple(p // g for p in polys)
        return cls(field, polys)

    @staticmethod
    def refuse_malformed(polys: Sequence[Poly]) -> None:
        """Raise as make does for a pair, fewer than 3 coefficients or a zero one."""
        if len(polys) == 2:
            raise TupleArityError(
                "pairs are out of scope: a pair is degenerate and is decided "
                "by a_1 = unit * a_2, not by the criteria"
            )
        if len(polys) < 3:
            raise TupleArityError("need at least 3 coefficients")
        for i, p in enumerate(polys):
            if p.is_zero:
                raise ValueError(f"coefficient {i + 1} is zero")

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def height(self) -> int:
        """Max degree across the coefficients."""
        return int(max(p.degree for p in self.coeffs))

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.coeffs) + ")"


@dataclass(frozen=True, slots=True)
class CriteriaReport:
    """Outcome of the absolute value criteria.

    witness_index is the offending coordinate (0-based) when a check fails:
    for the infinite place, the unique coordinate of maximal degree; for the
    finite places, the coordinate whose complementary gcd is the nonunit
    witness_divisor.
    """

    passes: bool
    infinite_place_ok: bool
    finite_places_ok: bool
    witness_index: Optional[int] = None
    witness_divisor: Optional[Poly] = None


def check_criteria(a: CoeffTuple) -> CriteriaReport:
    """Decide the Smyth-tuple criteria place by place."""
    degrees = [p.degree for p in a.coeffs]
    dmax = max(degrees)
    attained = [i for i, d in enumerate(degrees) if d == dmax]
    inf_ok = len(attained) >= 2

    fin_ok = True
    w_index = None
    w_div = None
    for i in range(a.n):
        others = [a.coeffs[j] for j in range(a.n) if j != i]
        g = many_gcd(others)
        if not g.is_one:
            fin_ok = False
            w_index = i
            w_div = g
            break
    if not inf_ok:
        return CriteriaReport(False, False, fin_ok, attained[0], w_div)
    if not fin_ok:
        return CriteriaReport(False, True, False, w_index, w_div)
    return CriteriaReport(True, True, True)


def _digit_width(q: int) -> int:
    # an odd-q digit holds a sum of two residues plus the bias 2^(w-1) - q
    return 1 if q == 2 else q.bit_length() + 1


def _pack(digits: Sequence[int], w: int) -> int:
    """Digits, least significant first, as one int of w-bit fields."""
    acc = 0
    for d in reversed(digits):
        acc = acc << w | d
    return acc


def _digit_adder(q: int, ndigits: int):
    """Digit-wise addition mod q of packed vectors of at most ndigits digits.

    XOR for q = 2. For odd q the digits of x + y lie in [0, 2q - 2]; adding
    2^(w-1) - q sets a digit's top bit exactly when it is >= q, and q is
    subtracted from those digits. No step carries across a digit boundary.
    """
    if q == 2:
        return operator.xor
    w = _digit_width(q)
    ones = _pack([1] * ndigits, w)
    bias = ones * ((1 << (w - 1)) - q)
    top = ones << (w - 1)

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + bias) & top) >> (w - 1)) * q

    return add


def _combinations(add, generators: Sequence[Sequence[int]]) -> list[int]:
    """All q^k sums of d_j * g_j over j < k, each d_j in F_q, packed.

    generators[j] lists the packed multiples 1*g_j, ..., (q-1)*g_j. The sum
    with coefficients (d_j) sits at index sum_j d_j * q^j.
    """
    sums = [0]
    for multiples in generators:
        sums += [add(s, b) for b in multiples for s in sums]
    return sums


def _shifted(p: Poly, k: int) -> Poly:
    """t^k * p for nonzero p."""
    return Poly(p.field, (0,) * k + p.coeffs)


def _column_kernel(columns: Sequence[Poly], length: int, q: int) -> list[list[int]]:
    """kernel_basis over F_q of the matrix whose columns are the coefficient
    vectors (length entries each) of the given polynomials."""
    return kernel_basis([[c.coeffs[r] if r < len(c.coeffs) else 0 for c in columns]
                         for r in range(length)], q)


def _refuse_past_budget(what: str, q: int, e: int, budget: int) -> None:
    """Raise BudgetExceededError when the q^e candidates of what exceed the
    budget; e >= budget.bit_length() is refused before q^e is formed. A count
    past the 4,300 digits Python prints by default is named as q^e."""
    # q^e >= 2^14286 > 10^4300 once e * (q.bit_length() - 1) >= 14286
    if e < budget.bit_length() or e * (q.bit_length() - 1) < 14286:
        count = q ** e
        if count <= budget:
            return
        if count < 10 ** 4300:
            raise BudgetExceededError(f"{what} needs {count} candidates, budget is {budget}",
                                      required=count)
    raise BudgetExceededError(f"{what} needs {q}^{e} candidates, budget is {budget}")


def _relation_columns(a: CoeffTuple, N: int, budget: int) -> list[Poly]:
    """The nN columns of x -> sum(a_i x_i) on V_N^n, once the q^(N(n-1))
    candidates of an enumeration fit the budget: column (n - i) * N + k
    (1-based i) is a_i * t^k, the digit order of a packed row."""
    n = a.n
    _refuse_past_budget("enumeration", a.field.q, N * (n - 1), budget)
    return [_shifted(a.coeffs[n - 1 - p // N], p % N) for p in range(n * N)]


def _kernel_indices(a: CoeffTuple, N: int, budget: int) -> tuple[list[Poly], list[list[int]]]:
    """T_N as V_N and, per coordinate, the V_N index of every row's value.

    Rows run in lexicographic order of their value indices, the zero tuple
    first. T_N is the kernel of x -> sum(a_i x_i) on V_N^n; each kernel
    vector is a packed row, and the q^k rows are the sums of multiples of
    the k basis vectors.
    """
    field, q, n = a.field, a.field.q, a.n
    columns = _relation_columns(a, N, budget)
    w = _digit_width(q)
    # each basis vector is 1 at its free column and 0 at the others
    generators = [[_pack([c * x % q for x in v], w) for c in range(1, q)]
                  for v in _column_kernel(columns, N + a.height, q)]
    rows = _combinations(_digit_adder(q, n * N), generators)
    rows.sort()
    vn = vn_elements(field, N)
    index_of = {_pack(x.coeffs, w): k for k, x in enumerate(vn)}
    mask = (1 << (w * N)) - 1
    return vn, [[index_of[(r >> (w * N * (n - 1 - i))) & mask] for r in rows]
                for i in range(n)]


def solution_dimensions(a: CoeffTuple, N: int, budget: int = DEFAULT_BUDGET) -> tuple[int, list[int]]:
    """dim T_N over F_q and, per coordinate i, the dimension of T_N ∩ {x_i = 0}:
    kernel dimensions of the relation's columns, without coordinate i's N
    columns for the second. Refused as enumerate_solutions refuses."""
    _check_N(a, N)
    columns = _relation_columns(a, N, budget)
    q, n, length = a.field.q, a.n, N + a.height
    return len(_column_kernel(columns, length, q)), [
        len(_column_kernel(columns[:(n - 1 - i) * N] + columns[(n - i) * N:], length, q))
        for i in range(n)]


def _check_N(a: CoeffTuple, N: int) -> None:
    if N < 1 or N < a.height:
        raise ValueError(f"N must be >= the height {a.height} and >= 1, got {N}")


def _solution_pool(a: CoeffTuple, N: int, budget: int) -> list[tuple[Poly, ...]]:
    vn, coords = _kernel_indices(a, N, budget)
    return list(zip(*([vn[k] for k in idx] for idx in coords)))


def enumerate_solutions(a: CoeffTuple, N: int, budget: int = DEFAULT_BUDGET) -> list[tuple[Poly, ...]]:
    """The set T_N of solutions to sum(a_i x_i) = 0 within V_N^n.

    Returned in lexicographic order of the free coordinates. When the
    criteria pass, |T_N| = q^(N(n-1)-d) with d the height.
    """
    _check_N(a, N)
    return _solution_pool(a, N, budget)


def fiber_count(a: CoeffTuple, N: int, j: int, x: Poly, budget: int = DEFAULT_BUDGET) -> int:
    """Number of solutions in T_N whose j-th coordinate (1-based) equals x.

    Independent of j and x when the criteria pass, where it equals
    q^(N(n-2)-d). The fiber solves sum_{i != j} a_i x_i = -a_j x, so it is
    empty when the column a_j x is a pivot column after the others, and
    otherwise has q^(number of free columns among the others) elements.
    """
    q = a.field.q
    n = a.n
    if not 1 <= j <= n:
        raise ValueError(f"coordinate j must be in 1..{n}, got {j}")
    _check_N(a, N)
    if x.degree >= N:
        raise ValueError(f"{x} is outside V_{N}")
    _refuse_past_budget("fiber count", q, N * (n - 2), budget)
    columns = [_shifted(a.coeffs[i], k) for i in range(n) if i != j - 1 for k in range(N)]
    columns.append(a.coeffs[j - 1] * x)
    # the last column is free exactly when the last basis vector, whose
    # last nonzero entry sits at its free column, is nonzero there
    basis = _column_kernel(columns, N + a.height, q)
    if not basis or not basis[-1][-1]:
        return 0
    return q ** (len(basis) - 1)


def sort_key_of(value):
    """Deterministic ordering key for solution entries of any ring."""
    key = getattr(value, "sort_key", None)
    return key if key is not None else value


def _balanced(columns: Sequence[Sequence]) -> Optional[Counter]:
    """The Counter every column shares, or None when two columns differ;
    columns[i][k] is row k's entry in coordinate i, any hashable."""
    first = Counter(columns[0])
    return first if all(Counter(col) == first for col in columns[1:]) else None


def _require_relations(coeffs: Sequence, values: Sequence, columns: Sequence[Sequence[int]]) -> None:
    """Raise RelationViolationError naming the first row whose relation fails."""
    for k, s in enumerate(_row_relations(coeffs, values, columns)):
        if s:
            member = tuple(values[col[k]] for col in columns)
            raise RelationViolationError(
                f"member {tuple(str(v) for v in member)} violates the linear relation",
                member=member)


@dataclass(frozen=True)
class BalancedMultiset:
    """A nonempty multiset of nonzero solution tuples, balanced by coordinate.

    Held as a value table and index rows. values lists the distinct entries
    in sort_key order; each row is one member as a tuple of indices into
    values, and rows is sorted, with multiplicity. Index order is sort_key
    order, so the rows run in the lexicographic order of their entries'
    sort keys, and two equal multisets compare equal structurally. members,
    the rows as tuples of entries, is derived on first use and cached.
    """

    coeffs: tuple
    values: tuple
    rows: tuple

    @classmethod
    def make(cls, coeffs, members) -> "BalancedMultiset":
        coeffs = tuple(coeffs)
        members = [tuple(m) for m in members]
        values = tuple(sorted(set(itertools.chain.from_iterable(members)), key=sort_key_of))
        index = dict(zip(values, range(len(values))))
        rows = sorted(tuple(map(index.__getitem__, m)) for m in members)
        if not rows:
            raise ValueError("balanced multiset must be nonempty")
        b = cls(coeffs, values, tuple(rows))
        if not all(map(any, b.members)):
            raise ValueError("balanced multiset must not contain the zero tuple")
        # the first row of the wrong arity or violating its relation is named
        n = len(coeffs)
        arity = next((k for k, row in enumerate(rows) if len(row) != n), len(rows))
        columns = list(zip(*rows[:arity]))
        if columns:
            _require_relations(coeffs, values, columns)
        if arity < len(rows):
            m = b.members[arity]
            raise RelationViolationError(f"member {m} has arity {len(m)}, expected {n}", member=m)
        if _balanced(columns) is None:
            raise ValueError("coordinate value multisets differ: not balanced")
        return b

    @functools.cached_property
    def members(self) -> tuple:
        """The rows as tuples of entries, in the order of rows."""
        values = self.values
        return tuple(tuple(map(values.__getitem__, row)) for row in self.rows)

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.coeffs)


def _ranked_multiset(coeffs: tuple, values: Sequence, columns: Sequence[Sequence[int]],
                     used: Iterable[int]) -> BalancedMultiset:
    """The multiset whose members have column i given as indices into
    values, unchecked: the values in use, the distinct indices used, are
    re-indexed in sort_key order and the rows sorted, as
    BalancedMultiset.make orders them."""
    used = sorted(used, key=lambda k: sort_key_of(values[k]))
    rank = [0] * len(values)
    for r, k in enumerate(used):
        rank[k] = r
    rows = sorted(zip(*(map(rank.__getitem__, col) for col in columns)))
    return BalancedMultiset(coeffs, tuple(map(values.__getitem__, used)), tuple(rows))


def balanced_multiset(a: CoeffTuple, N: int, budget: int = DEFAULT_BUDGET) -> BalancedMultiset:
    """T_N with the zero tuple removed, verified balanced.

    Refuses tuples failing the criteria: a tuple admitting any balanced
    multiset necessarily satisfies both absolute value criteria, so the
    enumeration would be wasted work.
    """
    report = check_criteria(a)
    if not report.passes:
        raise NotSmythTupleError(
            f"{a} fails the absolute value criteria "
            f"(infinite place ok: {report.infinite_place_ok}, "
            f"finite places ok: {report.finite_places_ok}); "
            "no balanced multiset exists for such a tuple"
        )
    _check_N(a, N)
    vn, coords = _kernel_indices(a, N, budget)
    coords = [idx[1:] for idx in coords]  # drop the zero tuple, which sorts first
    # every row meets the relation, checked apart from the elimination that
    # produced the row
    _require_relations(a.coeffs, vn, coords)
    used = _balanced(coords)
    if used is None:
        raise ValueError("coordinate value multisets differ: not balanced")
    return _ranked_multiset(a.coeffs, vn, coords, used)


@dataclass(frozen=True)
class PermutationCertificate:
    """Permutations X_1..X_n (X_n = I) with kernel vector v of sum(a_i X_i).

    perms[i][k] is the 0-based row of the last coordinate matched to row k in
    coordinate i; the verification contract is sum_i a_i v[perms[i][k]] = 0
    for every k.
    """

    m: int
    perms: tuple[tuple[int, ...], ...]
    kernel: tuple


def certificate_from_balanced(a: CoeffTuple, b: BalancedMultiset) -> PermutationCertificate:
    """Convert a balanced multiset to a permutation certificate.

    Within each group of rows sharing a value, matching is in ascending row
    order, which makes the construction canonical and forces X_n = identity.
    """
    rows = b.rows
    m = len(rows)
    n = b.n
    last = [row[n - 1] for row in rows]
    identity = tuple(range(m))  # each row is its own first free slot
    last_slots: list[list[int]] = [[] for _ in b.values]
    for k, v in zip(identity, last):
        last_slots[v].append(k)
    # balance gives each value as many rows in coordinate i as slots; the
    # rows are sorted, so coordinate 1 takes the values in ascending order
    # and its matching is the slot lists laid end to end
    perms = []
    for i in range(n - 1):
        if i == 0:
            perms.append(tuple(itertools.chain.from_iterable(last_slots)))
            continue
        avail = [iter(slots) for slots in last_slots]
        perms.append(tuple([next(avail[row[i]]) for row in rows]))
    perms.append(identity)
    kernel = tuple(map(b.values.__getitem__, last))
    return PermutationCertificate(m=m, perms=tuple(perms), kernel=kernel)


def _validate_perms(perms: Sequence[Sequence[int]], m: int):
    # each length is compared with m before the set of 0..m-1 is built
    indices = None
    for i, p in enumerate(perms):
        if len(p) != m or set(p) != (indices := indices or set(range(m))):
            raise ValueError(f"malformed permutation at position {i + 1}: {tuple(p)}")


def verify_certificate(a, cert: PermutationCertificate) -> bool:
    """Recheck a certificate from scratch.

    a is a CoeffTuple or a plain coefficient tuple over any exact ring. The
    row relations are verified exactly by _row_relations. A nonzero kernel
    vector that satisfies them is itself the proof that sum(a_i X_i) is
    singular, so no determinant is computed. The kernel is indexed by
    value, so each distinct entry is multiplied, and budgeted, once.
    """
    coeffs = _certificate_coeffs(a, cert)
    return _certificate_holds(coeffs, *_kernel_by_value(cert.kernel), cert.perms)


def _kernel_by_value(kernel: Sequence) -> tuple[list, list[int]]:
    """The distinct values of a kernel vector, in order of first appearance,
    and each entry's index into them."""
    index: dict = {}
    kernel_idx = [index.setdefault(v, len(index)) for v in kernel]
    return list(index), kernel_idx


def _certificate_coeffs(a, cert: PermutationCertificate) -> tuple:
    """The coefficients of a, a CoeffTuple or a plain tuple, once cert is
    found to hold one permutation of range(cert.m) per coefficient and a
    kernel vector of length cert.m; ValueError otherwise."""
    coeffs = a.coeffs if isinstance(a, CoeffTuple) else tuple(a)
    if len(cert.perms) != len(coeffs):
        raise ValueError(f"certificate has {len(cert.perms)} permutations, "
                         f"tuple has arity {len(coeffs)}")
    if len(cert.kernel) != cert.m:
        raise ValueError("kernel vector length differs from certificate dimension")
    _validate_perms(cert.perms, cert.m)
    return coeffs


def _certificate_holds(coeffs: Sequence, values: Sequence, kernel_idx: Sequence[int],
                       perms: Sequence[Sequence[int]]) -> bool:
    """Whether the kernel vector v, v[j] = values[kernel_idx[j]], is nonzero,
    perms[-1] is the identity and sum_i c_i * v[p_i[k]] = 0 for every row k.

    perms must already be permutations of range(len(kernel_idx)), one per
    coefficient.
    """
    if (tuple(perms[-1]) != tuple(range(len(kernel_idx)))
            or not any(map(values.__getitem__, kernel_idx))):
        return False
    columns = [list(map(kernel_idx.__getitem__, p)) for p in perms[:-1]] + [kernel_idx]
    return not any(_row_relations(coeffs, values, columns))


def _row_relations(coeffs: Sequence, values: Sequence, columns: Sequence[Sequence[int]]) -> list:
    """One entry per row k, falsy exactly when sum_i c_i * values[columns[i][k]] = 0.

    Each product comes from one table per (coefficient, distinct value), so
    the ring multiplies only n * len(values) times. Polynomials over one
    field are multiplied as ints (Kronecker substitution): each is packed in
    byte-aligned digits wide enough that no product or row sum carries, so
    a packed row sum holds the integer coefficients of the row's sum, and
    the relation holds when all of them are 0 mod q. The digit products,
    sum len(c) * len(v) over coefficients c and the values v some row uses,
    are refused past DEFAULT_BUDGET. Other rings sum their products with +,
    and a row's sum is 0 exactly when its relation holds.
    """
    field = getattr(coeffs[0], "field", None)
    packed = all(type(p) is Poly and p.field == field for p in itertools.chain(coeffs, values))
    if packed:
        q = field.q
        lens = [len(v.coeffs) for v in values]
        width = sum(len(c.coeffs) for c in coeffs)
        cost = width * sum(lens)
        if cost > DEFAULT_BUDGET:
            # values no row uses, such as coefficients among a document's
            # entries, are not multiplied
            used = set().union(*columns)
            lens = [n if k in used else 0 for k, n in enumerate(lens)]
            cost = width * sum(lens)
        if cost > DEFAULT_BUDGET:
            raise BudgetExceededError(f"the row relations need {cost} digit products, "
                                      f"budget is {DEFAULT_BUDGET}", required=cost)
        lc = max(len(c.coeffs) for c in coeffs)
        lv = max(lens)
        # every coefficient of a row sum is below 2^h, and q * 2^h fits a digit
        h = (len(coeffs) * min(lc, lv) * (q - 1) ** 2).bit_length()
        size = (h + q.bit_length() + 7) // 8
        w = 8 * size

        def pack(p: Poly) -> int:
            return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in p.coeffs),
                                  "little")

        vs = [pack(v) if n else 0 for v, n in zip(values, lens)]
        tables = [[c * v for v in vs] for c in map(pack, coeffs)]
    else:
        tables = [[c * v for v in values] for c in coeffs]
    sums = None
    for table, col in zip(tables, columns):
        column = map(table.__getitem__, col)
        sums = list(column) if sums is None else list(map(operator.add, sums, column))
    if not packed:
        return sums
    # all digits of s are 0 mod q exactly when s = q * t with every digit of
    # t below 2^h: then q * t has no carry, so its digits are q times t's
    high = ((1 << w * (lc + lv - 1)) - 1) // ((1 << w) - 1) * ((1 << w) - (1 << h))
    return [s % q or (s // q) & high for s in sums]


def balanced_from_certificate(a, cert: PermutationCertificate) -> BalancedMultiset:
    """The balanced multiset of the nonzero rows X_i v of a certificate.

    a is a CoeffTuple or a plain coefficient tuple over any exact ring. The
    certificate is checked as verify_certificate checks it, on its kernel
    vector v indexed by value, and NoRelationError is raised when v is no
    nonzero kernel vector of sum(a_i X_i). Each coordinate of the rows is a
    permutation of v, so once the all-zero rows are dropped the rows are
    balanced. The certificate of a balanced multiset rebuilds that multiset.
    """
    coeffs = _certificate_coeffs(a, cert)
    values, kernel_idx = _kernel_by_value(cert.kernel)
    if not _certificate_holds(coeffs, values, kernel_idx, cert.perms):
        raise NoRelationError("the kernel vector does not witness a relation of "
                              "sum(a_i X_i) for these permutations")
    columns = [list(map(kernel_idx.__getitem__, p)) for p in cert.perms[:-1]] + [kernel_idx]
    zero = next((k for k, v in enumerate(values) if not v), None)
    if zero is not None:
        keep = [k for k, row in enumerate(zip(*columns)) if row.count(zero) < len(row)]
        columns = [list(map(col.__getitem__, keep)) for col in columns]
    return _ranked_multiset(coeffs, values, columns, set(columns[-1]))
