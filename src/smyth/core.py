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
  (x_i) -> sum(a_i x_i), with d the height: the syzygies of degree < N.
  Its basis is the shifts t^j * s, j < N - deg s, of one minimal syzygy
  basis, from one kernel_basis over F_q on the n(d + 1) columns a_i * t^k,
  k <= d. dim T_N, the zero fibers and the fiber counts are read off such
  bases, of the tuple and its sub-tuples, so no elimination grows with N.
  Enumeration works on whole columns held in one int of byte-aligned
  slots, one slot per row and coordinate, each value's digits w bits apart
  (w = 1 for q = 2, else the least power of two above bit_length(q)).
  Each basis vector multiplies the rows by q with one digit-wise add mod q
  over every slot at once: XOR for q = 2, a SWAR add with one conditional
  subtract of q per digit otherwise. Whole-int steps turn the slots into
  V_N indices, the relation of every row is checked with one Kronecker
  product per coefficient, and the rows are ranked by bytes.translate and
  sorted as packed 64-bit keys, so that no step runs once per row in
  Python until the rows are built.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import operator
import sys
from array import array
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


@contextlib.contextmanager
def cycle_collection_paused():
    """Pause the cycle collector around work that builds no reference cycles.

    Certify (balanced_multiset, multiset_doc, canonical_json), JSON decoding
    and verification allocate containers in bulk, one or more per row, and
    each collector pass would traverse all of them for nothing: about a
    third of the time on a document of 10^5 rows. Pauses nest, and the
    outermost one resumes collection, so a caller that drops a decoded
    document inside its pause spares the collector a pass over it. Also a
    decorator.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


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
    # an odd-q digit holds a sum of two residues plus the bias 2^(w-1) - q;
    # a power of two, so that no digit straddles a byte and the digits of a
    # slot pair up evenly
    return 1 if q == 2 else 1 << q.bit_length().bit_length()


@functools.cache
def _digit_table(w: int, shift: int) -> bytes:
    """The translate table from a byte to its w-bit digit at bit shift."""
    return bytes(b >> shift & (1 << w) - 1 for b in range(256))


def _pack(digits: Sequence[int], w: int) -> int:
    """Digits, least significant first, as one int of w-bit fields."""
    acc = 0
    for d in reversed(digits):
        acc = acc << w | d
    return acc


def _repeat(pattern: int, size: int, count: int) -> int:
    """count slots of size bytes, each holding pattern."""
    return int.from_bytes(pattern.to_bytes(size, "little") * count, "little")


_WORD_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _word_size(count: int) -> int:
    """Bytes of the smallest array word, 1, 2, 4 or 8, that holds 0, ..., count - 1."""
    size = 1
    while count > 1 << 8 * size:
        size *= 2
    return size


def _words(raw: bytes, stride: int, offset: int, size: int):
    """The size-byte little-endian words at offset in each stride-byte
    record of raw: bytes when size is 1, else an array."""
    if size == 1:
        return raw[offset::stride]
    if stride != size:
        buf = bytearray(len(raw) // stride * size)
        for j in range(size):
            buf[j::size] = raw[offset + j::stride]
        raw = buf
    words = array(_WORD_CODES[size], raw)
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _word_bytes(words) -> bytes:
    """Words from _words, bytes or an array, as little-endian bytes."""
    if type(words) is bytes:
        return words
    if sys.byteorder == "big":
        words = array(words.typecode, words)
        words.byteswap()
    return words.tobytes()


def _sorted_columns(columns: Sequence, size: int) -> list:
    """Columns of size-byte words with their rows put in lexicographic
    order. Up to 8 bytes a row, each row is one 64-bit key of its words,
    the first column most significant; wider rows sort as tuples."""
    n = len(columns)
    if n * size > 8:
        return list(zip(*sorted(zip(*columns)))) or [()] * n
    keys = bytearray(8 * len(columns[0]))
    for i, col in enumerate(columns):
        raw = _word_bytes(col)
        for j in range(size):
            keys[(n - 1 - i) * size + j::8] = raw[j::size]
    keys = _words(keys, 8, 0, 8)
    raw = _word_bytes(array("Q", sorted(keys)))
    return [_words(raw, 8, (n - 1 - i) * size, size) for i in range(n)]


def _slot_adder(q: int, w: int, ones: int):
    """Digit-wise addition mod q of ints whose w-bit digits have their low
    bits where ones has its bits.

    XOR for q = 2. For odd q the digits of x + y lie in [0, 2q - 2]; adding
    2^(w-1) - q sets a digit's top bit exactly when it is >= q, and q is
    subtracted from those digits. No step carries across a digit boundary.
    """
    if q == 2:
        return operator.xor
    bias = ones * ((1 << (w - 1)) - q)
    top = ones << (w - 1)

    def add(x: int, y: int) -> int:
        s = x + y
        return s - (((s + bias) & top) >> (w - 1)) * q

    return add


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


def _syzygy_basis(coeffs: Sequence[Poly]) -> list[tuple[int, list[list[int]]]]:
    """A minimal basis of the syzygies x of coeffs, sum(c_i x_i) = 0, which
    need not be coprime: per generator its degree k and the coefficients of
    each coordinate, lowest first, at most k + 1 of them.

    kernel_basis runs once, on the columns c_i * t^k for k <= d (d the
    largest degree), column k * n + i; its vector for free column (k, i)
    ends there, a syzygy of degree k. t times the columns before a column
    come before t times it, so the free columns are closed under shifts,
    and the generators are the free (k, i) with k = 0 or (k - 1, i) a pivot.
    Their last coordinates of top degree differ, so the basis has the
    predictable degree property (Forney, SIAM J. Control 1975): the shifts
    t^j * s, j < N - deg s, are a basis of the syzygies in V_N^n.
    """
    n, q = len(coeffs), coeffs[0].field.q
    d = max(c.degree for c in coeffs)
    # entry (r, k * n + i) is coefficient r - k of c_i
    padded = [(0,) * d + c.coeffs + (0,) * (2 * d + 1 - len(c.coeffs)) for c in coeffs]
    vectors = kernel_basis([[c[d + r - k] for k in range(d + 1) for c in padded]
                            for r in range(2 * d + 1)], q)
    ends = [max(itertools.compress(range(len(v)), v)) for v in vectors]
    free = set(ends)
    return [(f // n, [v[i:f + 1:n] for i in range(n)])
            for v, f in zip(vectors, ends) if f < n or f - n not in free]


def _dimension(coeffs: Sequence[Poly], N: int) -> int:
    """dim over F_q of the syzygies of coeffs in V_N^n."""
    return sum(max(N - k, 0) for k, _ in _syzygy_basis(coeffs))


@dataclass(frozen=True, slots=True)
class _Packed:
    """T_N as one int of count rows of n slots, each slot size bytes.

    The slot at byte (r * n + i) * size holds x_(i+1) of row r as N digits
    of w bits, coefficient k at bit k * w, so coordinate i is the strided
    column of every n-th slot from slot i. Row sum_j d_j * q^j is the sum
    of d_j times kernel basis vector j, so row 0 is the zero tuple.
    """

    q: int
    N: int
    n: int
    w: int
    size: int
    count: int
    rows: int

    def repeat(self, pattern: int) -> int:
        """pattern in every slot."""
        return _repeat(pattern, self.size, self.count * self.n)

    def columns(self, x: int, size: int) -> list:
        """Per coordinate, the low size bytes of x's slots as words."""
        stride = self.n * self.size
        raw = x.to_bytes(self.count * stride, "little")
        return [_words(raw, stride, i * self.size, size) for i in range(self.n)]


def _kernel_columns(a: CoeffTuple, N: int, budget: int) -> _Packed:
    """T_N, the kernel of x -> sum(a_i x_i) on V_N^n, in slots.

    Each shift of the minimal syzygy basis brings q - 1 copies of the rows
    so far, each added slot by slot to one multiple of the shift, so one
    SWAR add covers every slot of a copy.
    """
    q, n = a.field.q, a.n
    _refuse_past_budget("enumeration", q, N * (n - 1), budget)
    w = _digit_width(q)
    size = _word_size(1 << N * w)
    # the adder on one row makes the multiples 2v, ..., (q - 1)v of a row v
    ones = _repeat(_pack([1] * N, w), size, n)
    add_row = _slot_adder(q, w, ones)
    rows, count = 0, 1
    for k, s in _syzygy_basis(a.coeffs):
        # the multiples of s; those of t^j * s are the same j digits up
        multiples = [sum(_pack(x, w) << 8 * size * i for i, x in enumerate(s))]
        for _ in range(q - 2):
            multiples.append(add_row(multiples[-1], multiples[0]))
        for j in range(N - k):
            spread = _repeat(1, n * size, count)
            add = _slot_adder(q, w, ones * spread)
            shift = 8 * n * size * count
            rows += sum(add(rows, multiple * spread << j * w) << shift * c
                        for c, multiple in enumerate(multiples, 1))
            count *= q
    return _Packed(q, N, n, w, size, count, rows)


def _index_columns(p: _Packed) -> tuple[list, int]:
    """Each coordinate as the V_N indices of its slots, in row order, and
    the bytes of one index word.

    At q = 2 a slot's bits are its index. Otherwise neighbouring fields
    merge pairwise: with s digits a field, field g becomes field 2g plus
    q^s times field 2g + 1, a base-q number in 2s digits, until one field
    holds all N digits. A field of s digits has w * s > s * log2(q) bits,
    so the merged value fits where the pair stood, and as w and the slot
    are powers of two, no field reaches past its slot.
    """
    q, x = p.q, p.rows
    span, fields = 1, p.N
    while q > 2 and fields > 1:
        width = p.w * span
        field = (1 << width) - 1
        every = _pack([field] * fields, width)
        even = _pack([field] * ((fields + 1) // 2), 2 * width)
        x = (x & p.repeat(every & even)) + (x >> width & p.repeat(every >> width & even)) * q ** span
        span, fields = 2 * span, (fields + 1) // 2
    size = _word_size(q ** p.N)
    return p.columns(x, size), size


def _kronecker(p: Poly, size: int) -> int:
    """p's coefficients as the size-byte digits of one int."""
    return int.from_bytes(b"".join(x.to_bytes(size, "little") for x in p.coeffs), "little")


def _relations_hold(coeffs: Sequence[Poly], p: _Packed) -> bool:
    """Whether every row of p meets sum(c_i x_i) = 0, all rows at once.

    The digits of coordinate i, each a byte column of the slots read
    through a translate table (or copied, for whole-byte digits), are laid
    into lanes of lc + N - 1 digits of dsize bytes, one lane a row (lc the
    longest coefficient), so that one product with c_i, packed in the same
    digits, holds c_i * x_i of every row in its lane. The digits of the sum
    of those products are the integer coefficients of the row sums, and
    _row_relations' digit test reads off whether all of them are 0 mod q.
    """
    q, N, w = p.q, p.N, p.w
    lc = max(len(c.coeffs) for c in coeffs)
    # every coefficient of a row sum is below 2^h, and q * 2^h fits a digit
    h = (len(coeffs) * min(lc, N) * (q - 1) ** 2).bit_length()
    dsize = (h + q.bit_length() + 7) // 8
    lane = (lc + N - 1) * dsize
    lanes = [bytearray(p.count * lane) for _ in coeffs]
    stride = p.n * p.size
    raw = p.rows.to_bytes(p.count * stride, "little")
    for k in range(N):
        byte, shift = divmod(k * w, 8)
        for i, col in enumerate(lanes):
            for j in range(max(1, w // 8)):
                words = raw[i * p.size + byte + j::stride]
                col[k * dsize + j::lane] = words.translate(_digit_table(w, shift)) if w < 8 else words
    total = sum(_kronecker(c, dsize) * int.from_bytes(col, "little")
                for c, col in zip(coeffs, lanes))
    high = _repeat((1 << 8 * dsize) - (1 << h), dsize, p.count * (lc + N - 1))
    quotient, rest = divmod(total, q)
    return not rest and not quotient & high


def solution_dimensions(a: CoeffTuple, N: int, budget: int = DEFAULT_BUDGET) -> tuple[int, list[int]]:
    """dim T_N over F_q and, per coordinate i, the dimension of T_N ∩ {x_i = 0},
    the syzygies in V_N^(n-1) of the tuple without a_i, each read off a
    minimal syzygy basis. Refused as enumerate_solutions refuses."""
    _check_N(a, N)
    _refuse_past_budget("enumeration", a.field.q, N * (a.n - 1), budget)
    c = a.coeffs
    return _dimension(c, N), [_dimension(c[:i] + c[i + 1:], N) for i in range(a.n)]


def _check_N(a: CoeffTuple, N: int) -> None:
    if N < 1 or N < a.height:
        raise ValueError(f"N must be >= the height {a.height} and >= 1, got {N}")


def _solution_pool(a: CoeffTuple, N: int, budget: int) -> list[tuple[Poly, ...]]:
    columns = _sorted_columns(*_index_columns(_kernel_columns(a, N, budget)))
    vn = vn_elements(a.field, N)
    return list(zip(*(map(vn.__getitem__, col) for col in columns)))


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
    empty or a coset of the zero fiber. With g the gcd of the other
    coefficients and D their largest degree, their map from V_N^(n-1) is
    onto g * V_(N+D-deg g) once N >= the height, so the fiber is nonempty
    exactly when x = 0, or g divides a_j x and deg(a_j x) < N + D.
    """
    n = a.n
    if not 1 <= j <= n:
        raise ValueError(f"coordinate j must be in 1..{n}, got {j}")
    _check_N(a, N)
    if x.degree >= N:
        raise ValueError(f"{x} is outside V_{N}")
    _refuse_past_budget("fiber count", a.field.q, N * (n - 2), budget)
    others = a.coeffs[:j - 1] + a.coeffs[j:]
    image = a.coeffs[j - 1] * x
    if image and (image % many_gcd(others) or image.degree >= N + max(c.degree for c in others)):
        return 0
    return a.field.q ** _dimension(others, N)


def sort_key_of(value):
    """Deterministic ordering key for solution entries of any ring."""
    key = getattr(value, "sort_key", None)
    return key if key is not None else value


def _balanced(columns: Sequence[Sequence]) -> Optional[Counter]:
    """The Counter every column shares, or None when two columns differ;
    columns[i][k] is row k's entry in coordinate i, any hashable."""
    first = Counter(columns[0])
    # every count is positive, so dict equality is Counter equality without
    # the Counter method's Python-level loop over the keys
    return first if all(dict.__eq__(Counter(col), first) for col in columns[1:]) else None


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
    the rows as tuples of entries, and columns, the rows column by column,
    are derived on first use and cached; balanced_multiset hands over the
    columns it sorted.
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

    @functools.cached_property
    def columns(self) -> tuple:
        """Coordinate i of every row, in the order of rows, as columns[i]."""
        return tuple(zip(*self.rows)) or ((),) * self.n

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


@cycle_collection_paused()
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
    packed = _kernel_columns(a, N, budget)
    indices, size = _index_columns(packed)
    # every row meets the relation, checked apart from the elimination that
    # produced the row; the row check names the first failing row in
    # lexicographic order
    if not _relations_hold(a.coeffs, packed):
        ordered = _sorted_columns(indices, size)
        _require_relations(a.coeffs, vn_elements(a.field, N), [col[1:] for col in ordered])
    columns = [col[1:] for col in indices]  # drop the zero tuple, row 0
    used = _balanced(columns)
    if used is None:
        raise ValueError("coordinate value multisets differ: not balanced")
    values = {k: poly_from_index(a.field, k) for k in used}
    order = sorted(values, key=lambda k: values[k].sort_key)
    columns = _sorted_columns(_ranked(columns, size, order), _word_size(len(order)))
    b = BalancedMultiset(a.coeffs, tuple(map(values.__getitem__, order)), tuple(zip(*columns)))
    object.__setattr__(b, "columns", tuple(columns))
    return b


def _ranked(columns: Sequence, size: int, order: Sequence[int]) -> list:
    """Columns of size-byte index words with index order[r] replaced by r,
    in words of _word_size(len(order)) bytes: one translate a column for
    one-byte indices, a table lookup an entry otherwise."""
    rank = [0] * (256 if size == 1 else max(order, default=0) + 1)
    for r, k in enumerate(order):
        rank[k] = r
    if size == 1:
        table = bytes(rank)
        return [col.translate(table) for col in columns]
    code = _WORD_CODES[_word_size(len(order))]
    return [array(code, map(rank.__getitem__, col)) for col in columns]


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
    columns = b.columns
    last = columns[-1]
    identity = tuple(range(len(b.rows)))  # each row is its own first free slot
    last_slots: list[list[int]] = [[] for _ in b.values]
    for k, v in zip(identity, last):
        last_slots[v].append(k)
    # balance gives each value as many rows in coordinate i as slots; the
    # rows are sorted, so coordinate 1 takes the values in ascending order
    # and its matching is the slot lists laid end to end
    perms = [tuple(itertools.chain.from_iterable(last_slots))][:b.n - 1]
    for col in columns[1:-1]:
        avail = [iter(slots) for slots in last_slots]
        perms.append(tuple([next(avail[v]) for v in col]))
    perms.append(identity)
    kernel = tuple(map(b.values.__getitem__, last))
    return PermutationCertificate(m=len(identity), perms=tuple(perms), kernel=kernel)


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
        vs = [_kronecker(v, size) if n else 0 for v, n in zip(values, lens)]
        tables = [[k * v for v in vs] for k in (_kronecker(c, size) for c in coeffs)]
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
