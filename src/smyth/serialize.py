"""JSON documents and CSV tables for certificates and reports.

Document kinds and what verify_doc re-checks for each, with no state beyond
the document itself:

  balanced,    n nonzero coeffs; n permutations of 1..m, the last the
  certificate  identity; a nonzero kernel_vector satisfying every row
               relation; when tuples are listed, that they are balanced
               solutions converting to exactly these permutations and kernel
  extremal     the order bound recomputed from the triple matches order,
               group_order, claimed_min and generator_flag, and q^D - 1
               over F_q[t]; over Z the modulus is the prime the
               construction takes for D and the order is p - 1;
               degenerate holds exactly for the integer triple (1, 1, 2)
  numfield     the permutations sum to matrix, which fixes the nonzero
               eigenvector with eigenvalue alpha; each distinct eigenvector
               text is parsed once, and the eigen identity is checked on
               the permutations and the integer coordinates (x, y) of the
               entries x + y*w, linear in the dimension; when present,
               dimension is len(matrix), strategy is as-given or
               sink-class, and covering_radius_squared is that of Z[alpha]

Singularity is never re-derived: the nonzero kernel vector or eigenvector a
document carries, checked against the defining equations, is its proof.
Informational fields are not checked, so edits to them go undetected: N and
the numfield radius_squared.
Integer fields are read strictly: a float, bool or string where a JSON
integer belongs is a ParseError. List fields are read as strictly: anything
but a JSON list where one belongs is a ParseError that names the field, and
tuples that are not a nonempty list of lists fail.

A balanced or certificate document is checked on value indices. Each
distinct entry text is parsed once, and every coefficient, kernel and tuple
entry becomes an index into the table of distinct values. Each permutation
is validated once, and core._row_relations, which certify also uses,
evaluates each row relation once on the kernel's indices: over F_q[t] each
product is one integer product of packed coefficients, wide enough that
nothing carries, and past DEFAULT_BUDGET digit products it raises
BudgetExceededError. tuples are checked by index against the certificate:
their rows are sorted as BalancedMultiset.make orders members, must be
balanced with no all-zero row, and must convert to exactly the stated
permutations and kernel. Row k then is the tuple of kernel entries the
permutations pick, so its relation is the one already proved and is not
evaluated again. The verdicts are those of the member-by-member check:
rows may come in any order, and two spellings of one polynomial are one
value.

Emission is canonical (sorted keys, fixed indentation, deterministic list
orders), so serialize -> parse -> serialize is byte-stable. canonical_json
writes the bytes of json.dumps(doc, sort_keys=True, indent=2) without its
pure-Python encoder. A list, or a list of rows, of entry texts that JSON
writes unchanged between quotes (each distinct text is checked once) or of
exact ints is laid out with one str.join per row, so no entry is encoded
one by one beyond an int's repr.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from typing import Iterable, Optional, Sequence

from . import bounds, numfield, quadratic
from .algebra import FieldParams, Poly, parse_poly
from .core import (
    BalancedMultiset,
    CoeffTuple,
    PermutationCertificate,
    _balanced,
    _certificate_holds,
    _ranked_multiset,
    certificate_from_balanced,
    cycle_collection_paused,
)
from .errors import NonUnitError, ParseError

VERIFIABLE_KINDS = ("balanced", "certificate", "extremal", "numfield")


_SCALARS = frozenset((str, int, float, bool, type(None)))
_LISTS = frozenset((list, tuple))
_INT = frozenset((int,))
_STR = frozenset((str,))

_SCALAR = json.JSONEncoder(allow_nan=False)


def _plain(texts: Iterable) -> bool:
    """Whether texts are all str that JSON writes unchanged between quotes;
    each distinct text is checked once, and an unhashable entry is not
    plain."""
    try:
        distinct = set(texts)
    except TypeError:
        return False
    return _STR.issuperset(map(type, distinct)) and all(
        len(json.encoder.encode_basestring_ascii(s)) == len(s) + 2 for s in distinct)


def _joined(value, rows: bool, quote: str, pad: str) -> str:
    """The layout of _indented for a list, or rows, of texts set in quote."""
    inner = pad + "  "
    if not rows:
        return f"[\n{inner}{quote}" + f"{quote},\n{inner}{quote}".join(value) + f"{quote}\n{pad}]"
    deeper = inner + "  "
    body = f"{quote}\n{inner}],\n{inner}[\n{deeper}{quote}".join(
        map(f"{quote},\n{deeper}{quote}".join, value))
    return f"[\n{inner}[\n{deeper}{quote}{body}{quote}\n{inner}]\n{pad}]"


def _indented(value, pad: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) lays it out at
    the nesting whose lines start with pad.

    A flat list, or a list of nonempty rows, of plain texts (str that JSON
    writes unchanged between quotes) or of exact ints is joined one row at
    a time: the texts as they stand, the quotes folded into the separators,
    and the ints as their repr. A scalar takes one call of the C encoder.
    Anything else, such as a list that mixes bool, float or None into its
    ints, goes through json.dumps itself.
    """
    if type(value) in _LISTS and value:
        rows = _LISTS.issuperset(map(type, value)) and all(value)
        first = type(value[0][0] if rows else value[0])
        if first is str and _plain(itertools.chain.from_iterable(value) if rows else value):
            return _joined(value, rows, '"', pad)
        if first is int and _INT.issuperset(
                map(type, itertools.chain.from_iterable(value) if rows else value)):
            return _joined([map(repr, row) for row in value] if rows else map(repr, value),
                           rows, "", pad)
    elif type(value) is dict and value and all(type(k) is str for k in value):
        inner = pad + "  "
        items = ",".join(f"\n{inner}{_SCALAR.encode(k)}: {_indented(value[k], inner)}"
                         for k in sorted(value))
        return f"{{{items}\n{pad}}}"
    elif type(value) in _SCALARS:
        return _SCALAR.encode(value)
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n" + pad)


@cycle_collection_paused()
def canonical_json(doc: dict) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) plus a newline;
    a NaN or infinite float, which JSON lacks, raises ValueError."""
    return _indented(doc, "") + "\n"


def parse_json(text: str) -> dict:
    try:
        with cycle_collection_paused():
            doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON at line {err.lineno} column {err.colno}: "
                         f"{err.msg}") from err
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at the top level")
    return doc


def _list(value, what: str):
    """value, which must be a JSON list; anything else is a ParseError that
    names the field what."""
    if type(value) not in _LISTS:
        raise ParseError(f"{what} must be a list, not {type(value).__name__}")
    return value


def _int(value, what: str = "entry") -> int:
    """value, which must be a JSON integer; a float, bool or string is a ParseError."""
    if type(value) is not int:
        raise ParseError(f"{what} must be an integer, not {type(value).__name__}")
    return value


def _str(value, what: str) -> str:
    """value, which must be a JSON string; anything else is a ParseError."""
    if type(value) is not str:
        raise ParseError(f"{what} must be a string, not {type(value).__name__}")
    return value


def _field(make, doc: dict, what: str):
    """make(doc[what]) for the field parameter what, q or m; a value the
    constructor refuses with ValueError is a ParseError."""
    value = _int(doc[what], what)
    try:
        return make(value)
    except ValueError as err:
        raise ParseError(str(err)) from None


def _ints(values, what: str) -> tuple[int, ...]:
    """The list field what as JSON integers; an entry of another type is a
    ParseError that names it a "what entry"."""
    row = tuple(_list(values, what))
    if not _INT.issuperset(map(type, row)):
        _int(next(v for v in row if type(v) is not int), f"{what} entry")
    return row


def _one_based(perms: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[k + 1 for k in p] for p in perms]


def _zero_based(perms: Sequence[Sequence[int]], m: int) -> Optional[list[tuple[int, ...]]]:
    """perms as 0-based tuples, or None unless each is a permutation of 1..m.

    Each length is compared with m before the set of 0..m-1 is built, so a
    huge m allocates nothing.
    """
    indices = None
    out = []
    for p in _list(perms, "permutations"):
        row = [k - 1 for k in _ints(p, "permutation")]
        if len(row) != m or set(row) != (indices := indices or set(range(m))):
            return None
        out.append(tuple(row))
    return out


@cycle_collection_paused()
def multiset_doc(b: BalancedMultiset, kind: str = "balanced",
                 N: Optional[int] = None) -> dict:
    """Schema document for a balanced multiset or its certificate.

    Both kinds share the field set; "balanced" marks a document whose primary
    object is the multiset (the certificate is its canonical conversion),
    "certificate" the reverse. tuples are embedded either way, one tuple of
    entry texts per member, so a reader can inspect the members without
    running the kernel solver. Each distinct value is formatted once, and
    the rows are built from b.columns, mapped through those texts.
    """
    if kind not in ("balanced", "certificate"):
        raise ValueError("kind must be balanced or certificate")
    first = b.coeffs[0]
    cert = certificate_from_balanced(b.coeffs, b)
    doc: dict = {"kind": kind, "n": b.n, "m": cert.m, "N": N}
    if isinstance(first, Poly):
        doc["ring"] = "fqt"
        doc["q"] = first.field.q
        doc["coeffs"] = [str(c) for c in b.coeffs]
        text = [str(v) for v in b.values]
    elif isinstance(first, int):
        doc["ring"] = "int"
        doc["coeffs"] = list(b.coeffs)
        text = list(b.values)
    else:
        raise ValueError("only polynomial and integer multisets serialize to this schema")
    columns = [list(map(text.__getitem__, column)) for column in b.columns]
    doc["tuples"] = list(zip(*columns))
    # the certificate's kernel is the last coordinate of each row
    doc["kernel_vector"] = columns[-1]
    doc["permutations"] = _one_based(cert.perms)
    return doc


def extremal_doc(inst: bounds.ExtremalInstance) -> dict:
    cert = inst.certificate
    doc: dict = {
        "kind": "extremal",
        "ring": inst.ring,
        "D": inst.D,
        "claimed_min": inst.claimed_min,
        "order": cert.order,
        "group_order": cert.group_order,
        "generator_flag": cert.generator_flag,
        "degenerate": inst.degenerate,
    }
    if inst.ring == "fqt":
        doc["q"] = inst.triple[0].field.q
        doc["triple"] = [str(p) for p in inst.triple]
    else:
        doc["triple"] = list(inst.triple)
    return doc


def numfield_doc(cert: numfield.NumfieldCertificate) -> dict:
    K = cert.field
    return {
        "kind": "numfield",
        "m": K.m,
        "omega": K.omega_label,
        "alpha": quadratic.format_quadint(cert.alpha),
        "n": cert.n,
        "dimension": len(cert.matrix),
        "matrix": [list(row) for row in cert.matrix],
        "permutations": _one_based(cert.perms),
        "eigenvector": [quadratic.format_quadint(v) for v in cert.eigenvector],
        "radius_squared": str(cert.radius_squared),
        "covering_radius_squared": str(cert.covering_radius_squared),
        "strategy": cert.strategy,
    }


def _require(doc: dict, *keys: str):
    missing = [k for k in keys if k not in doc]
    if missing:
        raise ParseError(f"document is missing fields: {', '.join(missing)}")


class _EntryTable:
    """The entries of one multiset document, each distinct text parsed once.

    values holds the distinct values in order of first appearance, and an
    entry's index is the position of its value there; two texts that spell
    one value share an index. Entries come in lists of texts (JSON integers
    over Z), which are deduplicated before parsing; an entry of another type
    raises as its parse does.
    """

    def __init__(self, parse, kind: type):
        self._parse = parse
        self._kind = frozenset((kind,))
        self._index_of_text: dict = {}
        self._index_of_value: dict = {}
        self.values: list = []

    def _index(self, value) -> int:
        k = self._index_of_value.setdefault(value, len(self.values))
        if k == len(self.values):
            self.values.append(value)
        return k

    def indices(self, entries, what: str) -> list[int]:
        """Indices of the entries of the list field what; texts not seen
        before are parsed once each, in order of first appearance."""
        texts = _list(entries, what)
        if not self._kind.issuperset(map(type, texts)):
            # every parse refuses a value of another type
            self._parse(next(v for v in texts if type(v) not in self._kind))
        seen = self._index_of_text
        found = list(map(seen.get, texts))
        if None in found:
            for text in dict.fromkeys(texts):
                if text not in seen:
                    seen[text] = self._index(self._parse(text))
            found = list(map(seen.__getitem__, texts))
        return found

    def index_columns(self, rows, n: int) -> Optional[list[list[int]]]:
        """Column i of rows as value indices, or None unless rows is a
        nonempty list of lists of n entries each."""
        if type(rows) not in _LISTS or not rows or not _LISTS.issuperset(map(type, rows)):
            return None
        flat = self.indices(list(itertools.chain.from_iterable(rows)), "tuples")
        if set(map(len, rows)) != {n}:
            return None
        return [flat[i::n] for i in range(n)]


def _tuples_match(coeffs: tuple, values: list, columns: list[list[int]],
                  cert: PermutationCertificate) -> bool:
    """Whether the rows with these columns of indices into values are a
    balanced multiset of nonzero tuples whose canonical certificate is cert.

    Matching cert makes row k the tuple (v[p_1[k]], ..., v[p_n[k]]), whose
    relation the kernel check has proved, so none is evaluated here.
    """
    used = _balanced(columns)
    if used is None:
        return False
    b = _ranked_multiset(coeffs, values, columns, used)
    zero = next((k for k, v in enumerate(b.values) if not v), None)
    if zero is not None and (zero,) * b.n in b.rows:
        return False
    return certificate_from_balanced(coeffs, b) == cert


def _verify_multiset(doc: dict) -> bool:
    _require(doc, "n", "coeffs", "m", "permutations", "kernel_vector")
    ring = doc.get("ring", "fqt")
    if ring == "fqt":
        _require(doc, "q")
        field = _field(FieldParams, doc, "q")
        table = _EntryTable(functools.partial(parse_poly, field), str)
    elif ring == "int":
        table = _EntryTable(_int, int)
    else:
        raise ParseError(f"unknown ring {ring!r}")
    coeffs = tuple(map(table.values.__getitem__, table.indices(doc["coeffs"], "coeffs")))
    if ring == "fqt":
        CoeffTuple.refuse_malformed(coeffs)  # as certify does
    if len(coeffs) != _int(doc["n"], "n") or not coeffs or not all(coeffs):
        return False
    m = _int(doc["m"], "m")
    perms = _zero_based(doc["permutations"], m)
    if perms is None or len(perms) != len(coeffs):
        return False
    kernel_idx = table.indices(doc["kernel_vector"], "kernel_vector")
    if len(kernel_idx) != m or not _certificate_holds(coeffs, table.values, kernel_idx, perms):
        return False
    if "tuples" in doc:
        columns = table.index_columns(doc["tuples"], len(coeffs))
        kernel = tuple(map(table.values.__getitem__, kernel_idx))
        cert = PermutationCertificate(m=m, perms=tuple(perms), kernel=kernel)
        return columns is not None and _tuples_match(coeffs, table.values, columns, cert)
    return True


def _verify_extremal(doc: dict) -> bool:
    _require(doc, "ring", "D", "claimed_min", "order", "group_order",
             "generator_flag", "triple")
    ring = doc["ring"]
    if ring == "fqt":
        _require(doc, "q")
        field = _field(FieldParams, doc, "q")
        triple = tuple(parse_poly(field, s) for s in _list(doc["triple"], "triple"))
    elif ring == "int":
        triple = _ints(doc["triple"], "triple")
    else:
        raise ParseError(f"unknown ring {ring!r}")
    cert = bounds.OrderBoundCertificate(
        triple=triple,
        order=_int(doc["order"], "order"),
        group_order=_int(doc["group_order"], "group_order"),
        generator_flag=bool(doc["generator_flag"]),
    )
    inst = bounds.ExtremalInstance(
        ring=ring,
        triple=triple,
        D=_int(doc["D"], "D"),
        claimed_min=_int(doc["claimed_min"], "claimed_min"),
        certificate=cert,
        degenerate=bool(doc.get("degenerate", False)),
    )
    try:
        return bounds.verify_extremal(inst)
    except (ValueError, NonUnitError):  # the triple has no order bound, so the claim is false
        return False


def _verify_numfield(doc: dict) -> bool:
    _require(doc, "m", "omega", "alpha", "n", "matrix", "permutations",
             "eigenvector")
    # the fields derived from the others, each read here and compared last
    # when present
    dimension = _int(doc["dimension"], "dimension") if "dimension" in doc else None
    strategy = _str(doc["strategy"], "strategy") if "strategy" in doc else None
    radius = (_str(doc["covering_radius_squared"], "covering_radius_squared")
              if "covering_radius_squared" in doc else None)
    K = _field(quadratic.QuadField, doc, "m")
    if doc["omega"] != K.omega_label:
        return False
    alpha = quadratic.parse_quadint(K, doc["alpha"])
    n = _int(doc["n"], "n")
    matrix = tuple(_ints(row, "matrix row") for row in _list(doc["matrix"], "matrix"))
    dim = len(matrix)
    if any(len(row) != dim for row in matrix):
        return False
    perms = _zero_based(doc["permutations"], dim)
    if not perms or len(perms) != n - 1:
        return False
    # the split is checked before the eigenvector is parsed
    if numfield.permutation_sum(perms, dim) != matrix:
        return False
    table = _EntryTable(functools.partial(quadratic.parse_quadint, K), str)
    vec = list(map(table.values.__getitem__, table.indices(doc["eigenvector"], "eigenvector")))
    return (numfield.matrix_fixes(perms, vec, alpha)
            and dimension in (None, dim)
            and strategy in (None, "as-given", "sink-class")
            and (radius is None or radius == str(numfield.covering_radius_squared(K, alpha))))


def verify_doc(doc: dict) -> bool:
    """Re-verify a parsed certificate document from first principles."""
    kind = doc.get("kind")
    with cycle_collection_paused():
        if kind in ("balanced", "certificate"):
            return _verify_multiset(doc)
        if kind == "extremal":
            return _verify_extremal(doc)
        if kind == "numfield":
            return _verify_numfield(doc)
    raise ParseError(
        f"kind {kind!r} is not verifiable; expected one of {VERIFIABLE_KINDS}")


def csv_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(list(row))
    return buf.getvalue()
