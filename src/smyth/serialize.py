"""JSON documents and CSV tables for certificates and reports.

Document kinds and what verify_doc re-checks for each, with no state beyond
the document itself:

  balanced,    n nonzero coeffs; n permutations of 1..m, the last the
  certificate  identity; a nonzero kernel_vector satisfying every row
               relation; when tuples are listed, that they are balanced
               solutions converting to exactly these permutations and kernel
  extremal     the order bound recomputed from the triple matches order,
               group_order, claimed_min and generator_flag, and q^D - 1
               over F_q[t]; degenerate holds exactly for the integer
               triple (1, 1, 2)
  numfield     the permutations sum to matrix, which fixes the nonzero
               eigenvector with eigenvalue alpha

Singularity is never re-derived: the nonzero kernel vector or eigenvector a
document carries, checked against the defining equations, is its proof.
Informational fields are not checked, so edits to them go undetected: N;
numfield dimension, radius_squared, covering_radius_squared and strategy;
and extremal D over the integers, whose prime comes from a floating-point
e^D. Integer fields are read strictly: a float, bool or string where a JSON
integer belongs is a ParseError.

Emission is canonical (sorted keys, fixed indentation, deterministic list
orders), so serialize -> parse -> serialize is byte-stable.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
from typing import Optional, Sequence

from . import bounds, numfield, quadratic
from .algebra import FieldParams, Poly, parse_poly
from .core import (
    BalancedMultiset,
    CoeffTuple,
    PermutationCertificate,
    certificate_from_balanced,
    verify_certificate,
)
from .errors import ParseError

VERIFIABLE_KINDS = ("balanced", "certificate", "extremal", "numfield")


_SCALARS = frozenset((str, int, float, bool, type(None)))
_LISTS = frozenset((list, tuple))
_INT = frozenset((int,))

# Items separated by NUL with no whitespace: JSON escapes NUL inside strings,
# so every raw NUL in this encoder's output is a separator.
_NUL_SEPARATED = json.JSONEncoder(separators=("\x00", ":"))


def _indented(value, pad: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) lays it out at
    the nesting whose lines start with pad.

    Flat lists of scalars and lists of nonempty scalar rows take one call of
    the C encoder each; anything else goes through json.dumps itself.
    """
    inner = pad + "  "
    if type(value) in _LISTS and value:
        if _SCALARS.issuperset(map(type, value)):
            body = _NUL_SEPARATED.encode(value)[1:-1].replace("\x00", ",\n" + inner)
            return f"[\n{inner}{body}\n{pad}]"
        if (_LISTS.issuperset(map(type, value)) and all(value)
                and _SCALARS.issuperset(map(type, itertools.chain.from_iterable(value)))):
            deeper = inner + "  "
            body = (_NUL_SEPARATED.encode(value)[2:-2]
                    .replace("]\x00[", f"\n{inner}],\n{inner}[\n{deeper}")
                    .replace("\x00", ",\n" + deeper))
            return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{pad}]"
    elif type(value) is dict and value and all(type(k) is str for k in value):
        items = ",".join(f"\n{inner}{json.dumps(k)}: {_indented(value[k], inner)}"
                         for k in sorted(value))
        return f"{{{items}\n{pad}}}"
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + pad)


def canonical_json(doc: dict) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) plus a newline."""
    return _indented(doc, "") + "\n"


def parse_json(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON at line {err.lineno} column {err.colno}: "
                         f"{err.msg}") from err
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at the top level")
    return doc


def _ints(values, what: str = "entry") -> tuple[int, ...]:
    """values as JSON integers; a float, bool or string among them is a ParseError."""
    row = tuple(values)
    if not _INT.issuperset(map(type, row)):
        bad = next(v for v in row if type(v) is not int)
        raise ParseError(f"{what} must be an integer, not {type(bad).__name__}")
    return row


def _int(value, what: str = "entry") -> int:
    return _ints((value,), what)[0]


def _one_based(perms: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[k + 1 for k in p] for p in perms]


def _zero_based(perms: Sequence[Sequence[int]], m: int) -> Optional[list[tuple[int, ...]]]:
    out = []
    for p in perms:
        row = [k - 1 for k in _ints(p, "permutation entry")]
        if len(row) != m or sorted(row) != list(range(m)):
            return None
        out.append(tuple(row))
    return out


def multiset_doc(b: BalancedMultiset, kind: str = "balanced",
                 N: Optional[int] = None) -> dict:
    """Schema document for a balanced multiset or its certificate.

    Both kinds share the field set; "balanced" marks a document whose primary
    object is the multiset (the certificate is its canonical conversion),
    "certificate" the reverse. tuples are embedded either way so a reader
    can inspect the members without running the kernel solver.
    """
    if kind not in ("balanced", "certificate"):
        raise ValueError("kind must be balanced or certificate")
    first = b.coeffs[0]
    cert = certificate_from_balanced(b.coeffs, b)
    doc: dict = {"kind": kind, "n": b.n, "m": cert.m, "N": N}
    if isinstance(first, Poly):
        doc["ring"] = "fqt"
        doc["q"] = first.field.q
        text = {v: str(v) for v in set(itertools.chain.from_iterable(b.members))}
        doc["coeffs"] = [str(c) for c in b.coeffs]
        doc["kernel_vector"] = [text[v] for v in cert.kernel]
        doc["tuples"] = [list(map(text.__getitem__, row)) for row in b.members]
    elif isinstance(first, int):
        doc["ring"] = "int"
        doc["coeffs"] = list(b.coeffs)
        doc["kernel_vector"] = list(cert.kernel)
        doc["tuples"] = [list(row) for row in b.members]
    else:
        raise ValueError("only polynomial and integer multisets serialize to this schema")
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


def _verify_multiset(doc: dict) -> bool:
    _require(doc, "n", "coeffs", "m", "permutations", "kernel_vector")
    ring = doc.get("ring", "fqt")
    if ring == "fqt":
        _require(doc, "q")
        field = FieldParams(_int(doc["q"], "q"))
        entry = functools.partial(parse_poly, field)
    elif ring == "int":
        entry = _int
    else:
        raise ParseError(f"unknown ring {ring!r}")
    coeffs = tuple(entry(c) for c in doc["coeffs"])
    if ring == "fqt":
        CoeffTuple.make(field, coeffs)  # refuses pairs, as certify does
    if len(coeffs) != _int(doc["n"], "n") or not all(coeffs):
        return False
    m = _int(doc["m"], "m")
    perms = _zero_based(doc["permutations"], m)
    if perms is None or len(perms) != len(coeffs):
        return False
    kernel = tuple(entry(v) for v in doc["kernel_vector"])
    if len(kernel) != m:
        return False
    cert = PermutationCertificate(m=m, perms=tuple(perms), kernel=kernel)
    if not verify_certificate(coeffs, cert):
        return False
    if "tuples" in doc:
        members = [tuple(entry(v) for v in row) for row in doc["tuples"]]
        try:
            b = BalancedMultiset.make(coeffs, members)
        except ValueError:
            return False
        if certificate_from_balanced(coeffs, b) != cert:
            return False
    return True


def _verify_extremal(doc: dict) -> bool:
    _require(doc, "ring", "D", "claimed_min", "order", "group_order",
             "generator_flag", "triple")
    ring = doc["ring"]
    if ring == "fqt":
        _require(doc, "q")
        field = FieldParams(_int(doc["q"], "q"))
        triple = tuple(parse_poly(field, s) for s in doc["triple"])
    elif ring == "int":
        triple = _ints(doc["triple"], "triple entry")
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
    except ValueError:
        return False


def _verify_numfield(doc: dict) -> bool:
    _require(doc, "m", "omega", "alpha", "n", "matrix", "permutations",
             "eigenvector")
    K = quadratic.QuadField(_int(doc["m"], "m"))
    if doc["omega"] != K.omega_label:
        return False
    alpha = quadratic.parse_quadint(K, doc["alpha"])
    n = _int(doc["n"], "n")
    matrix = tuple(_ints(row, "matrix entry") for row in doc["matrix"])
    dim = len(matrix)
    if any(len(row) != dim for row in matrix):
        return False
    perms = _zero_based(doc["permutations"], dim)
    if not perms or len(perms) != n - 1:
        return False
    if numfield.permutation_sum(perms, dim) != matrix:
        return False
    vec = tuple(quadratic.parse_quadint(K, s) for s in doc["eigenvector"])
    if len(vec) != dim or not any(bool(v) for v in vec):
        return False
    return numfield.matrix_fixes(matrix, vec, alpha)


def verify_doc(doc: dict) -> bool:
    """Re-verify a parsed certificate document from first principles."""
    kind = doc.get("kind")
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
