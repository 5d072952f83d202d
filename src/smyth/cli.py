"""Command-line front end.

Exit codes are stable: 0 for success or an affirmative answer, 1 for a
negative answer (criteria fail, no certificate, verification failed), 2 for
usage or input errors. JSON is the machine contract; text output is for
humans and carries no stability guarantee; CSV is available where the
natural output is a table.
"""
from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from functools import partial
from typing import Optional, Sequence

from . import bounds, heuristic, numfield, quadratic, serialize
from .algebra import FieldParams, parse_poly
from .core import (
    DEFAULT_BUDGET,
    BalancedMultiset,
    CoeffTuple,
    balanced_multiset,
    check_criteria,
    enumerate_solutions,
    solution_dimensions,
)
from .errors import (
    BridgeError,
    BudgetExceededError,
    NonUnitError,
    NoRelationError,
    NotSmythTupleError,
    ParseError,
    PrecisionError,
    SmythError,
    TupleArityError,
)


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        value = args.budget
    else:
        raw = os.environ.get("SMYTH_BUDGET")
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value = int(raw)
        except ValueError:
            raise ParseError(f"SMYTH_BUDGET must be an integer, got {raw!r}")
    if value < 1:
        raise ParseError("budget must be a positive integer")
    return value


def _parse_coeffs(text: str, parse) -> list:
    """Each ';'-separated entry of text through parse; an error names its position."""
    out = []
    for idx, tok in enumerate(text.split(";"), 1):
        try:
            out.append(parse(tok))
        except ParseError as err:
            raise ParseError(f"coefficient {idx}: {err}") from err
    return out


def _parse_int(tok: str) -> int:
    try:
        return int(tok.strip())
    except ValueError:
        raise ParseError(f"{tok!r} is not an integer") from None


def _fqt_tuple(q: int, text: str) -> CoeffTuple:
    """The coefficient tuple over F_q[t] that text lists."""
    field = FieldParams(q)
    return CoeffTuple.make(field, _parse_coeffs(text, partial(parse_poly, field)))


def _emit(args, doc: dict, text_lines: Sequence[str],
          csv_data: Optional[str] = None) -> None:
    if args.format == "json":
        sys.stdout.write(serialize.canonical_json(doc))
    elif args.format == "text":
        sys.stdout.write("\n".join(text_lines) + "\n")
    else:
        if csv_data is None:
            raise ParseError("csv output is not available for this subcommand")
        sys.stdout.write(csv_data)


# ---------------------------------------------------------------------------
# subcommand handlers


def run_check(args) -> int:
    if args.ring == "int":
        coeffs = _parse_coeffs(args.coeffs, _parse_int)
        if len(coeffs) < 3:
            raise TupleArityError("need at least three coefficients")
        if any(c == 0 for c in coeffs):
            raise ParseError("coefficients must be nonzero")
        ok = bounds.check_criteria_int(coeffs)
        doc = {"kind": "criteria-report", "ring": "int", "coeffs": coeffs,
               "passes": ok}
        _emit(args, doc, [f"{'pass' if ok else 'fail'}: {coeffs}"])
        return 0 if ok else 1
    a = _fqt_tuple(args.q, args.coeffs)
    report = check_criteria(a)
    doc = {
        "kind": "criteria-report",
        "ring": "fqt",
        "q": a.field.q,
        "coeffs": [str(c) for c in a.coeffs],
        "height": a.height,
        "passes": report.passes,
        "infinite_place_ok": report.infinite_place_ok,
        "finite_places_ok": report.finite_places_ok,
    }
    if report.witness_index is not None:
        doc["witness_index"] = report.witness_index + 1
    if report.witness_divisor is not None:
        doc["witness_divisor"] = str(report.witness_divisor)
    lines = [f"{'pass' if report.passes else 'fail'}: {a} over F_{a.field.q}[t]"]
    if not report.infinite_place_ok:
        lines.append("maximum degree is attained only once")
    if not report.finite_places_ok:
        lines.append(
            f"complementary gcd at coordinate {doc.get('witness_index')} is "
            f"{doc.get('witness_divisor')}, not a unit")
    _emit(args, doc, lines)
    return 0 if report.passes else 1


def run_enumerate(args) -> int:
    a = _fqt_tuple(args.q, args.coeffs)
    budget = _resolve_budget(args)
    sols = enumerate_solutions(a, args.N, budget)
    # each distinct value is formatted once, and only the asked format is built
    text = {v: str(v) for v in set(itertools.chain.from_iterable(sols))}
    rows = list(zip(*(map(text.__getitem__, column) for column in zip(*sols))))
    doc = csv_data = lines = None
    if args.format == "json":
        d = max(a.height, 0)
        doc = {
            "kind": "enumeration",
            "q": a.field.q,
            "coeffs": [str(c) for c in a.coeffs],
            "N": args.N,
            "count": len(sols),
            "expected_count": a.field.q ** (args.N * (a.n - 1) - d)
            if check_criteria(a).passes else None,
            "solutions": rows,
        }
    elif args.format == "csv":
        csv_data = serialize.csv_table([f"x{i + 1}" for i in range(a.n)], rows)
    else:
        lines = [f"{len(sols)} solutions in V_{args.N}^{a.n}"]
        lines.extend(["  (" + ", ".join(row) + ")" for row in rows])
    _emit(args, doc, lines, csv_data)
    return 0


def run_certify(args) -> int:
    a = _fqt_tuple(args.q, args.coeffs)
    budget = _resolve_budget(args)
    b = balanced_multiset(a, args.N, budget)
    doc = serialize.multiset_doc(b, kind="certificate", N=args.N)
    lines = [
        f"certificate for {a}, size {b.size}",
        f"kernel: {', '.join(doc['kernel_vector'])}",
    ]
    _emit(args, doc, lines)
    return 0


def run_minimal(args) -> int:
    budget = _resolve_budget(args)
    if args.ring == "int":
        a = _parse_coeffs(args.coeffs, _parse_int)
    else:
        a = _fqt_tuple(args.q, args.coeffs)
    found = bounds.min_balanced_search(a, args.N, args.size_bound,
                                       max_multiplicity=args.max_multiplicity,
                                       budget=budget)
    if found is None:
        doc = {"kind": "minimal-search", "found": False,
               "size_bound": args.size_bound, "N": args.N}
        _emit(args, doc, [f"no balanced multiset up to size {args.size_bound}"])
        return 1
    doc = serialize.multiset_doc(found, kind="balanced", N=args.N)
    doc["search"] = {"size_bound": args.size_bound,
                     "max_multiplicity": args.max_multiplicity,
                     "minimal_size": found.size}
    _emit(args, doc, [f"minimal balanced multiset size {found.size}"])
    return 0


def run_extremal(args) -> int:
    if args.ring == "int":
        inst = bounds.construct_extremal_int(args.D)
    else:
        if args.q is None:
            raise ParseError("--q is required for the polynomial ring")
        inst = bounds.construct_extremal_fqt(args.q, args.D, seed=args.seed)
    if not bounds.verify_extremal(inst):
        raise SmythError("constructed instance failed verification")
    doc = serialize.extremal_doc(inst)
    triple_text = ", ".join(str(v) for v in inst.triple)
    lines = [
        f"extremal triple ({triple_text}) with order {inst.certificate.order} "
        f"of group order {inst.certificate.group_order}",
        f"claimed minimal size {inst.claimed_min}"
        + (" (degenerate)" if inst.degenerate else ""),
    ]
    _emit(args, doc, lines)
    return 0


def run_heuristic(args) -> int:
    if args.mode == "mc":
        a = _fqt_tuple(args.q, args.coeffs)
        family = heuristic.GroupFamily(args.family, a.field.q ** args.N)
        report = heuristic.monte_carlo(a, args.N, family, trials=args.trials,
                                       seed=args.seed)
        counts = {str(k): v for k, v in report.sum_counts.items()}
        doc = {
            "kind": "heuristic-report",
            "mode": "monte-carlo",
            "q": a.field.q,
            "coeffs": [str(c) for c in a.coeffs],
            "N": args.N,
            "family": {"kind": family.kind, "degree": family.degree,
                       "size": family.size},
            "exact": report.exact,
            "trials": report.trials,
            "hits": report.hits,
            "empirical_rate": report.empirical_rate,
            "model_rate": report.model_rate,
            "tv_distance": report.tv_distance,
            "sum_counts": dict(sorted(counts.items())),
        }
        _emit(args, doc, [report.summary()])
        return 0
    if args.mode == "pn":
        if (args.group_size is None) == (args.log_group_size is None):
            raise ParseError("give exactly one of --group-size and --log-group-size")
        log_p = heuristic.p_n_closed_form(args.q, args.d, args.n, args.N,
                                          log_group_size=args.log_group_size,
                                          group_size=args.group_size)
        doc = {
            "kind": "heuristic-report",
            "mode": "closed-form",
            "q": args.q, "d": args.d, "n": args.n, "N": args.N,
            "group_size": args.group_size,
            "log_group_size": args.log_group_size,
            "log_p": log_p,
            "p": math.exp(log_p) if log_p > -745 else 0.0,
        }
        _emit(args, doc, [f"log p_N = {log_p:.12g}"])
        return 0
    growth = [float(tok) for tok in args.growth.split(",")]
    rows = heuristic.limit_scan(args.q, args.d, args.n, growth, start=args.start)
    doc = {
        "kind": "heuristic-report",
        "mode": "limit-scan",
        "q": args.q, "d": args.d, "n": args.n,
        "rows": [{"N": r.N, "growth_constant": r.growth_constant,
                  "log_group_size": r.log_group_size, "log_p": r.log_p}
                 for r in rows],
    }
    csv_data = serialize.csv_table(
        ["N", "growth_constant", "log_group_size", "log_p"],
        [[r.N, r.growth_constant, r.log_group_size, r.log_p] for r in rows])
    lines = [f"N={r.N} c={r.growth_constant:g} log|G|={r.log_group_size:.6g} "
             f"log p={r.log_p:.6g}" for r in rows]
    _emit(args, doc, lines, csv_data)
    return 0


def run_numfield(args) -> int:
    if args.action == "twist":
        coeffs = _parse_coeffs(args.coeffs, _parse_int)
        members = []
        for idx, row in enumerate(args.members.split(";"), 1):
            try:
                members.append(tuple(int(tok.strip()) for tok in row.split(",")))
            except ValueError:
                raise ParseError(f"member {idx}: {row!r} is not a comma-separated "
                                 "integer tuple")
        try:
            b = BalancedMultiset.make(tuple(coeffs), members)
        except ValueError as err:
            raise ParseError(f"input multiset invalid: {err}") from err
        twisted = numfield.rou_twist(b, args.j, args.order)
        doc = {
            "kind": "twisted-multiset",
            "source_coeffs": coeffs,
            "coordinate": args.j,
            "order": args.order,
            "coeffs": [[str(x) for x in c.coeffs] if args.order > 1 else str(c)
                       for c in twisted.coeffs],
            "members": [[[str(x) for x in v.coeffs] if args.order > 1 else str(v)
                         for v in row] for row in twisted.members],
            "size": twisted.size,
        }
        _emit(args, doc, [f"twisted multiset of size {twisted.size}, "
                          f"verified balanced"])
        return 0
    K = quadratic.QuadField(args.m)
    if args.action == "check":
        coeffs = _parse_coeffs(args.coeffs, partial(quadratic.parse_quadint, K))
        report = numfield.strong_criteria_check(K, coeffs)
        doc = {
            "kind": "strong-criteria-report",
            "m": K.m,
            "omega": K.omega_label,
            "coeffs": [quadratic.format_quadint(v) for v in coeffs],
            "archimedean_ok": report.archimedean_ok,
            "equalities": [list(e) for e in report.equalities],
            "violations": [list(v) for v in report.violations],
            "nonarch_status": report.nonarch_status,
            "passes": report.passes,
        }
        _emit(args, doc, [f"{'pass' if report.passes else 'fail'}; "
                          f"equalities {report.equalities}, "
                          f"nonarchimedean {report.nonarch_status}"])
        return 0 if report.passes else 1
    if args.action == "rou":
        coeffs = _parse_coeffs(args.coeffs, partial(quadratic.parse_quadint, K))
        relation = numfield.rou_relation_search(coeffs, max_order=args.max_order,
                                                budget=_resolve_budget(args))
        if relation is None:
            doc = {"kind": "rou-relation", "found": False,
                   "max_order": args.max_order,
                   "coeffs": [quadratic.format_quadint(v) for v in coeffs]}
            _emit(args, doc, [f"no relation up to order {args.max_order}"])
            return 1
        doc = {
            "kind": "rou-relation",
            "found": True,
            "m": K.m,
            "coeffs": [quadratic.format_quadint(v) for v in coeffs],
            "common_order": relation.common_order,
            "exponents": list(relation.exponents),
            "orders": list(relation.orders),
        }
        _emit(args, doc, [f"relation at common order {relation.common_order}, "
                          f"exponents {relation.exponents}"])
        return 0
    alpha = quadratic.parse_quadint(K, args.alpha)
    cert = numfield.numfield_pipeline(K, alpha, n=args.n, attempts=args.attempts)
    doc = serialize.numfield_doc(cert)
    lines = [
        f"certificate of dimension {len(cert.matrix)} for alpha = "
        f"{quadratic.format_quadint(alpha)} over m = {K.m} (strategy {cert.strategy})",
    ]
    _emit(args, doc, lines)
    return 0


def run_verify(args) -> int:
    if args.path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ParseError(f"cannot read {args.path}: {err}") from err
    with serialize.cycle_collection_paused():
        doc = serialize.parse_json(text)
        ok = verify_doc_safely(doc)
        del doc
    _emit(args, {"kind": "verification", "verified": ok},
          ["verified" if ok else "FAILED"])
    return 0 if ok else 1


def verify_doc_safely(doc: dict) -> bool:
    try:
        return serialize.verify_doc(doc)
    except ParseError:
        raise
    except (ValueError, KeyError, TypeError):
        return False


def batch_row(item: tuple[int, int, str, int]) -> dict:
    """Check count and fiber regularity for one grid row. Pure function."""
    q, N, coeffs_text, budget = item
    out: dict = {"q": q, "N": N, "coeffs": coeffs_text}
    try:
        a = _fqt_tuple(q, coeffs_text)
        if not check_criteria(a).passes:
            return {**out, "status": "not-applicable", "note": "criteria fail"}
        d = max(a.height, 0)
        k, zero_fibers = solution_dimensions(a, N, budget)
        out.update(size=q ** k, expected_size=q ** (N * (a.n - 1) - d),
                   expected_fiber=q ** (N * (a.n - 2) - d))
        if k != N * (a.n - 1) - d:
            return {**out, "status": "mismatch", "note": "solution count differs from the formula"}
        # a coordinate takes every value of V_N equally often exactly when it
        # maps T_N onto V_N, that is when its zero fiber has dimension k - N
        for j, z in enumerate(zero_fibers, 1):
            if z != k - N:
                return {**out, "status": "mismatch",
                        "note": f"fiber counts at coordinate {j} are irregular"}
        return {**out, "status": "ok", "note": ""}
    except (SmythError, ValueError) as err:
        return {**out, "status": "error", "note": str(err)}


def run_batch(args) -> int:
    import csv as csvmod

    budget = _resolve_budget(args)
    try:
        with open(args.grid, "r", encoding="utf-8", newline="") as fh:
            reader = csvmod.DictReader(fh)
            raw = list(reader)
    except OSError as err:
        raise ParseError(f"cannot read {args.grid}: {err}") from err
    if not raw:
        raise ParseError("grid file has no data rows")
    items = []
    for idx, row in enumerate(raw, 1):
        try:
            if row["coeffs"] is None:
                raise KeyError("coeffs")
            items.append((int(row["q"]), int(row["N"]), row["coeffs"], budget))
        except (KeyError, TypeError, ValueError):
            raise ParseError(
                f"grid row {idx} must have integer q, integer N, and coeffs")
    results = [batch_row(item) for item in items]
    header = ["q", "N", "coeffs", "status", "size", "expected_size",
              "expected_fiber", "note"]
    table_rows = [[r.get(k, "") for k in header] for r in results]
    csv_data = serialize.csv_table(header, table_rows)
    doc = {"kind": "batch-report", "rows": results}
    lines = [f"{r['q']},{r['N']},{r['coeffs']}: {r['status']}"
             + (f" ({r['note']})" if r.get("note") else "")
             for r in results]
    _emit(args, doc, lines, csv_data)
    bad = [r for r in results if r["status"] in ("mismatch", "error")]
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sp, *, budget: bool = False, seed: bool = False):
    sp.add_argument("--format", choices=("json", "csv", "text"),
                    default="json", help="output format (default json)")
    if budget:
        sp.add_argument("--budget", type=int, default=None,
                        help="enumeration budget; SMYTH_BUDGET overrides the default")
    if seed:
        sp.add_argument("--seed", type=int, default=0,
                        help="deterministic seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smyth",
        description="Decide the Smyth-tuple property and emit checkable certificates.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("check", help="absolute value criteria for a tuple")
    p.add_argument("--ring", choices=("fqt", "int"), default="fqt")
    p.add_argument("--q", type=int, help="field size (prime)")
    p.add_argument("--coeffs", required=True,
                   help="';'-separated coefficients, e.g. '1;t;t+1'")
    _add_common(p)
    p.set_defaults(handler=run_check)

    p = sub.add_parser("enumerate", help="all solutions with coordinates in V_N")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p, budget=True)
    p.set_defaults(handler=run_enumerate)

    p = sub.add_parser("certify",
                       help="balanced multiset plus permutation certificate")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p, budget=True)
    p.set_defaults(handler=run_certify)

    p = sub.add_parser("minimal", help="exhaustive minimal balanced multiset search")
    p.add_argument("--ring", choices=("fqt", "int"), default="fqt")
    p.add_argument("--q", type=int)
    p.add_argument("--coeffs", required=True)
    p.add_argument("--N", type=int, required=True,
                   help="pool parameter: V_N for polynomials, box radius for integers")
    p.add_argument("--size-bound", type=int, required=True)
    p.add_argument("--max-multiplicity", type=int, choices=(1, 2), default=1)
    _add_common(p, budget=True)
    p.set_defaults(handler=run_minimal)

    p = sub.add_parser("extremal", help="triple maximizing the order bound")
    p.add_argument("--ring", choices=("fqt", "int"), default="fqt")
    p.add_argument("--q", type=int)
    p.add_argument("--D", type=int, required=True)
    _add_common(p, seed=True)
    p.set_defaults(handler=run_extremal)

    p = sub.add_parser("heuristic", help="random-permutation heuristics")
    p.add_argument("--mode", choices=("mc", "pn", "scan"), default="mc")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--coeffs", help="required for --mode mc")
    p.add_argument("--N", type=int, help="required for --mode mc and pn")
    p.add_argument("--family", choices=("symmetric", "alternating", "cyclic",
                                        "dihedral"), default="symmetric")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--d", type=int, help="height, for --mode pn and scan")
    p.add_argument("--n", type=int, help="tuple length, for --mode pn and scan")
    p.add_argument("--group-size", type=int, default=None)
    p.add_argument("--log-group-size", type=float, default=None)
    p.add_argument("--growth", help="comma-separated growth constants for scan")
    p.add_argument("--start", type=int, default=1, help="first N for scan")
    _add_common(p, seed=True)
    p.set_defaults(handler=run_heuristic)

    p = sub.add_parser("numfield", help="quadratic number field pipelines")
    p.add_argument("--action", choices=("pipeline", "check", "rou", "twist"),
                   default="pipeline")
    p.add_argument("--m", type=int, help="squarefree field discriminant part")
    p.add_argument("--alpha", help="x+y*w, for --action pipeline")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--attempts", type=int, default=4)
    p.add_argument("--coeffs", help="';'-separated entries for check/rou/twist")
    p.add_argument("--max-order", type=int, default=360)
    p.add_argument("--members", help="';'-separated comma tuples for twist")
    p.add_argument("--j", type=int, default=1, help="1-based twist coordinate")
    p.add_argument("--order", type=int, default=1, help="twist order m")
    _add_common(p, budget=True)
    p.set_defaults(handler=run_numfield)

    p = sub.add_parser("verify", help="re-verify an emitted certificate document")
    p.add_argument("path", help="certificate file, or - for stdin")
    _add_common(p)
    p.set_defaults(handler=run_verify)

    p = sub.add_parser("batch", help="fiber-count checks over a CSV grid")
    p.add_argument("--grid", required=True,
                   help="CSV file with header q,N,coeffs")
    _add_common(p, budget=True)
    p.set_defaults(handler=run_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NotSmythTupleError as err:
        print(f"not a Smyth tuple: {err}", file=sys.stderr)
        return 1
    except (BridgeError, NoRelationError) as err:
        print(f"no certificate: {err}", file=sys.stderr)
        return 1
    except (BudgetExceededError, PrecisionError, NonUnitError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
