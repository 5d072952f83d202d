"""Top-level acceptance checks.

Each test prints one PASS line on success; a failure shows up as the usual
pytest failure for that criterion. Run with -s to see the lines inline.
"""
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

from smyth.algebra import FieldParams
from smyth.bounds import (
    construct_extremal_fqt,
    construct_extremal_int,
    min_balanced_search,
    order_bound_fqt,
    verify_extremal,
)
from smyth.core import (
    BalancedMultiset,
    CoeffTuple,
    balanced_multiset,
    certificate_from_balanced,
    check_criteria,
    enumerate_solutions,
    verify_certificate,
)
from smyth.heuristic import GroupFamily, limit_scan, monte_carlo, p_n_closed_form, strictly_decreasing
from smyth.numfield import (
    numfield_pipeline,
    rou_relation_search,
    rou_twist,
    strong_criteria_check,
    verify_numfield_certificate,
)
from smyth.quadratic import QuadField
from smyth.serialize import (
    canonical_json,
    extremal_doc,
    multiset_doc,
    numfield_doc,
    parse_json,
    verify_doc,
)
from test_multiset_reference import is_balanced
from test_numfield import quadint_det_verdict

BUDGET = 1 << 24


def _poly_pool(field, max_degree=2):
    """Nonzero polynomials of degree at most max_degree, constants first."""
    pool = []
    for deg in range(max_degree + 1):
        for lead in range(1, field.q):
            lower = itertools.product(range(field.q), repeat=deg)
            for low in lower:
                pool.append(field.poly(list(low) + [lead]))
    return pool


def _passing_cell(q, n, count, quota_d2=3):
    """First `count` criteria-passing tuples with height 1 or 2, at least
    quota_d2 of height exactly 2, in deterministic enumeration order."""
    field = FieldParams(q)
    pool = _poly_pool(field)
    picked = []
    d2 = 0
    for combo in itertools.product(pool, repeat=n):
        a = CoeffTuple.make(field, list(combo))
        if a.height < 1 or a.height > 2:
            continue
        if not check_criteria(a).passes:
            continue
        need_d2 = quota_d2 - d2
        remaining = count - len(picked)
        if a.height < 2 and remaining <= need_d2:
            continue
        picked.append(a)
        if a.height == 2:
            d2 += 1
        if len(picked) == count:
            return picked
    raise AssertionError(f"pool exhausted for q={q} n={n}")


def _failing_cell(q, n, count):
    field = FieldParams(q)
    pool = _poly_pool(field)
    picked = []
    for combo in itertools.product(pool, repeat=n):
        a = CoeffTuple.make(field, list(combo))
        if a.height < 1:
            continue
        if check_criteria(a).passes:
            continue
        picked.append(a)
        if len(picked) == count:
            return picked
    raise AssertionError("pool exhausted")


_GRID_CELLS = [
    (2, 3, 3, 10),
    (2, 4, 3, 8),
    (3, 3, 3, 10),
    (3, 4, 2, 8),
    (5, 3, 2, 9),
    (5, 4, 2, 8),
]

_grid_cache = {}


def _grid():
    if "grid" not in _grid_cache:
        rows = []
        for q, n, max_n, count in _GRID_CELLS:
            for i, a in enumerate(_passing_cell(q, n, count)):
                N = max(a.height, (i % max_n) + 1)
                rows.append((a, N))
        _grid_cache["grid"] = rows
    return _grid_cache["grid"]


def test_criterion_01_fiber_counts():
    start = time.time()
    rows = _grid()
    assert len(rows) >= 50
    for a, N in rows:
        q, n, d = a.field.q, a.n, a.height
        sols = enumerate_solutions(a, N, BUDGET)
        assert len(sols) == q ** (N * (n - 1) - d), (str(a), N)
        expected = q ** (N * (n - 2) - d)
        for j in range(n):
            counts = Counter(s[j] for s in sols)
            assert len(counts) == q ** N, (str(a), N, j)
            assert all(v == expected for v in counts.values()), (str(a), N, j)
    elapsed = time.time() - start
    assert elapsed < 60
    print(f"\nACCEPTANCE 1/10 PASS: fiber counts exact on {len(rows)} tuples "
          f"({elapsed:.1f}s)")


def test_criterion_02_certificates_on_grid():
    rows = _grid()
    for a, N in rows:
        b = balanced_multiset(a, N, BUDGET)
        assert is_balanced(b.coeffs, b.members), (str(a), N)
        cert = certificate_from_balanced(a.coeffs, b)
        assert verify_certificate(a, cert), (str(a), N)
    print(f"\nACCEPTANCE 2/10 PASS: {len(rows)} balanced multisets certified "
          "and re-verified")


def test_criterion_03_failing_tuples_have_no_multiset():
    failures = _failing_cell(2, 3, 20)
    assert len(failures) >= 20
    for a in failures:
        found = min_balanced_search(a, min(a.height, 2), 6, budget=BUDGET)
        assert found is None, str(a)
    print("\nACCEPTANCE 3/10 PASS: 20 criteria-failing tuples admit nothing "
          "up to size 6")


def test_criterion_04_minimal_size_three():
    start = time.time()
    field = FieldParams(2)
    a = CoeffTuple.make(field, [field.poly([1]), field.poly([0, 0, 1]),
                                field.poly([1, 1, 1])])
    found = min_balanced_search(a, 2, 4, budget=BUDGET)
    assert found is not None and found.size == 3
    assert min_balanced_search(a, 2, 2, budget=BUDGET) is None
    cert = order_bound_fqt(a.coeffs[0], a.coeffs[1], a.coeffs[2])
    assert cert.order == 3
    assert cert.generator_flag
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 4/10 PASS: minimal size is exactly 3 with order "
          f"bound 3 ({elapsed:.2f}s)")


def test_criterion_05_extremal_fqt_family():
    for q, D in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        inst = construct_extremal_fqt(q, D)
        assert verify_extremal(inst), (q, D)
        assert inst.claimed_min == q ** D - 1, (q, D)
    print("\nACCEPTANCE 5/10 PASS: extremal instances verified for all five "
          "(q, D) pairs")


def test_criterion_06_extremal_integers():
    two = construct_extremal_int(2)
    assert two.triple[2] == 7
    assert two.certificate.order == 6
    assert verify_extremal(two)
    three = construct_extremal_int(3)
    assert three.triple[2] == 19
    assert three.certificate.order == 18
    assert verify_extremal(three)
    print("\nACCEPTANCE 6/10 PASS: integer extremal triples reach orders 6 "
          "and 18 at moduli 7 and 19")


def test_criterion_07_heuristic_oracles():
    field = FieldParams(2)
    a = CoeffTuple.make(field, [field.poly([1]), field.poly([0, 1]),
                                field.poly([1, 1])])
    rep = monte_carlo(a, 1, GroupFamily("symmetric", 2), trials=1000, seed=0)
    assert rep.exact and rep.empirical_rate == 0.25
    target = (Fraction(15, 16) ** 4)
    log_p = p_n_closed_form(2, 1, 3, 1, group_size=2)
    assert abs(math.exp(log_p) - float(target)) <= 1e-12 * float(target)
    rows = limit_scan(2, 1, 3, [float(c) for c in range(1, 7)])
    assert strictly_decreasing(rows)
    print("\nACCEPTANCE 7/10 PASS: exact rate 1/4, closed form matches "
          "(15/16)^4, scan decreasing over N=1..6")


def test_criterion_08_number_field_pipeline():
    start = time.time()
    K = QuadField(-7)
    cert = numfield_pipeline(K, K.omega, n=3)
    assert verify_numfield_certificate(cert.alpha, cert.n, cert.matrix, cert.perms,
                                       cert.eigenvector)
    assert quadint_det_verdict(cert.alpha, cert.perms)
    elapsed = time.time() - start
    assert elapsed < 30
    M15 = QuadField(-15)
    rep = strong_criteria_check(M15, [1, 1, M15.omega])
    assert rep.equalities and not rep.passes
    assert rou_relation_search([M15.one, M15.one, M15.omega],
                               max_order=360) is None
    print(f"\nACCEPTANCE 8/10 PASS: pipeline certificate verified "
          f"({elapsed:.2f}s); negative control flagged equality and no "
          "relation up to order 360")


def test_criterion_09_twists():
    base = BalancedMultiset.make((1, 1, -2), [(1, 1, 1)])
    for m in (2, 3, 4):
        tw = rou_twist(base, 1, m)
        assert tw.size == m
        for member in tw.members:
            acc = tw.coeffs[0] * member[0]
            for c, v in zip(tw.coeffs[1:], member[1:]):
                acc = acc + c * v
            assert not acc
    print("\nACCEPTANCE 9/10 PASS: twists at orders 2, 3, 4 re-validate as "
          "balanced")


def _round_trip_docs():
    docs = []
    fqt_sources = _passing_cell(2, 3, 10) + _passing_cell(3, 3, 10)
    kinds = itertools.cycle(("balanced", "certificate"))
    for i, a in enumerate(fqt_sources * 2):
        N = max(a.height, (i % 2) + 1)
        b = balanced_multiset(a, N, BUDGET)
        docs.append(multiset_doc(b, kind=next(kinds), N=N))
        if len(docs) == 40:
            break
    rng = random.Random(20260819)
    while len(docs) < 60:
        x = rng.randrange(1, 10)
        y = rng.randrange(1, 10)
        coeffs = (x, y, -(x + y))
        ks = rng.sample([k for k in range(-9, 10) if k != 0],
                        rng.randrange(1, 5))
        members = [(k, k, k) for k in ks]
        b = BalancedMultiset.make(coeffs, members)
        docs.append(multiset_doc(b, kind="balanced"))
    for q, D in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        for seed in (0, 1):
            docs.append(extremal_doc(construct_extremal_fqt(q, D, seed=seed)))
    for D in (1, 2, 3):
        docs.append(extremal_doc(construct_extremal_int(D)))
    docs.extend(extremal_doc(construct_extremal_fqt(5, 1, seed=s))
                for s in range(7))
    pipeline_cases = [
        (-1, (0, 1), 3), (-1, (1, 1), 3), (-1, (1, 0), 3), (-2, (0, 1), 3),
        (-3, (0, 1), 3), (-7, (0, 1), 3), (-11, (0, 1), 3), (2, (0, 1), 3),
        (3, (0, 1), 3), (5, (0, 1), 3), (-3, (1, 1), 3), (-2, (1, 1), 3),
        (-1, (0, 1), 4), (-7, (0, 1), 4), (-3, (1, 1), 4), (2, (0, 1), 4),
        (-1, (2, 0), 4), (5, (0, 1), 4), (-7, (1, 1), 4), (-11, (0, 1), 4),
    ]
    for m, coords, n in pipeline_cases:
        K = QuadField(m)
        docs.append(numfield_doc(numfield_pipeline(K, K.element(*coords), n=n)))
    return docs


def test_criterion_10_round_trips():
    docs = _round_trip_docs()
    assert len(docs) == 100
    mismatches = 0
    for doc in docs:
        text = canonical_json(doc)
        again = parse_json(text)
        if canonical_json(again) != text or verify_doc(again) is not True:
            mismatches += 1
    assert mismatches == 0
    print("\nACCEPTANCE 10/10 PASS: 100 certificates round-tripped with zero "
          "mismatches")
