"""`smyth batch` rows against a frozen reference copy of their older form.

`reference_batch_row` is `cli.batch_row` as it was before the row was read
off kernel dimensions: it lists all of T_N with `enumerate_solutions` and
counts each coordinate's values with a `Counter`. `cli.batch_row` must give
the same row, key for key, on criteria-failing tuples and on error rows.
The acceptance grid is compared in `tests/test_acceptance.py`, whose fiber
count criterion runs the reference once per grid row.

`solution_dimensions` is also held to the enumeration directly on tuples
that fail the criteria, where T_N can be of any size and a coordinate can
miss values: q^dim is the number of solutions, q^(zero fiber dimension) the
number with x_i = 0, and a coordinate takes every value of V_N equally
often exactly when its zero fiber has dimension dim - N.
"""
import time
from collections import Counter

import pytest

from smyth.cli import _fqt_tuple, batch_row
from smyth.core import CriteriaReport, check_criteria, enumerate_solutions, solution_dimensions
from smyth.errors import SmythError

BUDGET = 1 << 24


def reference_batch_row(item: tuple[int, int, str, int]) -> dict:
    """Check count and fiber regularity for one grid row. Pure function."""
    q, N, coeffs_text, budget = item
    out: dict = {"q": q, "N": N, "coeffs": coeffs_text}
    try:
        a = _fqt_tuple(q, coeffs_text)
        if not check_criteria(a).passes:
            out["status"] = "not-applicable"
            out["note"] = "criteria fail"
            return out
        d = max(a.height, 0)
        sols = enumerate_solutions(a, N, budget)
        expected_size = q ** (N * (a.n - 1) - d)
        expected_fiber = q ** (N * (a.n - 2) - d)
        out["size"] = len(sols)
        out["expected_size"] = expected_size
        out["expected_fiber"] = expected_fiber
        if len(sols) != expected_size:
            out["status"] = "mismatch"
            out["note"] = "solution count differs from the formula"
            return out
        for j in range(a.n):
            counts = Counter(s[j] for s in sols)
            if len(counts) != q ** N or any(v != expected_fiber
                                            for v in counts.values()):
                out["status"] = "mismatch"
                out["note"] = f"fiber counts at coordinate {j + 1} are irregular"
                return out
        out["status"] = "ok"
        out["note"] = ""
        return out
    except (SmythError, ValueError) as err:
        out["status"] = "error"
        out["note"] = str(err)
        return out


def failing_cases():
    """(tuple, N) for criteria-failing tuples at q = 2, 3 and 5, N = height and height + 1."""
    from test_acceptance import _failing_cell  # test_acceptance imports this module

    return [(a, N) for q in (2, 3, 5) for a in _failing_cell(q, 3, 15)
            for N in (a.height, a.height + 1)]


def coeffs_text(a):
    return ";".join(str(c) for c in a.coeffs)


ERROR_ROWS = [
    (2, 1, "1;t^2;t^2+1"),   # N below the height
    (2, 0, "1;t;t+1"),       # N = 0
    (2, 30, "1;t;t+1"),      # 2^60 candidates, past the budget
    (5, 12, "1;t;t+1;t+2"),  # 5^36 candidates, past the budget
    (2, 1, "1;t;x"),         # a bad term
    (4, 1, "1;t;t+1"),       # q is not prime
    (2, 1, "1;t"),           # a pair
    (3, 1, "1;0;t"),         # a zero coefficient
]


def test_failing_tuples_give_the_reference_rows():
    for a, N in failing_cases():
        item = (a.field.q, N, coeffs_text(a), BUDGET)
        assert batch_row(item) == reference_batch_row(item), (str(a), N)


def test_failing_tuples_read_as_passing_give_the_reference_rows(monkeypatch):
    # with the criteria check forced to pass, failing tuples reach the count
    # and fiber checks, and the fiber check reports them
    def passes(a):
        return CriteriaReport(True, True, True)

    monkeypatch.setattr("smyth.cli.check_criteria", passes)
    monkeypatch.setitem(globals(), "check_criteria", passes)
    statuses = Counter()
    for a, N in failing_cases():
        item = (a.field.q, N, coeffs_text(a), BUDGET)
        row = batch_row(item)
        assert row == reference_batch_row(item), (str(a), N)
        statuses[row["status"]] += 1
    assert statuses["mismatch"] > 0, statuses


@pytest.mark.parametrize("row", ERROR_ROWS)
def test_error_rows_give_the_reference_rows(row):
    item = (*row, BUDGET)
    got = batch_row(item)
    assert got["status"] == "error"
    assert got == reference_batch_row(item)


def test_small_budgets_give_the_reference_rows():
    for budget in (1, 3, 4, 63, 64):
        for q, N, text in [(2, 1, "1;t;t+1"), (2, 3, "1;t;t+1"), (3, 1, "1;t;t+1;t+2")]:
            item = (q, N, text, budget)
            assert batch_row(item) == reference_batch_row(item), item


def test_dimensions_match_the_enumeration_on_failing_tuples():
    irregular = 0
    for a, N in failing_cases():
        q = a.field.q
        sols = enumerate_solutions(a, N, BUDGET)
        k, zero_fibers = solution_dimensions(a, N, BUDGET)
        assert len(sols) == q ** k, (str(a), N)
        for i, z in enumerate(zero_fibers):
            counts = Counter(s[i] for s in sols)
            assert counts[a.field.zero] == q ** z, (str(a), N, i)
            regular = len(counts) == q ** N and len(set(counts.values())) == 1
            assert regular == (z == k - N), (str(a), N, i)
            irregular += not regular
    assert irregular > 0  # the cases reach both answers


def test_dimensions_refuse_as_the_enumeration_does():
    a = _fqt_tuple(2, "1;t^2;t^2+1")
    for N, budget in ((1, BUDGET), (0, BUDGET), (30, BUDGET), (3, 63)):
        with pytest.raises((ValueError, SmythError)) as want:
            enumerate_solutions(a, N, budget)
        with pytest.raises(type(want.value)) as got:
            solution_dimensions(a, N, budget)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "required", None) == getattr(want.value, "required", None)


def test_a_grid_row_far_past_the_budget_is_refused_at_once():
    start = time.perf_counter()
    row = batch_row((3, 10_000_000, "1;t;t+1", BUDGET))
    assert time.perf_counter() - start < 1
    assert row["status"] == "error"
    assert row["note"] == f"enumeration needs 3^20000000 candidates, budget is {BUDGET}"


def test_n_12_reads_in_milliseconds():
    # listing T_N here takes about 20 s; its dimensions are read from 4 kernels
    start = time.perf_counter()
    row = batch_row((2, 12, "1;t;t+1", BUDGET))
    assert time.perf_counter() - start < 0.5
    assert row == {"q": 2, "N": 12, "coeffs": "1;t;t+1", "status": "ok", "size": 2 ** 23,
                   "expected_size": 2 ** 23, "expected_fiber": 2 ** 11, "note": ""}
