"""Independent checkers for smyth's outputs.

Nothing in the checking code imports smyth. Every verdict is re-derived
with plain integers:

* F_q[t] arithmetic on coefficient tuples (ascending, trimmed);
* Z[w] arithmetic on integer pairs (x, y) meaning x + y*w;
* the counting theorem |T_N| = q^(N(n-1)-d), each value of V_N occurring
  q^(N(n-2)-d) times per column;
* line sums n-1 for a doubly regular matrix and the permutations summing to
  it;
* M.v = alpha.v with v != 0, which proves det(M - alpha*I) = 0.

Each checker raises Reject with a reason, or returns None. `corruptions`
yields deliberately broken copies of a document; each breaks a defining
equation, so its checker must reject it.

Run `python3 perfbench/oracle.py` from the repository root for the
self-check: every stored corpus document and a few freshly produced outputs
must pass, and every corruption of them must be rejected.
"""
from __future__ import annotations

import json
import math
import random
import re
from collections import Counter


class Reject(Exception):
    """An output breaks a defining equation."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise Reject(reason)


def accepts(check, *args) -> bool:
    try:
        check(*args)
    except Reject:
        return False
    return True


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# small integer helpers


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


def prime_factors(g: int) -> list[int]:
    out = []
    k = 2
    while k * k <= g:
        if g % k == 0:
            out.append(k)
            while g % k == 0:
                g //= k
        k += 1
    if g > 1:
        out.append(g)
    return out


def is_squarefree(m: int) -> bool:
    m = abs(m)
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def power(base, e: int, one, mul):
    acc = one
    while e:
        if e & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        e >>= 1
    return acc


def group_element_order(u, one, mul, group_order: int) -> int:
    """Order of u in a cyclic group of the given order, by prime stripping."""
    require(power(u, group_order, one, mul) == one, "element is not in the unit group")
    order = group_order
    for p in prime_factors(group_order):
        while order % p == 0 and power(u, order // p, one, mul) == one:
            order //= p
    return order


# ---------------------------------------------------------------------------
# F_q[t] on ascending coefficient tuples


def p_trim(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def p_add(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return p_trim(out)


def p_neg(a, q):
    return tuple((-c) % q for c in a)


def p_mul(a, b, q):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return p_trim(c % q for c in out)


def p_divmod(a, b, q):
    require(bool(b), "division by the zero polynomial")
    inv = pow(b[-1], q - 2, q)
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b) and rem:
        shift = len(rem) - len(b)
        c = rem[-1] * inv % q
        quot[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] = (rem[shift + j] - c * y) % q
        rem = list(p_trim(rem))
    return p_trim(quot), p_trim(rem)


def p_gcd(a, b, q):
    while b:
        a, b = b, p_divmod(a, b, q)[1]
    return a


def p_deg(a) -> int:
    return len(a) - 1


_TERM = re.compile(r"(\d+)|(?:(\d+)\*)?t(?:\^(\d+))?")


def p_parse(text, q: int) -> tuple:
    """Read smyth's canonical polynomial text, e.g. '2*t^3+t+1'."""
    require(isinstance(text, str) and text != "", f"bad polynomial {text!r}")
    if text == "0":
        return ()
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        m = _TERM.fullmatch(term)
        require(m is not None, f"bad term {term!r} in {text!r}")
        if m.group(1) is not None:
            c, k = int(m.group(1)), 0
        else:
            c = int(m.group(2)) if m.group(2) else 1
            k = int(m.group(3)) if m.group(3) else 1
        require(0 < c < q and k not in coeffs, f"non-canonical term {term!r}")
        coeffs[k] = c
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return p_trim(out)


def p_format(a) -> str:
    """Polynomial text with descending powers, as the CLI reads it."""
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if not c:
            continue
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        if not mono:
            parts.append(str(c))
        else:
            parts.append(mono if c == 1 else f"{c}*{mono}")
    return "+".join(parts)


def fqt_criteria(coeffs, q: int) -> bool:
    """Max degree attained twice, and every complementary gcd a unit."""
    degs = [p_deg(a) for a in coeffs]
    if degs.count(max(degs)) < 2:
        return False
    for i in range(len(coeffs)):
        g = ()
        for j, a in enumerate(coeffs):
            if j != i:
                g = p_gcd(a, g, q) if g else a
        if p_deg(g) != 0:
            return False
    return True


def fqt_irreducible(c, q: int) -> bool:
    D = p_deg(c)
    for k in range(1, D // 2 + 1):
        for tail in range(q ** k):
            f = [(tail // q ** i) % q for i in range(k)] + [1]
            if not p_divmod(c, tuple(f), q)[1]:
                return False
    return D >= 1


# ---------------------------------------------------------------------------
# Z[w] on integer pairs


def quad_params(m: int) -> tuple[int, int]:
    """(trace, norm) of w: w = (1+sqrt m)/2 when m = 1 mod 4, else sqrt m."""
    if m % 4 == 1:
        return 1, (1 - m) // 4
    return 0, -m


def q_mul(a, b, tr: int, nm: int):
    (x1, y1), (x2, y2) = a, b
    yy = y1 * y2
    return (x1 * x2 - yy * nm, x1 * y2 + y1 * x2 + yy * tr)


_W_TERM = re.compile(r"(-?\d+(?=[+-]))?([+-]?)(\d+\*)?")


def q_parse(text) -> tuple[int, int]:
    """Read 'x+y*w' text as printed by smyth ('-3+2*w', 'w', '1-w', '0')."""
    require(isinstance(text, str) and text != "", f"bad quadratic integer {text!r}")
    if not text.endswith("w"):
        require(re.fullmatch(r"-?\d+", text) is not None, f"bad quadratic integer {text!r}")
        return int(text), 0
    m = _W_TERM.fullmatch(text[:-1])
    require(m is not None, f"bad quadratic integer {text!r}")
    x = int(m.group(1)) if m.group(1) else 0
    y = int(m.group(3)[:-1]) if m.group(3) else 1
    return x, -y if m.group(2) == "-" else y


def q_format(a) -> str:
    x, y = a
    if not x and not y:
        return "0"
    out = str(x) if x else ""
    if y:
        term = "w" if y == 1 else "-w" if y == -1 else f"{y}*w"
        out += term if (not out or term.startswith("-")) else "+" + term
    return out


# ---------------------------------------------------------------------------
# multiset and certificate documents (F_q[t] and Z)


def _ring_ops(doc: dict):
    ring = doc.get("ring", "fqt")
    if ring == "fqt":
        q = doc.get("q")
        require(isinstance(q, int) and is_prime(q), f"bad field size {q!r}")
        zero = ()
        parsed: dict = {}

        def read(s):
            value = parsed.get(s)
            if value is None:
                value = parsed[s] = p_parse(s, q)
            return value

        def lin(coeffs, row):
            acc = zero
            for c, x in zip(coeffs, row):
                acc = p_add(acc, p_mul(c, x, q), q)
            return acc

        return read, lin, zero
    require(ring == "int", f"unknown ring {ring!r}")

    def read_int(v):
        require(isinstance(v, int) and not isinstance(v, bool), f"bad integer {v!r}")
        return v

    return read_int, lambda coeffs, row: sum(c * x for c, x in zip(coeffs, row)), 0


def check_multiset_doc(doc: dict) -> list:
    """Rows satisfy the relation, columns balance, permutations bind the rows.

    The certificate contract: for the kernel vector v and permutations
    p_1..p_n (p_n the identity), row k is (v[p_1[k]], ..., v[p_n[k]]) and
    sum_i a_i v[p_i[k]] = 0.
    """
    require(doc.get("kind") in ("balanced", "certificate"), "wrong kind")
    read, lin, zero = _ring_ops(doc)
    n, m = doc.get("n"), doc.get("m")
    require(isinstance(n, int) and n >= 3 and isinstance(m, int) and m >= 1,
            "bad n or m")
    coeffs = [read(c) for c in doc.get("coeffs", [])]
    require(len(coeffs) == n and all(c != zero for c in coeffs), "bad coefficients")
    rows = [tuple(read(v) for v in row) for row in doc.get("tuples", [])]
    require(len(rows) == m, f"{len(rows)} tuples for m = {m}")
    for row in rows:
        require(len(row) == n, "tuple of wrong arity")
        require(any(v != zero for v in row), "zero tuple in the multiset")
        require(lin(coeffs, row) == zero, f"tuple {row} breaks the linear relation")
    columns = [Counter(row[i] for row in rows) for i in range(n)]
    require(all(c == columns[0] for c in columns), "columns carry different multisets")
    kernel = [read(v) for v in doc.get("kernel_vector", [])]
    require(len(kernel) == m and any(v != zero for v in kernel), "bad kernel vector")
    perms = doc.get("permutations", [])
    require(len(perms) == n, "wrong number of permutations")
    for p in perms:
        require(sorted(p) == list(range(1, m + 1)), "malformed permutation")
    require(perms[-1] == list(range(1, m + 1)), "last permutation is not the identity")
    for k in range(m):
        image = tuple(kernel[p[k] - 1] for p in perms)
        require(lin(coeffs, image) == zero, f"certificate row {k} breaks the relation")
        require(image == rows[k], f"permutations do not rebuild tuple {k}")
    return rows


def check_certify_output(text: str, q: int, coeffs_text, N: int) -> dict:
    """What `smyth certify` must print for a passing tuple: T_N minus zero."""
    doc = json.loads(text)
    require(text == canonical(doc), "output is not canonical JSON")
    coeffs = [p_parse(c, q) for c in coeffs_text]
    n = len(coeffs)
    d = max(p_deg(c) for c in coeffs)
    require(doc.get("kind") == "certificate" and doc.get("ring") == "fqt", "wrong kind")
    require(doc.get("q") == q and doc.get("N") == N and doc.get("n") == n, "wrong header")
    require([p_parse(c, q) for c in doc["coeffs"]] == coeffs, "coefficients changed")
    rows = check_multiset_doc(doc)
    size = q ** (N * (n - 1) - d)
    fiber = q ** (N * (n - 2) - d)
    require(doc["m"] == size - 1, f"m = {doc['m']}, counting theorem gives {size - 1}")
    require(len(set(rows)) == len(rows), "repeated solution tuple")
    require(all(p_deg(v) < N for row in rows for v in row), "entry outside V_N")
    counts = Counter(row[0] for row in rows)
    require(len(counts) == q ** N if fiber > 1 else len(counts) == q ** N - 1,
            "a value of V_N is missing from the first column")
    for value, count in counts.items():
        require(count == (fiber - 1 if value == () else fiber),
                f"value {value} occurs {count} times, expected {fiber}")
    return doc


def check_enumerate_output(text: str, q: int, coeffs_text, N: int) -> None:
    doc = json.loads(text)
    coeffs = [p_parse(c, q) for c in coeffs_text]
    n = len(coeffs)
    d = max(p_deg(c) for c in coeffs)
    size = q ** (N * (n - 1) - d)
    require(doc.get("kind") == "enumeration" and doc.get("N") == N, "wrong header")
    require(doc.get("count") == size == doc.get("expected_count"),
            f"count {doc.get('count')}, counting theorem gives {size}")
    rows = [tuple(p_parse(v, q) for v in row) for row in doc["solutions"]]
    require(len(rows) == size and len(set(rows)) == size, "solutions are not T_N")
    for row in rows:
        require(len(row) == n and all(p_deg(v) < N for v in row), "entry outside V_N")
        acc = ()
        for c, x in zip(coeffs, row):
            acc = p_add(acc, p_mul(c, x, q), q)
        require(acc == (), f"solution {row} breaks the relation")


# ---------------------------------------------------------------------------
# extremal documents


def check_extremal_doc(doc: dict) -> None:
    """The order of -a/b modulo c equals the group order and the claim."""
    require(doc.get("kind") == "extremal", "wrong kind")
    D, order = doc.get("D"), doc.get("order")
    claimed, group_order = doc.get("claimed_min"), doc.get("group_order")
    require(all(isinstance(v, int) for v in (D, order, claimed, group_order)),
            "bad integer field")
    require(doc.get("generator_flag") == (order == group_order), "generator flag is wrong")
    if doc.get("ring") == "fqt":
        q = doc.get("q")
        require(isinstance(q, int) and is_prime(q), "bad field size")
        a, b, c = (p_parse(s, q) for s in doc["triple"])
        require(p_deg(c) == D and fqt_irreducible(c, q), "modulus is not irreducible of degree D")
        require(fqt_criteria([a, b, c], q), "triple fails the criteria")
        inv_c = pow(c[-1], q - 2, q)
        c = tuple(x * inv_c % q for x in c)
        b_mod = p_divmod(b, c, q)[1]
        require(bool(b_mod), "b vanishes modulo c")

        def mul(x, y):
            return p_divmod(p_mul(x, y, q), c, q)[1]

        expected_group = q ** D - 1
        b_inv = power(b_mod, expected_group - 1, (1,), mul)
        u = mul(p_divmod(p_neg(a, q), c, q)[1], b_inv)
        true_order = group_element_order(u, (1,), mul, expected_group)
        require(claimed == expected_group, "claim is not q^D - 1")
    else:
        require(doc.get("ring") == "int", "unknown ring")
        a, b, p = doc["triple"]
        if doc.get("degenerate"):
            require((a, b, p, D, claimed) == (1, 1, 2, 1, 1), "bad degenerate instance")
        else:
            require(is_prime(p), "modulus is not prime")
            require(int_criteria([a, b, p]), "triple fails the criteria")
        expected_group = p - 1
        u = (-a * pow(b, -1, p)) % p
        true_order = group_element_order(u, 1, lambda x, y: x * y % p, expected_group)
    require(group_order == expected_group, "group order is wrong")
    require(order == true_order == claimed, f"order {order}, recomputed {true_order}")


# ---------------------------------------------------------------------------
# number-field certificates


def check_numfield_doc(doc: dict) -> None:
    """Doubly regular, split into the stated permutations, and M.v = alpha.v."""
    require(doc.get("kind") == "numfield", "wrong kind")
    m, n = doc.get("m"), doc.get("n")
    require(isinstance(m, int) and m not in (0, 1) and is_squarefree(m), "bad m")
    require(doc.get("omega") == ("half" if m % 4 == 1 else "sqrt"), "wrong omega")
    require(isinstance(n, int) and n >= 3, "bad n")
    tr, nm = quad_params(m)
    alpha = q_parse(doc.get("alpha"))
    matrix = doc.get("matrix", [])
    dim = len(matrix)
    require(dim >= 1 and doc.get("dimension") == dim, "bad dimension")
    for row in matrix:
        require(len(row) == dim and all(isinstance(v, int) and v >= 0 for v in row),
                "matrix is not square and nonnegative")
        require(sum(row) == n - 1, "row sum is not n-1")
    for j in range(dim):
        require(sum(row[j] for row in matrix) == n - 1, "column sum is not n-1")
    perms = doc.get("permutations", [])
    require(len(perms) == n - 1, "wrong number of permutations")
    summed = [[0] * dim for _ in range(dim)]
    for p in perms:
        require(sorted(p) == list(range(1, dim + 1)), "malformed permutation")
        for k, image in enumerate(p):
            summed[k][image - 1] += 1
    require(summed == matrix, "permutations do not sum to the matrix")
    vec = [q_parse(s) for s in doc.get("eigenvector", [])]
    require(len(vec) == dim and any(v != (0, 0) for v in vec), "bad eigenvector")
    for i, row in enumerate(matrix):
        x = y = 0
        for c, (vx, vy) in zip(row, vec):
            if c:
                x += c * vx
                y += c * vy
        require((x, y) == q_mul(alpha, vec[i], tr, nm), f"M.v != alpha.v at row {i}")


def check_doc(doc: dict) -> None:
    kind = doc.get("kind")
    if kind in ("balanced", "certificate"):
        check_multiset_doc(doc)
    elif kind == "extremal":
        check_extremal_doc(doc)
    elif kind == "numfield":
        check_numfield_doc(doc)
    else:
        raise Reject(f"kind {kind!r} is not a verifiable document")


# ---------------------------------------------------------------------------
# report checks for the CLI


def check_criteria_report(doc: dict, q: int, coeffs_text) -> bool:
    coeffs = [p_parse(c, q) for c in coeffs_text]
    expected = fqt_criteria(coeffs, q)
    require(doc.get("kind") == "criteria-report" and doc.get("q") == q, "wrong header")
    require([p_parse(c, q) for c in doc["coeffs"]] == coeffs, "coefficients changed")
    require(doc.get("height") == max(p_deg(c) for c in coeffs), "wrong height")
    require(doc.get("passes") is expected, f"passes should be {expected}")
    return expected


def int_criteria(coeffs) -> bool:
    total = sum(abs(c) for c in coeffs)
    if any(c == 0 or 2 * abs(c) > total for c in coeffs):
        return False
    for i in range(len(coeffs)):
        g = 0
        for j, c in enumerate(coeffs):
            if j != i:
                g = math.gcd(g, c)
        if g != 1:
            return False
    return True


def strong_rational_criteria(coeffs) -> bool:
    """Strict triangle inequality and unit complementary gcds, for integers."""
    total = sum(abs(c) for c in coeffs)
    if any(2 * abs(c) >= total for c in coeffs):
        return False
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    return int_criteria([c // g for c in coeffs])


def pn_log(q: int, d: int, n: int, N: int, group_size: int) -> float:
    """log p_N = |G|^(n-1) * log(1 - q^(-(N+d) q^N)), in floating point."""
    return group_size ** (n - 1) * math.log1p(-float(q) ** (-(N + d) * q ** N))


# ---------------------------------------------------------------------------
# corruptions


def _pick(rng: random.Random, seq):
    return seq[rng.randrange(len(seq))]


def corruptions(doc: dict, rng: random.Random):
    """Yield (label, copy) pairs, each copy changing one field of doc."""
    kind = doc["kind"]
    if kind in ("balanced", "certificate"):
        m, n = doc["m"], doc["n"]
        if doc.get("ring", "fqt") == "fqt":
            q = doc["q"]
            width = 1 + max(p_deg(p_parse(v, q)) for v in doc["kernel_vector"])

            def other(value):
                p = p_parse(value, q)
                while True:
                    r = p_trim(rng.randrange(q) for _ in range(max(width, 1)))
                    if r != p:
                        return p_format(r)
        else:
            def other(value):
                return value + _pick(rng, (-2, -1, 1, 2))
        k = rng.randrange(m)
        bad = json.loads(json.dumps(doc))
        bad["kernel_vector"][k] = other(bad["kernel_vector"][k])
        yield "kernel-entry", bad
        bad = json.loads(json.dumps(doc))
        i = rng.randrange(n)
        bad["tuples"][k][i] = other(bad["tuples"][k][i])
        yield "tuple-entry", bad
        if m >= 2:
            bad = json.loads(json.dumps(doc))
            p = bad["permutations"][rng.randrange(n - 1)]
            i = rng.randrange(m)
            others = [j for j in range(m)
                      if bad["kernel_vector"][p[j] - 1] != bad["kernel_vector"][p[i] - 1]]
            if others:
                j = _pick(rng, others)
                p[i], p[j] = p[j], p[i]
                yield "permutation-swap", bad
    elif kind == "extremal":
        bad = dict(doc)
        bad["order"] = doc["order"] + _pick(rng, (-1, 1))
        yield "order", bad
        bad = dict(doc)
        bad["claimed_min"] = doc["claimed_min"] * 2
        yield "claimed-min", bad
    elif kind == "numfield":
        dim = doc["dimension"]
        bad = json.loads(json.dumps(doc))
        k = rng.randrange(dim)
        x, y = q_parse(bad["eigenvector"][k])
        bad["eigenvector"][k] = q_format((x + _pick(rng, (-1, 1)), y))
        yield "eigenvector-entry", bad
        bad = json.loads(json.dumps(doc))
        x, y = q_parse(bad["alpha"])
        bad["alpha"] = q_format((x, y + _pick(rng, (-1, 1))))
        yield "alpha", bad
        if dim >= 2:
            bad = json.loads(json.dumps(doc))
            p = bad["permutations"][rng.randrange(len(bad["permutations"]))]
            i, j = rng.sample(range(dim), 2)
            p[i], p[j] = p[j], p[i]
            yield "permutation-swap", bad


# ---------------------------------------------------------------------------
# self-check


def _self_check() -> int:
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    import smyth
    from smyth.quadratic import QuadField, parse_quadint

    from build_corpus import load_corpus

    rng = random.Random("oracle-self-check")
    problems = []

    def expect(label, check, args, ok):
        if accepts(check, *args) != ok:
            problems.append(f"{label}: checker {'rejected' if ok else 'accepted'} it")

    entries = load_corpus(root / "perfbench" / "corpus")
    for entry in entries:
        expect(entry["file"], check_doc, (entry["doc"],), entry["valid"])
        if entry["valid"]:
            for label, bad in corruptions(entry["doc"], rng):
                expect(f"{entry['file']} {label}", check_doc, (bad,), False)

    field = smyth.FieldParams(3)
    coeffs = ["1", "t", "t+2"]
    a = smyth.CoeffTuple.make(field, coeffs)
    text = smyth.canonical_json(smyth.multiset_doc(smyth.balanced_multiset(a, 2),
                                                   kind="certificate", N=2))
    expect("certify output", check_certify_output, (text, 3, coeffs, 2), True)
    doc = json.loads(text)
    shrunk = json.loads(text)
    shrunk["tuples"].pop()
    shrunk["m"] -= 1
    for p in shrunk["permutations"]:
        p[:] = [v for v in p if v <= shrunk["m"]]
    shrunk["kernel_vector"].pop()
    expect("certify missing row", check_certify_output,
           (canonical(shrunk), 3, coeffs, 2), False)
    expect("certify wrong N", check_certify_output, (text, 3, coeffs, 3), False)
    expect("certify indentation", check_certify_output,
           (json.dumps(doc, sort_keys=True), 3, coeffs, 2), False)
    for label, bad in corruptions(doc, rng):
        expect(f"certify {label}", check_certify_output, (canonical(bad), 3, coeffs, 2), False)

    K = QuadField(-2)
    cert = smyth.numfield_pipeline(K, parse_quadint(K, "w"), n=3)
    ndoc = json.loads(smyth.canonical_json(smyth.numfield_doc(cert)))
    expect("pipeline output", check_numfield_doc, (ndoc,), True)
    for label, bad in corruptions(ndoc, rng):
        expect(f"pipeline {label}", check_numfield_doc, (bad,), False)
    bad = json.loads(json.dumps(ndoc))
    bad["matrix"][0][0] += 1
    bad["matrix"][0][1] -= 1
    expect("pipeline matrix entry", check_numfield_doc, (bad,), False)

    for ext in (smyth.construct_extremal_fqt(3, 2), smyth.construct_extremal_int(4)):
        edoc = smyth.extremal_doc(ext)
        expect("extremal output", check_extremal_doc, (edoc,), True)
        for label, bad in corruptions(edoc, rng):
            expect(f"extremal {label}", check_extremal_doc, (bad,), False)

    report = {"kind": "criteria-report", "q": 2, "coeffs": ["1", "t", "t+1"],
              "height": 1, "passes": True}
    expect("criteria report", check_criteria_report, (report, 2, ["1", "t", "t+1"]), True)
    expect("criteria report flipped", check_criteria_report,
           (dict(report, passes=False), 2, ["1", "t", "t+1"]), False)

    for line in problems:
        print(line)
    print(f"self-check: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(_self_check())
