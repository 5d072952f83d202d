"""The four workloads: inputs made from the seed, the ops, and their checks.

An op is one call of a workload's top-level entry point for one input. Ops
look smyth's functions up on their modules at call time, so that a traced
run's spans (spans.py) see every call.
`call` runs it and returns its output; `check` judges that output with the
independent checkers in oracle.py, and `fingerprint` reduces it to a value
that later rounds must reproduce exactly.

Inputs vary with the seed only in ways that keep each op's cost: which
coefficient tuple of a given (q, n, height, N), which sign-equivalent alpha
of a given ball size and certificate dimension, and the order of the ops.
So runs with different seeds do the same amount of work.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle
from build_corpus import load_corpus
from oracle import require


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], None]  # raises Reject on a wrong output
    fingerprint: Callable[[Any], Any]  # cheap; later rounds must reproduce it


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_fqt_tuple(rng: random.Random, q: int, n: int, d: int, passing: bool = True,
                     terms: int | None = None):
    """n coprime polynomials of height d over F_q; passing picks the criteria verdict.

    Coprime, because smyth divides a tuple by its gcd before anything else.
    terms, when given, fixes the number of nonzero coefficients in the tuple,
    which sets the cost of evaluating the linear relation.
    """
    while True:
        polys = []
        for _ in range(n):
            deg = rng.randrange(d + 1)
            coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            polys.append(oracle.p_trim(coeffs))
        if max(oracle.p_deg(p) for p in polys) != d:
            continue
        if terms is not None and sum(1 for p in polys for c in p if c) != terms:
            continue
        g = polys[0]
        for p in polys[1:]:
            g = oracle.p_gcd(g, p, q)
        if oracle.p_deg(g) == 0 and oracle.fqt_criteria(polys, q) == passing:
            return [oracle.p_format(p) for p in polys]


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops: list[Op] = []
        self.warm_ops: list[Op] = []
        # operand pairs taken from the inputs, for the ring-arithmetic timings
        self.poly_operands: list = []
        self.quad_operands: list = []

    def warm_up(self) -> None:
        for op in self.warm_ops:
            op.check(op.call())


# ---------------------------------------------------------------------------
# fqt-certify

# (q, n, height, N, ops per round); certificate dimension m = q^(N(n-1)-d) - 1
# runs from 15 to 8191 with no gap wider than a factor of about two. The
# extra copies at m = 124 and 127 put the median op inside a cluster of
# similar ops rather than at the edge between two clusters.
FQT_GRID = [
    (2, 3, 2, 3, 4), (5, 3, 2, 2, 4), (3, 3, 1, 2, 4), (2, 3, 1, 3, 4),
    (2, 4, 1, 2, 3), (2, 3, 2, 4, 4), (3, 3, 2, 3, 3), (3, 4, 2, 2, 3),
    (5, 3, 1, 2, 6), (2, 3, 1, 4, 6), (2, 4, 2, 3, 5), (3, 3, 1, 3, 3),
    (3, 4, 1, 2, 3), (2, 3, 2, 5, 3), (2, 4, 1, 3, 3), (2, 3, 1, 5, 3),
    (5, 3, 2, 3, 2), (5, 4, 2, 2, 2), (3, 3, 2, 4, 2), (2, 3, 2, 6, 2),
    (2, 4, 2, 4, 2), (2, 3, 1, 6, 2), (2, 4, 1, 4, 2), (3, 3, 1, 4, 2),
    (3, 4, 2, 3, 2), (5, 3, 1, 3, 1), (5, 4, 1, 2, 1), (2, 3, 2, 7, 1),
    (3, 3, 2, 5, 1), (3, 4, 1, 3, 1), (2, 3, 1, 7, 1), (2, 4, 2, 5, 1),
]


class FqtCertify(Workload):
    """In-process `smyth certify`: balanced_multiset + multiset_doc + canonical_json."""

    name = "fqt-certify"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        import smyth

        cases = []
        for q, n, d, N, copies in FQT_GRID:
            seen = set()
            while len(seen) < copies:
                seen.add(tuple(random_fqt_tuple(self.rng, q, n, d, terms=n + d)))
            cases.extend((q, list(coeffs), N, q ** (N * (n - 1) - d)) for coeffs in sorted(seen))
        self.rng.shuffle(cases)

        def op(q, coeffs, N):
            def call():
                a = smyth.CoeffTuple.make(smyth.FieldParams(q), coeffs)
                b = smyth.balanced_multiset(a, N)
                return smyth.canonical_json(smyth.multiset_doc(b, kind="certificate", N=N))

            def check(text):
                oracle.check_certify_output(text, q, coeffs, N)

            return Op(f"q={q} {';'.join(coeffs)} N={N}", call, check, digest)

        self.ops = [op(q, coeffs, N) for q, coeffs, N, _ in cases]
        smallest = {}
        for q, coeffs, N, size in cases:
            if q not in smallest or size < smallest[q][3]:
                smallest[q] = (q, coeffs, N, size)
        self.warm_ops = [op(q, coeffs, N) for q, coeffs, N, _ in smallest.values()]
        for q, coeffs, N, _ in cases:
            field = smyth.FieldParams(q)
            for c in coeffs:
                x = field.poly([self.rng.randrange(q) for _ in range(N)])
                self.poly_operands.append((smyth.parse_poly(field, c), x))


# ---------------------------------------------------------------------------
# verify-corpus


class VerifyCorpus(Workload):
    """parse_json + verify_doc on stored documents, valid and tampered."""

    name = "verify-corpus"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        import smyth
        from smyth import serialize
        from smyth.quadratic import QuadField, parse_quadint

        slots: dict[str, list] = {}
        for entry in load_corpus(root / "perfbench" / "corpus"):
            slots.setdefault(entry["slot"], []).append(entry)
        chosen = list(slots.values())
        self.rng.shuffle(chosen)

        def op(entry):
            text, valid = entry["text"], entry["valid"]

            def call():
                return serialize.verify_doc(serialize.parse_json(text))

            def check(verdict):
                require(verdict is valid, f"verdict {verdict}, expected {valid}")

            return Op(entry["file"], call, check, lambda verdict: verdict)

        # each valid document is followed by its tampered copies
        self.ops = [op(e) for group in chosen
                    for e in sorted(group, key=lambda e: not e["valid"])]
        self.warm_ops = [op(e) for group in chosen for e in group
                         if e["slot"] in ("fqt-m8-balanced", "int-size3", "extremal-int",
                                          "numfield-d3")]
        for group in chosen:
            # only the texts stay: parsed copies would swell the heap that
            # the collection before each op walks
            doc = group[0]["doc"]
            for entry in group:
                del entry["doc"]
            if group[0]["valid"] and doc["kind"] == "numfield":
                K = QuadField(doc["m"])
                alpha = parse_quadint(K, doc["alpha"])
                self.quad_operands.extend((alpha, parse_quadint(K, v))
                                          for v in doc["eigenvector"][:16])
            elif group[0]["valid"] and doc["kind"] in ("balanced", "certificate") \
                    and doc["ring"] == "fqt":
                field = smyth.FieldParams(doc["q"])
                self.poly_operands.extend(
                    (smyth.parse_poly(field, c), smyth.parse_poly(field, v))
                    for c, v in zip(doc["coeffs"], doc["kernel_vector"]))


# ---------------------------------------------------------------------------
# numfield-pipeline

# slot -> (m, n, sign-equivalent alphas); every alpha of a slot gives the
# same number of ball points P and the same certificate dimension, and the
# pipeline's time differs by at most about 5% between them
NUMFIELD_SLOTS = [
    ("P17-d56", -1, 5, ["3", "-3"]),
    ("P197-d4", -1, 4, ["-2+w", "2+w", "-2-w"]),
    ("P113-d50", -15, 4, ["-1+w", "1-w"]),
    ("P95-d6", 5, 3, ["w", "1-w"]),
    ("P61-d39", -3, 4, ["-2+w", "-1-w"]),
    ("P61-d30", -3, 5, ["w", "-w", "-1+w", "1-w"]),
    ("P67-d16", 2, 5, ["w", "-w"]),
    ("P33-d24", -2, 3, ["w", "-w"]),
    ("P49-d20", -1, 5, ["w", "-w"]),
    ("P49-d4", -1, 4, ["w", "-w"]),
    ("P43-d10", -7, 4, ["w", "-w", "-1+w", "1-w"]),
    ("P43-d6", -7, 3, ["w", "-w", "-1+w", "1-w"]),
    ("P13-d15", -1, 3, ["w", "-w"]),
    ("P19-d6", -3, 4, ["w", "-w", "-1+w", "1-w"]),
    ("P19-d3", -3, 3, ["w", "1-w"]),
    ("P49-d4-n3", -1, 3, ["1+w", "-1-w", "-1+w", "1-w"]),
]
# rational alphas: (alpha, n) over each of these m gives the same P and dimension
NUMFIELD_RATIONAL = [("1", 3), ("-1", 3), ("2", 4), ("-2", 4), ("2", 5), ("1", 5)]
NUMFIELD_RATIONAL_M = [-1, -2, -5, -7, -15]


class NumfieldPipeline(Workload):
    """numfield_pipeline(K, alpha, n) from lattice rounding to a verified split."""

    name = "numfield-pipeline"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        from smyth import numfield
        from smyth.quadratic import QuadField, parse_quadint
        from smyth.serialize import canonical_json, numfield_doc

        cases = [(m, self.rng.choice(alphas), n) for _, m, n, alphas in NUMFIELD_SLOTS]
        for alpha, n in NUMFIELD_RATIONAL:
            for m in self.rng.sample(NUMFIELD_RATIONAL_M, 4):
                cases.append((m, alpha, n))
        self.rng.shuffle(cases)

        def op(m, alpha_text, n):
            K = QuadField(m)
            alpha = parse_quadint(K, alpha_text)

            def call():
                return numfield.numfield_pipeline(K, alpha, n=n)

            def check(cert):
                doc = json.loads(canonical_json(numfield_doc(cert)))
                require((doc["m"], doc["alpha"], doc["n"]) == (m, alpha_text, n),
                        "certificate is for another input")
                oracle.check_numfield_doc(doc)

            def fingerprint(cert):
                return digest(canonical_json(numfield_doc(cert)))

            return Op(f"m={m} alpha={alpha_text} n={n}", call, check, fingerprint)

        self.ops = [op(*case) for case in cases]
        self.warm_ops = [op(-1, "1", 3), op(-3, "w", 3)]
        for m, alpha_text, n in cases:
            K = QuadField(m)
            alpha = parse_quadint(K, alpha_text)
            self.quad_operands.extend((alpha, K.element(x, y))
                                      for x in range(-2, 3) for y in range(-2, 3))


# ---------------------------------------------------------------------------
# cli


class Cli(Workload):
    """Fresh `python -m smyth.cli` processes, one at a time."""

    name = "cli"

    def __init__(self, root, seed, in_process: bool = False):
        super().__init__(root, seed)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.in_process = in_process
        rng = self.rng
        commands = []  # (argv, stdin, expected exit code, output check)

        def add(argv, code, check, stdin=None):
            commands.append((argv, stdin, code, check))

        for passing in (True, False):
            for _ in range(4):
                q, n, d = rng.choice([2, 3, 5]), rng.choice([3, 4]), rng.choice([1, 2])
                coeffs = random_fqt_tuple(rng, q, n, d, passing)
                add(["check", "--q", str(q), "--coeffs=" + ";".join(coeffs)], 0 if passing else 1,
                    lambda out, q=q, coeffs=coeffs: oracle.check_criteria_report(
                        json.loads(out), q, coeffs))
        for _ in range(4):
            coeffs = [rng.choice([-1, 1]) * rng.randrange(1, 30) for _ in range(3)]
            expected = oracle.int_criteria(coeffs)

            def int_report(out, coeffs=coeffs, expected=expected):
                doc = json.loads(out)
                require(doc["coeffs"] == coeffs and doc["passes"] is expected, "wrong verdict")

            add(["check", "--ring", "int", "--coeffs=" + ";".join(map(str, coeffs))],
                0 if expected else 1, int_report)
        for q, n, d, N in [(2, 3, 1, 2), (2, 3, 1, 3), (2, 3, 2, 3), (3, 3, 1, 2),
                           (2, 4, 1, 2), (5, 3, 1, 2)]:
            coeffs = random_fqt_tuple(rng, q, n, d)
            add(["enumerate", "--q", str(q), "--coeffs", ";".join(coeffs), "--N", str(N)], 0,
                lambda out, q=q, coeffs=coeffs, N=N: oracle.check_enumerate_output(
                    out, q, coeffs, N))
        for q, n, d, N in [(2, 3, 1, 3), (3, 3, 1, 2), (2, 3, 2, 4), (2, 4, 1, 3),
                           (3, 3, 1, 3), (2, 3, 1, 5)]:
            coeffs = random_fqt_tuple(rng, q, n, d)
            add(["certify", "--q", str(q), "--coeffs", ";".join(coeffs), "--N", str(N)], 0,
                lambda out, q=q, coeffs=coeffs, N=N: oracle.check_certify_output(
                    out, q, coeffs, N))
        small = [e for e in load_corpus(root / "perfbench" / "corpus")
                 if e["slot"] in ("fqt-m8-balanced", "fqt-m15-certificate", "int-size4",
                                  "extremal-fqt-q2", "numfield-d6", "numfield-d10")]
        valid = [e for e in small if e["valid"]]
        tampered = [e for e in small if not e["valid"]]
        for entry in rng.sample(valid, 3) + rng.sample(tampered, 3):
            def verdict(out, ok=entry["valid"]):
                require(json.loads(out) == {"kind": "verification", "verified": ok},
                        "wrong verification verdict")

            add(["verify", "-"], 0 if entry["valid"] else 1, verdict, stdin=entry["text"])
        for _ in range(4):
            m = rng.choice([-1, -2, -3, -7, 2, 3, 5])
            coeffs = [rng.choice([-1, 1]) * rng.randrange(1, 12) for _ in range(3)]
            expected = oracle.strong_rational_criteria(coeffs)

            def strong_report(out, expected=expected):
                require(json.loads(out)["passes"] is expected, "wrong strong-criteria verdict")

            add(["numfield", "--action", "check", "--m", str(m),
                 "--coeffs=" + ";".join(map(str, coeffs))], 0 if expected else 1, strong_report)
        for _ in range(3):
            q, d, n, N, g = rng.choice([2, 3]), rng.randrange(3), rng.choice([3, 4]), 1, \
                rng.randrange(2, 40)

            def pn(out, args=(q, d, n, N, g)):
                expected = oracle.pn_log(*args)
                got = json.loads(out)["log_p"]
                require(abs(got - expected) <= 1e-9 * abs(expected), f"log_p {got} != {expected}")

            add(["heuristic", "--mode", "pn", "--q", str(q), "--d", str(d), "--n", str(n),
                 "--N", str(N), "--group-size", str(g)], 0, pn)
        add(["extremal", "--q", str(rng.choice([2, 3])), "--D", "3", "--seed",
             str(rng.randrange(100))], 0, lambda out: oracle.check_extremal_doc(json.loads(out)))
        add(["extremal", "--ring", "int", "--D", str(rng.randrange(3, 7))], 0,
            lambda out: oracle.check_extremal_doc(json.loads(out)))
        add(["enumerate", "--q", "2", "--coeffs", "1;t;t+1"], 2,
            lambda out: require(out == "", "usage error printed output"))

        rng.shuffle(commands)
        self.ops = [self._op(*c) for c in commands]
        self.warm_ops = [self._op(["check", "--q", "2", "--coeffs", "1;t;t+1"], None, 0,
                                  lambda out: None)]

    def _op(self, argv, stdin, code, check_output):
        def call():
            if self.in_process:
                return self._main_in_process(argv, stdin)
            proc = subprocess.run([sys.executable, "-m", "smyth.cli", *argv], input=stdin,
                                  capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=120)
            return proc.returncode, proc.stdout

        def check(result):
            got_code, out = result
            require(got_code == code, f"exit code {got_code}, expected {code}")
            check_output(out)

        return Op(" ".join(argv), call, check, lambda result: (result[0], digest(result[1])))

    def _main_in_process(self, argv, stdin):
        from smyth import cli

        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exit_:
                    code = exit_.code
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def time_process(self, code: str) -> float:
        """Wall time of one fresh interpreter running code."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.root,
                       check=True, timeout=120)
        return time.perf_counter() - start


WORKLOADS = {w.name: w for w in (FqtCertify, VerifyCorpus, NumfieldPipeline, Cli)}


def make(name: str, root: Path, seed: int, traced: bool = False) -> Workload:
    if name == Cli.name:
        return Cli(root, seed, in_process=traced)
    return WORKLOADS[name](root, seed)
