"""Spans around the public functions of smyth's modules, for traced runs.

`Tracer.install` replaces each listed function, wherever a smyth module
holds it, by a wrapper that adds the call's duration to a per-round span
total and records counts read off its arguments and result. `uninstall`
puts the originals back. Nested calls of the same span are counted once,
at the outermost call.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, span name); spans sharing a name add up
SPANS = [
    ("core", "enumerate_solutions", "core.enumerate"),
    ("core", "certificate_from_balanced", "core.certificate"),
    ("core", "verify_certificate", "core.verify_certificate"),
    ("core", "balanced_from_certificate", "core.rebuild"),
    ("serialize", "multiset_doc", "serialize.emit"),
    ("serialize", "canonical_json", "serialize.emit"),
    ("serialize", "parse_json", "serialize.parse"),
    ("serialize", "verify_doc", "serialize.verify"),
    ("numfield", "matrix_fixes", "numfield.fixes"),
    ("numfield", "verify_numfield_certificate", "numfield.det"),
    ("numfield", "lattice_rounding_step", "numfield.rounding"),
    ("numfield", "perron_bridge", "numfield.bridge"),
    ("numfield", "birkhoff_decompose", "numfield.birkhoff"),
    ("numfield", "numfield_pipeline", "numfield.pipeline"),
]


def _verify_span(doc, result) -> str:
    """verify_doc time is split by document kind; rejections go apart."""
    if result is not True:
        return "serialize.reject"
    kind = doc.get("kind")
    if kind in ("balanced", "certificate"):
        kind = "int" if doc.get("ring") == "int" else "fqt"
    return f"serialize.verify_{kind}"


def _count(counts, name, args, result) -> None:
    if name == "core.enumerate":
        a, N = args[0], args[1]
        counts["core.candidates"] += a.field.q ** (N * (a.n - 1))
        counts["core.rows"] += len(result)
    elif name == "numfield.rounding":
        points = len(result.points)
        counts["numfield.ball_points"] += points
        counts["numfield.rounding_pairs"] += points * points
        counts["numfield.attempts"] += 1
    elif name == "numfield.pipeline":
        counts["numfield.dimension"] += len(result.matrix)
    elif name == "serialize.emit" and isinstance(result, str):
        counts["serialize.doc_bytes"] += len(result.encode())


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self._depth = defaultdict(int)
        self._undo = []

    def _wrap(self, func, name):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth = self._depth
            if depth[name]:
                return func(*args, **kwargs)
            depth[name] += 1
            start = clock()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                depth[name] -= 1
                span = _verify_span(args[0], result) if name == "serialize.verify" else name
                self.seconds[span] += elapsed
                if result is not None:
                    _count(self.counts, name, args, result)

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "smyth" or key.startswith("smyth.")]
        for module_name, attr, name in SPANS:
            orig = getattr(sys.modules[f"smyth.{module_name}"], attr)
            wrapper = self._wrap(orig, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, value))
        core = sys.modules["smyth.core"]
        make = core.BalancedMultiset.__dict__["make"]
        core.BalancedMultiset.make = classmethod(self._wrap(make.__func__, "core.balance"))
        self._undo.append((core.BalancedMultiset, "make", make))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def take_round(self) -> tuple[dict, dict]:
        """Span seconds and counts since the last call, then reset."""
        seconds, counts = dict(self.seconds), dict(self.counts)
        self.seconds.clear()
        self.counts.clear()
        return seconds, counts
