"""Benchmark for smyth: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; smyth is imported from src/. The run builds
its inputs from the seed and warms up, then repeats whole rounds of the
workload's fixed op sequence while another round still fits in S seconds.
Each op's output is judged by the independent checkers in oracle.py in the
first round and must be reproduced exactly in later rounds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the ops run with spans around smyth's public
functions and the metrics are the per-layer ones (see README.md).
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import Reject

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
TAIL_BEYOND = 10  # op_tail_ms: percentile with this many of a round's ops beyond it
WORKLOAD_NAMES = ("fqt-certify", "verify-corpus", "numfield-pipeline", "cli")

# per-layer metric -> unit; values are per round (median over rounds), except
# the _us ring-arithmetic timings (per call) and cli.* (per command)
PER_LAYER_UNITS = {
    "core.enumerate_ms": "ms", "core.candidates": "count", "core.rows": "count",
    "core.hit_ratio": "ratio", "core.balance_ms": "ms", "core.certificate_ms": "ms",
    "serialize.emit_ms": "ms", "serialize.doc_bytes": "bytes",
    "algebra.poly_mul_us": "us", "algebra.poly_add_us": "us",
    "serialize.parse_ms": "ms", "serialize.verify_fqt_ms": "ms",
    "serialize.verify_int_ms": "ms", "serialize.verify_extremal_ms": "ms",
    "serialize.verify_numfield_ms": "ms", "serialize.reject_ms": "ms",
    "core.verify_certificate_ms": "ms", "core.rebuild_ms": "ms",
    "numfield.fixes_ms": "ms", "numfield.det_ms": "ms", "quadratic.quadint_mul_us": "us",
    "numfield.rounding_ms": "ms", "numfield.ball_points": "count",
    "numfield.rounding_pairs": "count", "numfield.bridge_ms": "ms",
    "numfield.birkhoff_ms": "ms", "numfield.dimension": "count", "numfield.attempts": "count",
    "cli.interpreter_ms": "ms", "cli.import_ms": "ms", "cli.main_ms": "ms",
}
COUNTS = ("core.candidates", "core.rows", "serialize.doc_bytes", "numfield.ball_points",
          "numfield.rounding_pairs", "numfield.dimension", "numfield.attempts")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def setup(name: str, seed: int, traced: bool = False):
    import workloads

    wl = workloads.make(name, ROOT, seed, traced=traced)
    wl.warm_up()
    return wl


def time_setup(name: str, seed: int) -> float:
    """Median time from starting a fresh process to where its first timed op starts."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return statistics.median(samples)


def time_pairs(pairs, op, repeat: int = 20) -> float:
    """Per-call microseconds of op over operand pairs; 0 when there are none."""
    if not pairs:
        return 0.0
    start = time.perf_counter()
    for _ in range(repeat):
        for x, y in pairs:
            op(x, y)
    return (time.perf_counter() - start) / (repeat * len(pairs)) * 1e6


def tail_share(ops: int) -> float:
    """The highest percentile (as a share) with TAIL_BEYOND of a round's ops beyond it."""
    return (ops - TAIL_BEYOND) / ops


def percentile(ordered: list, share: float) -> float:
    """Linear interpolation between the order statistics around share."""
    pos = share * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


class Run:
    """Rounds of one workload's ops, with their times and verdicts."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.times = [[] for _ in wl.ops]
        self.fingerprints = [None] * len(wl.ops)
        self.attempted = 0
        self.failed = 0
        self.failures = []  # ops that raised
        self.wrong = []  # outputs the checkers rejected, or that changed between rounds
        self.round_walls = []
        self.check_seconds = 0.0  # spent in this round's output checks
        self.layers = []

    def one_op(self, i: int, first: bool, extra: dict) -> float:
        op = self.wl.ops[i]
        self.attempted += 1
        if self.tracer is not None and self.wl.name == "cli":
            extra["interpreter"].append(self.wl.time_process("pass"))
            extra["import"].append(self.wl.time_process("import smyth"))
        gc.collect()
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as err:  # an op that raises counts as failed; the run goes on
            self.failed += 1
            self.failures.append(f"{op.label}: {type(err).__name__}: {err}")
            return 0.0
        elapsed = time.perf_counter() - start
        self.times[i].append(elapsed)
        if first:
            began = time.perf_counter()
            try:
                op.check(out)
            except Reject as err:
                self.wrong.append(f"{op.label}: {err}")
            self.fingerprints[i] = op.fingerprint(out)
            self.check_seconds += time.perf_counter() - began
        elif op.fingerprint(out) != self.fingerprints[i]:
            self.wrong.append(f"{op.label}: output differs from the first round")
        return elapsed

    def round(self, first: bool) -> None:
        self.check_seconds = 0.0
        extra = {"interpreter": [], "import": []}
        op_times = [self.one_op(i, first, extra) for i in range(len(self.wl.ops))]
        self.round_walls.append(sum(op_times))
        if self.tracer is not None:
            seconds, counts = self.tracer.take_round()
            extra["main"] = op_times
            extra["poly_mul"] = time_pairs(self.wl.poly_operands, lambda x, y: x * y)
            extra["poly_add"] = time_pairs(self.wl.poly_operands, lambda x, y: x + y)
            extra["quad_mul"] = time_pairs(self.wl.quad_operands, lambda x, y: x * y)
            self.layers.append(layer_values(seconds, counts, extra))

    def end_to_end(self) -> dict:
        samples = sorted(t for op_times in self.times for t in op_times)
        return {
            "wall_s": (statistics.median(self.round_walls), "s"),
            "op_p50_ms": (percentile(samples, 0.5) * 1e3, "ms"),
            "op_tail_ms": (percentile(samples, tail_share(len(self.wl.ops))) * 1e3, "ms"),
        }

    def per_layer(self) -> dict:
        return {name: (statistics.median(r[name] for r in self.layers), unit)
                for name, unit in PER_LAYER_UNITS.items()}


def layer_values(seconds: dict, counts: dict, extra: dict) -> dict:
    """One round's per-layer values from span totals, counts and extra timings."""
    values = {name: 1e3 * seconds.get(name[:-3], 0.0)
              for name in PER_LAYER_UNITS if name.endswith("_ms")}
    values.update({name: counts.get(name, 0) for name in COUNTS})
    candidates = counts.get("core.candidates", 0)
    values["core.hit_ratio"] = counts.get("core.rows", 0) / candidates if candidates else 0.0
    values["algebra.poly_mul_us"] = extra["poly_mul"]
    values["algebra.poly_add_us"] = extra["poly_add"]
    values["quadratic.quadint_mul_us"] = extra["quad_mul"]
    if extra["interpreter"]:  # the cli workload's separate process timings
        interpreter = statistics.median(extra["interpreter"])
        values["cli.interpreter_ms"] = 1e3 * interpreter
        values["cli.import_ms"] = 1e3 * (statistics.median(extra["import"]) - interpreter)
        values["cli.main_ms"] = 1e3 * statistics.median(extra["main"])
    return values


def peak_rss_mb(name: str) -> float:
    """Peak resident memory of smyth: this process, or the CLI child processes."""
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "smyth" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'smyth'} is missing; run from a checkout of smyth",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    wl = setup(args.workload, args.seed, traced=bool(args.trace))
    tracer = None
    if args.trace:
        import smyth.cli  # noqa: F401  (its imported names get spans too)
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = Run(wl, tracer)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run.round(first=not run.round_walls)
        now = time.perf_counter()
        # the next round costs what this one did, less this round's checks
        if now - start + (now - began - run.check_seconds) > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end()
        metrics["peak_rss_mb"] = (peak_rss_mb(args.workload), "MB")
        metrics["setup_s"] = (time_setup(args.workload, args.seed), "s")

    ops = len(wl.ops)
    print(f"{args.workload} seed {args.seed}: {len(run.round_walls)} rounds of {ops} ops, "
          f"{'traced' if tracer else 'untraced'}, wall {statistics.median(run.round_walls):.4f} s")
    print(f"op_tail_ms is percentile {100 * tail_share(ops):.1f} of {len(run.round_walls) * ops} "
          f"op times: {TAIL_BEYOND} of each round's {ops} ops lie beyond it")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    for line in (run.failures + run.wrong)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
