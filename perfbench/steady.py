"""Repeat benchmark runs over seeds and report how steady each metric is.

    python3 perfbench/steady.py --workload NAME --seeds 1-10 [--seconds 30] [--trace 0]

run from the repository root. Runs one seed at a time, appends each run's
result line to perfbench/results/<workload>-trace<T>.jsonl, and prints for
every metric the median and the spread: the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / f"{args.workload}-trace{args.trace}.jsonl"
    results = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace],
                              capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        took = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        with log.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(result, seed=seed, run_seconds=took)) + "\n")
        print(f"seed {seed}: {took:.1f} s, correct {result['correct']}, "
              f"failed {result['failed']}/{result['attempted']}", flush=True)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        spread = "-"
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / median:.4f}"
        print(f"{name:30s} median {median:14.6g}  spread {spread}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
