#!/usr/bin/env python3
"""Steadiness of the benchmark: two sets of ten runs on the same commit.

    python3 bench/steady.py

Each set runs every workload of BENCHMARK.json once per seed, for the run
length it fixes, each set with its own seeds. For every end-to-end metric
it prints both sets' medians and spreads (the distance between the first
and third quartile of the runs, as a share of their median) against the
metric's bound, and how far the second set's median moved from the first
set's, in the metric's worse direction. Exits 1 if a spread or the move
exceeds its bound; a steady benchmark keeps spreads under a third of their
bound.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS, RUNS = 2, 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed}: "
          + " ".join(f"{name}={value:.5g}" for name, value in values.items()), flush=True)
    return values


def spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(workload, 1000 * (k + 1) + j, seconds) for j in range(RUNS)]
                for k in range(SETS)]
        print(f"== {workload}: {SETS} sets of {RUNS} runs, {seconds} s each", flush=True)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([run[name] for run in runs] for runs in sets)
            medians = [statistics.median(first), statistics.median(second)]
            spreads = [spread(first), spread(second)]
            sign = 1 if metric["better"] == "lower" else -1
            moved = sign * (medians[1] - medians[0]) / medians[0]
            bad = moved > bound or max(spreads) > bound
            ok = ok and not bad
            print(f"{name:18s} bound {bound:.2f}  medians "
                  + " ".join(f"{m:.5g}" for m in medians)
                  + "  spreads " + " ".join(f"{s:.3f}" for s in spreads)
                  + f"  moved {moved:+.3f}  "
                  + ("OUT OF BOUND" if bad
                     else "steady" if max(spreads) < bound / 3 else "within bound"),
                  flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
