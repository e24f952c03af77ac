"""Run every workload of the benchmark over several seeds and print every metric.

    python3 perfbench/report.py [--seeds 1,2,3] [--trace 0|1]

Each (workload, seed) pair runs as its own run.py process for
BENCHMARK.json's run_seconds, so peak memory is that workload's alone.
For each workload the report prints every metric by name with its unit:
the median over the correct runs and, with three or more of them, the
spread (distance between the first and third quartiles as a share of
the median) next to the bound from BENCHMARK.json.  It adds failed_frac,
failed units over attempted units summed over every run, the failed runs
included.  It exits 1 if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_one(workload: str, seed: int, seconds: int, trace: int):
    """Run one workload; return (its result line or None, its exit code, its output)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return result, proc.returncode, lines


def spread(values):
    if len(values) < 3:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        correct, attempted, failed = [], 0, 0
        for seed in seeds:
            result, code, lines = run_one(workload, seed, seconds, args.trace)
            if result is None:
                print(f"{workload} seed {seed}: exited {code} without a result")
                ok = False
                continue
            attempted += result["attempted"]
            failed += result["failed"]
            if code != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exited {code}, incorrect")
                ok = False
                continue
            if not correct:
                print(next((line for line in lines if line.startswith("env ")), ""))
            correct.append(result)
        print(f"{workload}  ({len(correct)} of {len(seeds)} seeds correct, {seconds} s each)")
        print(f"  {'metric':<24}{'unit':<8}{'median':>14}{'spread':>10}{'bound':>8}")
        for name, entry in (correct[0]["metrics"] if correct else {}).items():
            values = [r["metrics"][name]["value"] for r in correct]
            s = spread(values)
            bound = bounds.get(name)
            print(f"  {name:<24}{entry['unit']:<8}{statistics.median(values):>14.6g}"
                  f"{'' if s is None else format(s, '.4f'):>10}"
                  f"{'' if bound is None else bound:>8}")
        if attempted:
            print(f"  {'failed_frac':<24}{'ratio':<8}{failed / attempted:>14.6g}"
                  f"   ({failed} of {attempted} units)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
