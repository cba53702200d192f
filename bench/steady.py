"""Run workloads repeatedly and summarise each end-to-end metric.

    python3 bench/steady.py                        # every workload, 10 seeds
    python3 bench/steady.py --workload montecarlo --runs 5
    python3 bench/steady.py --runs 1               # one pass over every workload
    python3 bench/steady.py --checkout ../parent --checkout .   # parent vs change

Each run is ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` from the root of a checkout, with seeds first-seed,
first-seed+1, ...  For every metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json.

With two checkouts it runs them in pairs on the same seed, alternating
which goes first, and counts for each metric the pairs in which the
second checkout is better.  Every call writes a JSON file under
bench/results/ with the machine, each checkout's commit, the seeds and
every run's result.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def commit_of(checkout: Path) -> str:
    try:
        done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable if part == "python3" else part for part in SPEC["command"]]
    done = subprocess.run([*argv, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    return result


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def print_summary(label: str, runs: list[dict]) -> None:
    print(f"  {label}: {len(runs)} runs, attempted {sum(r['attempted'] for r in runs)}, "
          f"failed {sum(r['failed'] for r in runs)}, all correct: {all(r['correct'] for r in runs)}")
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median, q1, q3, spread = summarise(values)
        print(f"    {metric['name']:<12} median {median:12.6g} {metric['unit']:<6} "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:6.2%}  (bound {metric['bound']:.0%})")


def print_pairs(runs_a: list[dict], runs_b: list[dict]) -> None:
    print(f"  second vs first checkout, {len(runs_a)} pairs:")
    for metric in SPEC["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [r["metrics"][name]["value"] for r in runs_a]
        b = [r["metrics"][name]["value"] for r in runs_b]
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
        change = statistics.median(b) / statistics.median(a) - 1
        print(f"    {name:<12} median {change:+7.2%}  second better in {wins}, worse in {losses}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description="Repeat workloads and summarise their metrics.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout root to measure (repeat for parent then change; default this one)")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in (args.checkout or [ROOT])]
    if len(checkouts) > 2:
        parser.error("give at most two checkouts")

    record = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "platform": platform.platform()},
        "checkouts": [{"path": str(c), "commit": commit_of(c)} for c in checkouts],
        "seconds": args.seconds,
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "runs": {},
    }
    print(f"machine: {record['machine']}")
    for c in record["checkouts"]:
        print(f"checkout {c['path']} at commit {c['commit']}")
    for workload in args.workload or names:
        per_checkout = [[] for _ in checkouts]
        for i, seed in enumerate(record["seeds"]):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for j in order:
                per_checkout[j].append(run_once(checkouts[j], workload, seed, args.seconds))
        print(f"{workload}:")
        for c, runs in zip(checkouts, per_checkout):
            print_summary(str(c), runs)
        if len(checkouts) == 2:
            print_pairs(*per_checkout)
        record["runs"][workload] = per_checkout

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = out_dir / f"steady-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
