"""Benchmark entry point: one workload, one result line.

    python3 bench/run.py --workload montecarlo --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The workload runs in a worker process
of its own (worker.py) that imports nbl_lab from the checkout's src/.
setup_s is the median time from starting a worker to its READY line,
over SETUP_SAMPLES set-up-only workers and the measuring one, after one
unmeasured start that fills the file cache and writes bytecode.  Like
every end-to-end time it is scaled to a reference machine speed (see
calibration.py).

The last line of stdout is the JSON result: with --trace 0 the
end-to-end metrics, with --trace 1 the per-layer metrics.  The exit code
is 2, with no result, when the checkout has no nbl_lab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibration_slice, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
GO = "GO\n"
# The benchmark measures one process at a time; keep numeric libraries single-threaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env.pop("NBL_LAB_SEED", None)
    return env


def start_worker(argv, env):
    """Start a worker; return (process, seconds until its READY line).

    The seconds are scaled by calibration slices on either side of the
    start (see calibration.py).  The worker waits for a line on stdin
    before it goes on, so the second slice runs alone."""
    before = calibration_slice()
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *argv], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    ready *= scale(before, calibration_slice())
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not become ready (said {line.strip()!r})")
    return proc, ready


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=("montecarlo", "exhaustive", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "nbl_lab" / "__init__.py").is_file():
        print(f"bench: no nbl_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = worker_env()
    worker_argv = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    if not args.trace:
        for sample in range(SETUP_SAMPLES + 1):
            proc, ready = start_worker(worker_argv + ["--setup-only"], env)
            proc.communicate(GO, timeout=60)
            if proc.returncode != 0:
                print(f"bench: set-up-only worker exited {proc.returncode}", file=sys.stderr)
                return 1
            if sample:
                setup.append(ready)

    proc, ready = start_worker(worker_argv, env)
    setup.append(ready)
    try:
        out, _ = proc.communicate(GO, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"bench: worker ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"bench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setup_s = statistics.median(setup)
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
        print(f"setup_s {setup_s:.4f} s (median of {len(setup)} starts, "
              f"min {min(setup):.4f}, max {max(setup):.4f})")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
