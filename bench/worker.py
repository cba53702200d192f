"""One workload in a process of its own: set up, run the timed phase, check.

Started by run.py as ``python3 bench/worker.py --workload W --seed S
--seconds T --trace 0|1 [--setup-only]`` with PYTHONPATH pointing at the
checkout's src/.  It prints READY once its inputs are built (run.py times
set-up up to that line), waits for a line on stdin, and prints a JSON
result as its last line.

The timed phase runs whole rounds of the workload's operations back to
back until their summed latency reaches --seconds.  Each operation's
output is checked right after it, outside its timed interval.  With
--trace 1 the worker then repeats every operation twice, untraced and
with spans around each call into nbl_lab (see spans.py), and reports the
per-layer metrics.

Each workload module (montecarlo.py, exhaustive.py, cli_session.py)
defines ``Workload(root, seed, probe)``, which builds the inputs, with
``warmup()``, ``ops(round) -> [(label, thunk)]``, ``check(round, label,
output) -> [error]``, ``peak_rss_mb()``, ``finish_checks(probe)``,
``traced_pass(tracer, rounds) -> (errors, traced_s, untraced_s)``,
``probe(tracer, rounds) -> [error]`` and a ``counts`` Counter.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibration_slice, scale
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
IMPORT_SAMPLES = 5
MODULES = ("rtw", "hyperspace", "readout", "sinus", "experiments", "cli")

# per-layer metric -> (span whose mean duration it reports, ns -> unit)
SPAN_MEANS = {
    "rtw.stream_key_us": ("rtw.derive_seed", 1e-3),
    "rtw.make_reference_system_us": ("rtw.make_reference_system", 1e-3),
    "rtw.time_average_product_us": ("rtw.time_average_product", 1e-3),
    "hyperspace.realize_product_us": ("hyperspace.realize_product", 1e-3),
    "hyperspace.synthesize_universe_us": ("hyperspace.synthesize_universe", 1e-3),
    "hyperspace.realize_superposition_ms": ("hyperspace.realize_superposition", 1e-6),
    "hyperspace.enumerate_superpositions_ms": ("hyperspace.enumerate_superpositions", 1e-6),
    "readout.plant_trial_us": ("readout.plant_trial", 1e-3),
    "readout.gf2_fast_readout_us": ("readout.gf2_fast_readout", 1e-3),
    "readout.gf2_system_us": ("readout.Gf2System", 1e-3),
    "readout.brute_force_readout_ms": ("readout.brute_force_readout", 1e-6),
    "sinus.find_degeneracies_linear_ms": ("sinus.find_degeneracies_linear", 1e-6),
    "sinus.find_degeneracies_exponential_ms": ("sinus.find_degeneracies_exponential", 1e-6),
    "experiments.run_orthogonality_ms": ("experiments.run_orthogonality", 1e-6),
    "experiments.run_universe_check_ms": ("experiments.run_universe_check", 1e-6),
    "experiments.run_readout_scaling_ms": ("experiments.run_readout_scaling", 1e-6),
    "experiments.run_sinus_comparison_ms": ("experiments.run_sinus_comparison", 1e-6),
    "experiments.run_bounds_table_ms": ("experiments.run_bounds_table", 1e-6),
    "experiments.render_csv_us": ("experiments.render_csv", 1e-3),
    "experiments.render_json_us": ("experiments.render_json", 1e-3),
}
COUNTERS = ("rtw.keys_derived", "rtw.blocks_hashed", "readout.trials", "readout.rank_deficient",
            "sinus.strings_scanned")


def tail_percentile(values):
    """(p, value, n) for the highest of p75/p90/p95/p99/p99.9 with at least
    ten of the n samples beyond it; None below forty samples."""
    ordered = sorted(values)
    best = None
    for p in (75, 90, 95, 99, 99.9):
        index = int(len(ordered) * p / 100)
        if len(ordered) >= 40 and len(ordered) - 1 - index >= 10:
            best = (p, ordered[index], len(ordered))
    return best


def import_seconds():
    """Median time of a fresh ``import nbl_lab``, timed inside new interpreters."""
    code = "import time; t = time.perf_counter(); import nbl_lab; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, timeout=60)
        samples.append(float(done.stdout))
    return statistics.median(samples)


def timed_phase(workload, seconds):
    """Whole rounds of operations until their summed latency reaches *seconds*.

    A calibration slice runs before the first operation and after each
    one, and each latency is also kept scaled by the slices on either side
    of it (see calibration.py).
    """
    raw, scaled, notes, errors = [], [], [], []
    attempted = failed = rounds = busy = scaled_busy = 0
    budget = seconds * 1_000_000_000
    before = calibration_slice()
    while busy < budget:
        for label, thunk in workload.ops(rounds):
            attempted += 1
            start = time.perf_counter_ns()
            failure = None
            try:
                out = thunk()
            except Exception as exc:  # a failed operation is counted, not fatal
                failure = repr(exc)
            elapsed = time.perf_counter_ns() - start
            after = calibration_slice()
            factor = scale(before, after)
            before = after
            busy += elapsed
            scaled_busy += elapsed * factor
            if failure is not None:
                failed += 1
                notes.append(f"failed: {label}: {failure}")
                continue
            raw.append(elapsed)
            scaled.append(elapsed * factor)
            try:
                errors.extend(f"{label}: {e}" for e in workload.check(rounds, label, out))
            except Exception as exc:  # output the check cannot even parse is wrong output
                errors.append(f"{label}: check raised {exc!r}")
        rounds += 1
    return dict(raw=raw, scaled=scaled, notes=notes, errors=errors, attempted=attempted,
                failed=failed, rounds=rounds, busy_s=busy / 1e9, scaled_busy_s=scaled_busy / 1e9)


def layer_metrics(workload, main, probe, phase, traced_s, untraced_s, import_s):
    merged = {}
    for tracer in (main, probe):
        for name, (count, total) in tracer.per_name().items():
            c, t = merged.get(name, (0, 0))
            merged[name] = (c + count, t + total)
    metrics = {}
    for metric, (name, unit) in SPAN_MEANS.items():
        count, total = merged.get(name, (0, 0))
        metrics[metric] = total * unit / count if count else 0.0
    counts = workload.counts
    bits_ns = sum(merged.get(n, (0, 0))[1] for n in ("rtw.bits", "rtw.generate_rtw"))
    metrics["rtw.bits_ns_per_bit"] = bits_ns / counts["rtw.bits"] if counts["rtw.bits"] else 0.0
    for name in COUNTERS:
        metrics[name] = counts[name]
    trials = counts["readout.trials"]
    metrics["readout.count_failures_us_per_trial"] = (
        phase["busy_s"] * 1e6 / trials if trials else 0.0)
    self_ns = main.self_ns_by_module()
    for module in MODULES:
        metrics[f"{module}.self_s"] = self_ns.get(module, 0) / 1e9
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("montecarlo", "exhaustive", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import nbl_lab
    if not Path(nbl_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"nbl_lab imported from {nbl_lab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probe = Tracer() if args.trace else None
    module = importlib.import_module(args.workload.replace("-", "_"))
    workload = module.Workload(ROOT, args.seed, probe)
    print("READY", flush=True)
    sys.stdin.readline()  # run.py times its calibration slice before letting us go on
    if args.setup_only:
        return 0

    workload.warmup()
    phase = timed_phase(workload, args.seconds)
    peak_rss_mb = workload.peak_rss_mb()
    errors = phase["errors"] + workload.finish_checks(probe)
    completed = phase["attempted"] - phase["failed"]

    for note in phase["notes"]:
        print(note)
    print(f"{args.workload}: {phase['rounds']} rounds, {phase['attempted']} operations attempted, "
          f"{phase['failed']} failed")

    if args.trace:
        main_tracer = Tracer()
        traced_errors, traced_s, untraced_s = workload.traced_pass(main_tracer, phase["rounds"])
        errors += traced_errors
        errors += workload.probe(probe, phase["rounds"])
        metrics = layer_metrics(workload, main_tracer, probe, phase, traced_s, untraced_s,
                                import_seconds())
        RESULTS.mkdir(exist_ok=True)
        for tracer, kind in ((main_tracer, "main"), (probe, "probe")):
            tracer.dump(RESULTS / f"trace-{args.workload}-seed{args.seed}-{kind}.json",
                        workload=args.workload, seed=args.seed, spans=kind)
        wanted = spec["per_layer"]
    else:
        scaled_ms = [ns / 1e6 for ns in phase["scaled"]]
        metrics = {
            "ops_per_s": completed / phase["scaled_busy_s"],
            "op_p50_ms": statistics.median(scaled_ms) if scaled_ms else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        raw_p50 = statistics.median(phase["raw"]) / 1e6 if phase["raw"] else 0.0
        print(f"unscaled: ops_per_s {completed / phase['busy_s']:.4f} ops/s, "
              f"op_p50_ms {raw_p50:.3f} ms")
        tail = tail_percentile(scaled_ms)
        if tail:
            print(f"op_p50_ms {metrics['op_p50_ms']:.3f} ms; "
                  f"p{tail[0]} {tail[1]:.3f} ms with {tail[2]} samples")
        else:
            print(f"op_p50_ms {metrics['op_p50_ms']:.3f} ms over {len(scaled_ms)} samples "
                  f"(fewer than 40: no tail)")
        wanted = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]

    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
