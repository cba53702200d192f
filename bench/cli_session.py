"""cli-session: a fixed sequence of ``python -m nbl_lab`` processes.

A round runs all five experiments, each once with --format csv and once
with --format json, one process at a time.  Orthogonality runs out to
10^6 clocks; readout-scaling runs at a small trial count.  The master
seeds and the bounds-table grid of each round are drawn from the
workload seed.

The traced pass runs the same argv in process through nbl_lab.cli's
parser and the experiment functions, and compares every render with the
stdout of the matching process byte for byte.  The untraced reference
for trace.overhead_s is the same in-process run without spans, since the
processes also pay for interpreter start.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from nbl_lab import SeedSpec, cli, generate_rtw, time_average_product
from oracles import binomial_interval, full_rank_probability, stacho_bound, timeshifted_steps
from spans import BLOCK_BITS

ORTHOGONALITY_CLOCKS = (100, 10_000, 1_000_000)
ORTHOGONALITY_PAIRS = 16
UNIVERSE_BITS = (2, 4, 8, 12)
UNIVERSE_CLOCKS = 128
READOUT_BITS = (6, 8)
READOUT_CLOCKS = (8, 16)
READOUT_TRIALS = 100
SINUS_BITS = (1, 2, 4, 8, 12)
BOUNDS_BITS = (2, 64, 1024)
ROUNDS_DRAWN = 1024
PROCESS_TIMEOUT_S = 60


def _csv_list(values):
    return ",".join(str(v) for v in values)


def _round_argv(rng):
    """The five experiments' argv for one round, without --format."""
    epsilon = round(rng.uniform(0.05, 1.0), 3)
    p_targets = (2.0 ** -rng.randint(4, 20), round(rng.uniform(1e-4, 0.5), 6))
    return [
        ["orthogonality", "--clocks-range", _csv_list(ORTHOGONALITY_CLOCKS),
         "--trials", str(ORTHOGONALITY_PAIRS), "--seed", str(rng.getrandbits(64))],
        ["universe-check", "--bits-range", _csv_list(UNIVERSE_BITS),
         "--clocks", str(UNIVERSE_CLOCKS), "--seed", str(rng.getrandbits(64))],
        ["readout-scaling", "--bits-range", _csv_list(READOUT_BITS),
         "--clocks-range", _csv_list(READOUT_CLOCKS), "--trials", str(READOUT_TRIALS),
         "--seed", str(rng.getrandbits(64))],
        ["sinus-comparison", "--bits-range", _csv_list(SINUS_BITS)],
        ["bounds-table", "--bits-range", _csv_list(BOUNDS_BITS), "--epsilon", f"0,{epsilon}",
         "--p-target", _csv_list(p_targets)],
    ]


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class Workload:
    def __init__(self, root, seed, probe=None):
        self.root = root
        rng = random.Random(seed)
        self.rounds = [[argv + ["--format", fmt] for argv in _round_argv(rng) for fmt in ("csv", "json")]
                       for _ in range(ROUNDS_DRAWN)]
        self.stdout = {}  # (round, position) -> process stdout
        self.counts = Counter()

    def warmup(self):
        pass

    def ops(self, r):
        return [(f"{r}:{i}:{' '.join(argv)}", lambda argv=argv: self._run(argv))
                for i, argv in enumerate(self.rounds[r])]

    def _run(self, argv):
        done = subprocess.run([sys.executable, "-m", "nbl_lab", *argv], cwd=self.root,
                              capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return done

    def check(self, r, label, done):
        i = int(label.split(":")[1])
        argv = self.rounds[r][i]
        self.stdout[(r, i)] = done.stdout
        errors = [] if done.stderr == "" else [f"stderr not empty: {done.stderr[:200]!r}"]
        if argv[-1] == "csv":
            return errors
        report = json.loads(done.stdout)
        csv_text = self.stdout.get((r, i - 1))
        if csv_text is not None:
            errors += _check_csv_projection(csv_text, report)
        errors += CLOSED_FORMS[report["experiment"]](report)
        return errors

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def finish_checks(self, probe):
        return []

    def _in_process(self, call, r, i):
        """Run argv i of round r in process; return the rendered report."""
        args = call("cli.parse_args", cli.build_parser().parse_args, self.rounds[r][i])
        config = call("cli.config_from_args", cli.config_from_args, args)
        report = call(f"experiments.run_{args.experiment.replace('-', '_')}",
                      cli.EXPERIMENTS[args.experiment], config)
        if args.format == "json":
            # wall_time_s is the one field that differs between runs.
            report.wall_time_s = json.loads(self.stdout[(r, i)])["wall_time_s"]
        return call(f"experiments.render_{args.format}", report.render, args.format)

    def traced_pass(self, tracer, rounds):
        """Each process of the timed phase run twice in process, untraced and
        then with spans; both renders must equal the process's stdout.
        Returns the errors and the traced and untraced seconds."""
        errors, traced, untraced = [], 0.0, 0.0
        for (r, i), stdout in self.stdout.items():
            if r >= rounds:
                continue
            started = time.perf_counter()
            plain = self._in_process(lambda name, fn, *args: fn(*args), r, i)
            untraced += time.perf_counter() - started
            started = time.perf_counter()
            spanned = self._in_process(tracer.call, r, i)
            traced += time.perf_counter() - started
            if plain != stdout or spanned != stdout:
                errors.append(f"in-process render of {' '.join(self.rounds[r][i])} "
                              f"differs from the process stdout")
        return errors, traced, untraced

    def probe(self, tracer, rounds):
        """Re-drive the orthogonality waves of every round and reproduce the
        reported median and max of |<ab>| exactly."""
        errors = []
        for r in range(rounds):
            argv = self.rounds[r][0]
            if (r, 1) not in self.stdout:
                continue
            report = json.loads(self.stdout[(r, 1)])
            root = SeedSpec(int(argv[argv.index("--seed") + 1]))
            for record in report["records"]:
                clocks = record["K"]
                values = []
                for pair in range(ORTHOGONALITY_PAIRS):
                    a = tracer.call("rtw.generate_rtw", _pair_wave, root, pair, 0, clocks)
                    b = tracer.call("rtw.generate_rtw", _pair_wave, root, pair, 1, clocks)
                    values.append(abs(tracer.call("rtw.time_average_product",
                                                  time_average_product, a, b)))
                self.counts["rtw.keys_derived"] += 2 * ORTHOGONALITY_PAIRS
                self.counts["rtw.blocks_hashed"] += 2 * ORTHOGONALITY_PAIRS * -(-clocks // BLOCK_BITS)
                self.counts["rtw.bits"] += 2 * ORTHOGONALITY_PAIRS * clocks
                if (statistics.median(values), max(values)) != (record["median_abs"], record["max_abs"]):
                    errors.append(f"re-driven orthogonality K={clocks} round {r} differs from the report")
        return errors


def _pair_wave(root, pair, side, clocks):
    return generate_rtw(root.child("pair", pair, side), clocks)


def _check_csv_projection(csv_text, report):
    rows = list(csv.reader(io.StringIO(csv_text)))
    expected = [report["columns"]] + [[_csv_cell(rec[c]) for c in report["columns"]]
                                      for rec in report["records"]]
    return [] if rows == expected else [f"{report['experiment']}: CSV rows differ from the JSON records"]


def _check_orthogonality(report):
    errors = []
    for rec in report["records"]:
        if rec["identical_check"] != 1.0:
            errors.append(f"orthogonality K={rec['K']}: identical_check {rec['identical_check']}")
        if rec["median_abs"] > 4 / math.sqrt(rec["K"]):
            errors.append(f"orthogonality K={rec['K']}: median_abs {rec['median_abs']} above 4/sqrt(K)")
    if [rec["K"] for rec in report["records"]] != list(ORTHOGONALITY_CLOCKS):
        errors.append("orthogonality: clock counts differ from the request")
    return errors


def _check_universe(report):
    errors = []
    for rec in report["records"]:
        n = rec["N"]
        want = (True, n, n - 1, 1 << n, n << n)
        got = (rec["equal"], rec["direct_adds_per_clock"], rec["direct_muls_per_clock"],
               rec["oracle_adds_per_clock"], rec["oracle_muls_per_clock"])
        if got != want:
            errors.append(f"universe-check N={n}: {got}, expected {want}")
    if [rec["N"] for rec in report["records"]] != list(UNIVERSE_BITS):
        errors.append("universe-check: bit counts differ from the request")
    return errors


def _check_readout(report):
    errors = []
    for rec in report["records"]:
        n, k, failures = rec["N"], rec["K"], rec["failures"]
        lo, hi = binomial_interval(READOUT_TRIALS, float(1 - full_rank_probability(n, k)))
        if not lo <= failures <= hi or rec["trials"] != READOUT_TRIALS:
            errors.append(f"readout-scaling N={n} K={k}: {failures} failures outside [{lo}, {hi}]")
    if len(report["records"]) != len(READOUT_BITS) * len(READOUT_CLOCKS):
        errors.append("readout-scaling: grid size differs from the request")
    return errors


def _check_sinus(report):
    errors = []
    for rec in report["records"]:
        n = rec["N"]
        if rec["kind"] == "linear":
            want = (n * (2 * n + 1), max(n - 1, 0), (1 << n) - 2 if n else 0)
        else:
            want = ((1 << 2 * n) - 1, 0, 0)
        got = (rec["f_max"], rec["degeneracy_groups"], rec["collided_strings"])
        if got != want or rec["samples"] != 2 * want[0] + 1:
            errors.append(f"sinus-comparison {rec['kind']} N={n}: {got}, expected {want}")
    for row in report["summary"]["frequency_table"]:
        r = row["r"]
        want = (2 * r - 1, 2 * r, 1 << (2 * r - 2), 1 << (2 * r - 1))
        got = (row["linear_L"], row["linear_H"], row["exponential_L"], row["exponential_H"])
        if got != want:
            errors.append(f"sinus-comparison frequency table r={r}: {got}, expected {want}")
    if len(report["records"]) != 2 * len(SINUS_BITS):
        errors.append("sinus-comparison: record count differs from the request")
    return errors


def _check_bounds(report):
    errors = []
    config = report["config"]
    if len(report["records"]) != len(BOUNDS_BITS) * len(config["epsilons"]) * len(config["p_targets"]):
        errors.append("bounds-table: grid size differs from the request")
    for rec in report["records"]:
        n, eps, p = rec["N"], rec["epsilon"], rec["p_target"]
        if not math.isclose(rec["stacho_bound"], stacho_bound(n, eps), rel_tol=1e-12):
            errors.append(f"bounds-table N={n} eps={eps}: {rec['stacho_bound']} != N*log2(N)^(1+eps)")
        if not math.isclose(rec["timeshifted_steps"], timeshifted_steps(n, p), rel_tol=1e-12):
            errors.append(f"bounds-table N={n} P={p}: {rec['timeshifted_steps']} != N*log2(N/P)")
    return errors


CLOSED_FORMS = {
    "orthogonality": _check_orthogonality,
    "universe-check": _check_universe,
    "readout-scaling": _check_readout,
    "sinus-comparison": _check_sinus,
    "bounds-table": _check_bounds,
}
