"""Named, seed-deterministic experiments with CSV/JSON report emission.

Every report (minus the wall-time field) is a pure function of its
ExperimentConfig: records are assembled in canonical order and floats are
serialized with shortest round-trip repr, so reruns are byte-identical.
"""

from __future__ import annotations

import json
import statistics
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

from ._version import __version__
from .hyperspace import (PRODUCT_STRING_CAP, _enumeration_bits, _expanded_sign_planes,
                         _universe_sign_planes)
from .readout import _failure_counts, stacho_clock_bound, timeshifted_readout_steps
from .rtw import (_BLOCK_BITS, SeedSpec, _index, _master_seed, _real, _reference_rows,
                  _stream_rows)
from .sinus import (
    EXPONENTIAL,
    LINEAR,
    SinusRepresentation,
    _collision_counts,
    max_system_frequency,
    readout_sample_count,
    value_frequency,
)

__all__ = [
    "DEFAULT_MASTER_SEED",
    "SCHEMA_VERSION",
    "UNIVERSE_CHECK_CAP",
    "ORTHOGONALITY_SAMPLE_CAP",
    "READOUT_HASH_CAP",
    "READOUT_TRIAL_BLOCK_CAP",
    "READOUT_BITS_CAP",
    "UNIVERSE_OP_CAP",
    "ExperimentConfig",
    "ExperimentReport",
    "run_orthogonality",
    "run_universe_check",
    "run_readout_scaling",
    "run_sinus_comparison",
    "run_bounds_table",
    "EXPERIMENTS",
]

DEFAULT_MASTER_SEED = 0xD1CEBA5E
SCHEMA_VERSION = 1
UNIVERSE_CHECK_CAP = 12
# Caps on each experiment's up-front cost estimate (see _refuse_over_cap),
# each at least 8x the largest config the CLI defaults, the README, the
# acceptance grids and the benchmark run.  At the far ends of
# UNIVERSE_OP_CAP (N = 0 with K = 2^27, N = 1 with K = 2^25, N = 12 with
# K = 2520) universe-check finishes, and so does one readout-scaling trial
# at N = 128 with K = 2^19, under a 1 GiB address-space limit (tested).
ORTHOGONALITY_SAMPLE_CAP = 2**31  # wave samples, 2 * pairs * sum(K)
READOUT_HASH_CAP = 2**29  # blake2b calls, at most sum of trials * (1 + 2N * (1 + ceil(K/512)))
# 64-byte stream blocks one trial holds, max of 2N * ceil(K/512): 16 MiB of
# stream at the cap, where the hash cap alone would admit trials of tens of GB.
READOUT_TRIAL_BLOCK_CAP = 2**18
# N, which bounds each trial's elimination: it outgrows the trial's hashing
# as N grows, to 3.5-5.2x the hashing time at N = 512-1023 and 5.4 s per
# trial at N = K = 8192, a trial that the other two caps admit 1927 times.
READOUT_BITS_CAP = 128
UNIVERSE_OP_CAP = 2**27  # oracle operations, K * sum((N + 1) * 2^N)


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run; reports echo it verbatim."""

    experiment: str
    bits: tuple[int, ...] = ()
    clocks: tuple[int, ...] = ()
    trials: int = 100
    master_seed: int = DEFAULT_MASTER_SEED
    epsilons: tuple[float, ...] = (0.0,)
    p_targets: tuple[float, ...] = (0.001,)

    def __post_init__(self) -> None:
        # Every bad field is a configuration error, which the CLI maps to exit 2.
        for name in ("bits", "clocks", "epsilons", "p_targets"):
            grid = getattr(self, name)
            if isinstance(grid, str) or not isinstance(grid, Sequence):
                raise ValueError(f"{name} must be a sequence, got {grid!r}")
        try:
            object.__setattr__(self, "bits", tuple(_index(n, "bits", 0) for n in self.bits))
            object.__setattr__(self, "clocks", tuple(_index(k, "clocks", 0) for k in self.clocks))
            object.__setattr__(self, "trials", _index(self.trials, "trials", 1))
            object.__setattr__(self, "master_seed", _master_seed(self.master_seed))
            for name in ("epsilons", "p_targets"):
                object.__setattr__(self, name, tuple(_real(x, name) for x in getattr(self, name)))
        except TypeError as exc:
            raise ValueError(str(exc)) from exc

    def echo(self) -> dict:
        """Every field in declaration order, as plain JSON types (tuples as lists)."""
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


@dataclass
class ExperimentReport:
    """Experiment output: canonical records plus provenance."""

    experiment: str
    config: dict
    columns: list[str]
    records: list[dict]
    summary: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "experiment": self.experiment,
            "config": self.config,
            "columns": self.columns,
            "records": self.records,
            "summary": self.summary,
            "wall_time_s": self.wall_time_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        """Records table only; provenance columns are part of the records.

        UTF-8, comma-separated, header row, LF line endings.  The column
        list may be a projection of the record keys (the JSON form always
        carries every key)."""
        lines = [",".join(self.columns)]
        for record in self.records:
            lines.append(",".join(_csv_cell(record[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _refuse_over_cap(what: str, estimate: int, cap: int) -> None:
    """Refuse a config, before any work, when its cost estimate exceeds its cap."""
    if estimate > cap:
        raise ValueError(f"{what} = {estimate} exceeds cap {cap}")


def _report(config: ExperimentConfig, columns: list[str], records: list[dict],
            summary: dict, started: float) -> ExperimentReport:
    return ExperimentReport(
        experiment=config.experiment,
        config=config.echo(),
        columns=columns,
        records=records,
        summary=summary,
        wall_time_s=time.perf_counter() - started,
    )


def _bit_correlation(a: int, b: int, clocks: int) -> float:
    """``time_average_product`` of the *clocks*-sample waves whose rows are
    *a* and *b*: the product's row a ^ b marks its -1 samples, so the sum is
    K - 2*popcount(a ^ b), divided by K as an int."""
    return (clocks - 2 * (a ^ b).bit_count()) / clocks


def run_orthogonality(config: ExperimentConfig) -> ExperimentReport:
    """Finite-clock convergence of the cross-correlation of independent waves.

    For each clock count K: median and max |time-average product| over
    *trials* independent wave pairs, next to the 4/sqrt(K) reference bound
    and an identical-wave self check (always exactly 1.0).  No wave is
    built: each pair is correlated from its two rows (the waves of
    ``generate_rtw``), with the int numerator and denominator of
    ``time_average_product``, so every value is the same float.  Those two
    functions are its oracle in the tests, pair by pair and report by report.
    """
    started = time.perf_counter()
    if not config.clocks:
        raise ValueError("orthogonality requires at least one clock count")
    if any(k < 1 for k in config.clocks):
        raise ValueError("orthogonality requires clock counts >= 1")
    _refuse_over_cap("orthogonality: wave samples 2*pairs*sum(K)",
                     2 * config.trials * sum(config.clocks), ORTHOGONALITY_SAMPLE_CAP)
    root = SeedSpec(config.master_seed)
    records = []
    for clocks in sorted(config.clocks):
        values = []
        self_check = None
        for pair in range(config.trials):
            # One read per stream, so a pair never holds both streams' bytes at once.
            (a,) = _stream_rows([root.child("pair", pair, 0).stream_key()], clocks)
            (b,) = _stream_rows([root.child("pair", pair, 1).stream_key()], clocks)
            values.append(abs(_bit_correlation(a, b, clocks)))
            if self_check is None:
                self_check = _bit_correlation(a, a, clocks)
        records.append({
            "K": clocks,
            "pairs": config.trials,
            "median_abs": float(statistics.median(values)),
            "max_abs": max(values),
            "bound": 4.0 / clocks**0.5,
            "identical_check": self_check,
            "master_seed": config.master_seed,
        })
    columns = ["K", "pairs", "median_abs", "max_abs", "bound", "identical_check", "master_seed"]
    return _report(config, columns, records, {"points": len(records)}, started)


def run_universe_check(config: ExperimentConfig) -> ExperimentReport:
    """Product-form universe synthesis vs the expanded-sum oracle, with
    the per-clock operation counts of both paths' cost models (counts, not
    wall time).

    No wave is built: both paths run on the rows of the reference waves, as
    per-clock counts of -1 terms in sign-bit planes.  In the tests the rows
    are checked against ``make_reference_system``, the plane values against
    ``synthesize_universe`` and ``realize_superposition(expand_universe(N))``,
    and whole reports against reports built from those functions."""
    started = time.perf_counter()
    _refuse_over_cap("universe check: bit count max(N)", max(config.bits, default=0),
                     UNIVERSE_CHECK_CAP)
    if len(config.clocks) != 1:
        raise ValueError("universe check takes exactly one clock count")
    clocks = config.clocks[0]
    if clocks < 1:
        raise ValueError("universe check requires clocks >= 1")
    # The expanded-sum oracle's 2^N accumulations and N*2^N multiplications per clock.
    _refuse_over_cap("universe check: oracle operations K*sum((N+1)*2^N)",
                     clocks * sum((n + 1) << n for n in config.bits), UNIVERSE_OP_CAP)
    records = []
    for n_bits in sorted(config.bits):
        # Both paths count the -1 terms per clock on the same rows; the
        # value 2^N - 2 * count is what synthesize_universe and
        # realize_superposition(expand_universe(N)) give on the waves.
        rows = _reference_rows(config.master_seed, n_bits, clocks)
        equal = _universe_sign_planes(rows, n_bits) == _expanded_sign_planes(rows, n_bits)
        # Per clock, the product form adds L_r + H_r for each of the N bits
        # and multiplies the N sums together (N - 1 products); the expanded
        # sum accumulates 2^N strings, each a product of N factors folded
        # from 1 (N multiplications).
        direct_adds, direct_muls = n_bits, max(n_bits - 1, 0)
        oracle_adds, oracle_muls = 1 << n_bits, n_bits << n_bits
        direct_total = direct_adds + direct_muls
        records.append({
            "N": n_bits,
            "K": clocks,
            "equal": equal,
            "direct_adds_per_clock": direct_adds,
            "direct_muls_per_clock": direct_muls,
            "oracle_adds_per_clock": oracle_adds,
            "oracle_muls_per_clock": oracle_muls,
            "op_ratio": (oracle_adds + oracle_muls) / direct_total if direct_total else 1.0,
            "master_seed": config.master_seed,
        })
    columns = ["N", "K", "equal", "direct_adds_per_clock", "direct_muls_per_clock",
               "oracle_adds_per_clock", "oracle_muls_per_clock", "op_ratio", "master_seed"]
    summary = {"all_equal": all(r["equal"] for r in records)}
    return _report(config, columns, records, summary, started)


def run_readout_scaling(config: ExperimentConfig) -> ExperimentReport:
    """Monte Carlo failure rate of the fast readout over an (N, K) grid.

    The CSV projection carries the canonical sweep columns; the JSON
    records additionally hold the reference rate 2^-(K-N).  That rate is
    the union bound on the probability that the K×N GF(2) system is
    rank-deficient: an upper bound on the failure rate, not an estimate."""
    started = time.perf_counter()
    if not config.bits or not config.clocks:
        raise ValueError("readout scaling requires bit and clock counts")
    # Per trial and grid point: one trial key, then per substream one key and
    # a blake2b call per block of samples; the +1 terms keep N = 0 or K = 0
    # from reading 0.  A trial is hashed once for the grid and stops at its
    # first null tag, so this is an upper bound, kept so that no config
    # changes outcome.
    _refuse_over_cap(f"readout scaling: blake2b calls sum(trials*(1+2N*(1+ceil(K/{_BLOCK_BITS}))))",
                     sum(config.trials * (1 + 2 * n * (1 + -(-k // _BLOCK_BITS)))
                         for n in config.bits for k in config.clocks), READOUT_HASH_CAP)
    # A trial holds at most max(N) pair rows of max(K) bits, half the blocks
    # counted at the largest grid point, plus one pair of streams at a time.
    _refuse_over_cap(f"readout scaling: stream blocks per trial max(2N*ceil(K/{_BLOCK_BITS}))",
                     max(2 * n * -(-k // _BLOCK_BITS) for n in config.bits for k in config.clocks),
                     READOUT_TRIAL_BLOCK_CAP)
    # N bounds elimination, and keeps ref_rate = 2^(N-K) a finite float.
    _refuse_over_cap("readout scaling: bit count max(N)", max(config.bits), READOUT_BITS_CAP)
    counts = _failure_counts(config.bits, config.clocks, config.trials, config.master_seed)
    records = []
    for n_bits in sorted(config.bits):
        for clocks in sorted(config.clocks):
            failures = counts[n_bits, clocks]
            records.append({
                "N": n_bits,
                "K": clocks,
                "trials": config.trials,
                "failures": failures,
                "rate": failures / config.trials,
                "master_seed": config.master_seed,
                "ref_rate": 2.0 ** (n_bits - clocks),
            })
    columns = ["N", "K", "trials", "failures", "rate", "master_seed"]
    return _report(config, columns, records, {"grid_points": len(records)}, started)


def run_sinus_comparison(config: ExperimentConfig) -> ExperimentReport:
    """Bandwidth and degeneracy of the two harmonic representations per N,
    with the per-bit frequency assignment table embedded in the summary."""
    started = time.perf_counter()
    if not config.bits:
        raise ValueError("sinus comparison requires at least one bit count")
    # An N over the product-string cap is refused before any scan runs.
    _enumeration_bits(max(config.bits), "product-string enumeration", PRODUCT_STRING_CAP)
    records = []
    for n_bits in sorted(config.bits):
        for kind in (LINEAR, EXPONENTIAL):
            rep = SinusRepresentation(kind, n_bits)
            groups, collided = _collision_counts(rep)
            records.append({
                "kind": kind,
                "N": n_bits,
                "f_max": max_system_frequency(rep),
                "samples": readout_sample_count(rep),
                "degeneracy_groups": groups,
                "collided_strings": collided,
            })
    max_bits = max(config.bits)
    linear, exponential = (SinusRepresentation(kind, max_bits) for kind in (LINEAR, EXPONENTIAL))
    table = [
        {
            "r": r,
            "linear_L": value_frequency(linear, r, "L"),
            "linear_H": value_frequency(linear, r, "H"),
            "exponential_L": value_frequency(exponential, r, "L"),
            "exponential_H": value_frequency(exponential, r, "H"),
        }
        for r in range(1, max_bits + 1)
    ]
    columns = ["kind", "N", "f_max", "samples", "degeneracy_groups", "collided_strings"]
    return _report(config, columns, records, {"frequency_table": table}, started)


def run_bounds_table(config: ExperimentConfig) -> ExperimentReport:
    """Closed-form clock-budget calculators across (N, epsilon, P) grids."""
    started = time.perf_counter()
    if not config.bits:
        raise ValueError("bounds table requires at least one bit count")
    if any(n < 2 for n in config.bits):
        raise ValueError("bounds table requires bit counts >= 2")
    records = []
    for n_bits in sorted(config.bits):
        for epsilon in config.epsilons:
            for p_target in config.p_targets:
                records.append({
                    "N": n_bits,
                    "epsilon": epsilon,
                    "stacho_bound": stacho_clock_bound(n_bits, epsilon),
                    "p_target": p_target,
                    "timeshifted_steps": timeshifted_readout_steps(n_bits, p_target),
                })
    columns = ["N", "epsilon", "stacho_bound", "p_target", "timeshifted_steps"]
    return _report(config, columns, records, {"points": len(records)}, started)


EXPERIMENTS = {
    "orthogonality": run_orthogonality,
    "universe-check": run_universe_check,
    "readout-scaling": run_readout_scaling,
    "sinus-comparison": run_sinus_comparison,
    "bounds-table": run_bounds_table,
}
