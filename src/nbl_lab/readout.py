"""Recovering the L/H selections of a product string from its waveform.

Two routes are implemented and kept deliberately independent:

* ``brute_force_readout``: elimination over explicitly realized candidate
  waveforms (the slow baseline; pure waveform algebra).
* ``gf2_fast_readout``: a GF(2) linearization decoder. The sign bit of a
  product of bipolar waves is the XOR of the factors' sign bits, so every
  clock period yields one linear equation in the N unknown selections.

The fast decoder is a transparent stand-in for published fast-measurement
algorithms whose internals are external to this package; its failure
statistics are measured here, not quoted.  Closed-form clock-budget
calculators for two such external schemes are included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .hyperspace import EnumerationCapError, ProductString, realize_product
from .rtw import ClockedWave, IntegerWave, ReferenceSystem, SeedSpec, make_reference_system

__all__ = [
    "ReadoutResult",
    "Gf2System",
    "brute_force_readout",
    "gf2_fast_readout",
    "plant_trial",
    "count_failures",
    "measure_failure_rate",
    "stacho_clock_bound",
    "timeshifted_readout_steps",
    "BRUTE_FORCE_CAP",
    "MAX_ENUMERATED_DEFICIT",
]

BRUTE_FORCE_CAP = 16
# Ambiguous survivor sets are materialized only up to this rank deficit;
# larger sets are reported by count alone.
MAX_ENUMERATED_DEFICIT = 10

AnyWave = Union[ClockedWave, IntegerWave]


@dataclass(frozen=True)
class ReadoutResult:
    """Outcome of a readout: surviving candidate strings and a status.

    status is "unique" (one survivor), "ambiguous" (two or more) or
    "inconsistent" (none).  *survivors* is None when the set was too large
    to materialize; *survivor_count* is always exact.
    """

    status: str
    survivors: frozenset[ProductString] | None
    survivor_count: int
    clocks_used: int

    def __post_init__(self) -> None:
        expected = {"unique": self.survivor_count == 1,
                    "ambiguous": self.survivor_count >= 2,
                    "inconsistent": self.survivor_count == 0}
        if self.status not in expected:
            raise ValueError(f"unknown status {self.status!r}")
        if not expected[self.status]:
            raise ValueError(f"status {self.status!r} inconsistent with "
                             f"{self.survivor_count} survivors")
        if self.survivors is not None and len(self.survivors) != self.survivor_count:
            raise ValueError("materialized survivor set does not match survivor_count")

    @classmethod
    def from_survivors(cls, survivors: Iterable[ProductString], clocks_used: int) -> "ReadoutResult":
        fs = frozenset(survivors)
        return cls(_status_for_count(len(fs)), fs, len(fs), clocks_used)

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"

    def sole_survivor(self) -> ProductString:
        if self.status != "unique":
            raise ValueError(f"no sole survivor: status is {self.status!r}")
        assert self.survivors is not None
        return next(iter(self.survivors))


def _status_for_count(count: int) -> str:
    if count == 0:
        return "inconsistent"
    return "unique" if count == 1 else "ambiguous"


class Gf2System:
    """Augmented linear system over GF(2), rows packed into integers.

    Bit i of a row is the coefficient of variable i; bit n_vars is the
    right-hand side.  Gauss-Jordan elimination runs at construction, so
    rank, consistency and the solution set are immediately available.
    Elimination preserves the solution set.
    """

    __slots__ = ("n_vars", "rows", "rank", "pivot_cols", "consistent")

    def __init__(self, n_vars: int, rows: Iterable[int] = ()):
        if n_vars < 0:
            raise ValueError("variable count must be non-negative")
        self.n_vars = n_vars
        work = [int(r) for r in rows]
        rhs_bit = 1 << n_vars
        for row in work:
            if row >> (n_vars + 1):
                raise ValueError("row has coefficient bits beyond n_vars")
        pivot_cols: list[int] = []
        reduced: list[int] = []
        consistent = True
        for col in range(n_vars):
            col_bit = 1 << col
            pivot_row = None
            for i, row in enumerate(work):
                if row & col_bit:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            pivot = work.pop(pivot_row)
            work = [row ^ pivot if row & col_bit else row for row in work]
            reduced = [row ^ pivot if row & col_bit else row for row in reduced]
            reduced.append(pivot)
            pivot_cols.append(col)
        # Leftover rows have no coefficients; any with rhs set is 0 = 1.
        if any(row & rhs_bit for row in work):
            consistent = False
        self.rows = tuple(reduced)
        self.rank = len(pivot_cols)
        self.pivot_cols = tuple(pivot_cols)
        self.consistent = consistent

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[int], int]], n_vars: int) -> "Gf2System":
        """Build from (coefficient bit sequence, rhs bit) pairs."""
        rows = []
        for coeffs, rhs in pairs:
            row = 0
            for i, c in enumerate(coeffs):
                if c not in (0, 1):
                    raise ValueError("coefficients must be 0 or 1")
                row |= c << i
            if rhs not in (0, 1):
                raise ValueError("rhs must be 0 or 1")
            rows.append(row | (rhs << n_vars))
        return cls(n_vars, rows)

    @property
    def rank_deficit(self) -> int:
        return self.n_vars - self.rank

    def solution_count(self) -> int:
        return (1 << self.rank_deficit) if self.consistent else 0

    def particular_solution(self) -> int:
        """The solution with every free variable set to 0, as a bitmask."""
        if not self.consistent:
            raise ValueError("system is inconsistent")
        rhs_bit = 1 << self.n_vars
        sol = 0
        for row, col in zip(self.rows, self.pivot_cols):
            if row & rhs_bit:
                sol |= 1 << col
        return sol

    def null_basis(self) -> list[int]:
        """One basis vector per free variable, as bitmasks."""
        pivots = set(self.pivot_cols)
        basis = []
        for free in range(self.n_vars):
            if free in pivots:
                continue
            vec = 1 << free
            free_bit = 1 << free
            for row, col in zip(self.rows, self.pivot_cols):
                if row & free_bit:
                    vec |= 1 << col
            basis.append(vec)
        return basis

    def iter_solutions(self) -> Iterator[int]:
        """All solutions as variable bitmasks (2^deficit of them)."""
        if not self.consistent:
            return
        base = self.particular_solution()
        basis = self.null_basis()
        for combo in range(1 << len(basis)):
            sol = base
            for i, vec in enumerate(basis):
                if (combo >> i) & 1:
                    sol ^= vec
            yield sol


def _check_wave_length(wave: AnyWave, refsys: ReferenceSystem) -> np.ndarray:
    samples = np.asarray(wave.samples)
    if samples.size != refsys.clocks:
        raise ValueError(f"wave length {samples.size} does not match system clocks {refsys.clocks}")
    return samples


def brute_force_readout(wave: AnyWave, refsys: ReferenceSystem) -> ReadoutResult:
    """Elimination over all 2^N candidate product strings.

    Every candidate's waveform is realized by explicit samplewise
    multiplication of the selected reference waves; a candidate survives
    iff it matches the observed wave at every clock.  The planted string
    always survives when the wave was built from it.

    Args:
        wave: observed waveform (a corrupted, non-bipolar sample
            eliminates every candidate).
        refsys: reference system; n_bits must not exceed BRUTE_FORCE_CAP.
    """
    if refsys.n_bits > BRUTE_FORCE_CAP:
        raise EnumerationCapError("brute-force readout", refsys.n_bits, BRUTE_FORCE_CAP)
    target = _check_wave_length(wave, refsys)
    n_bits, clocks = refsys.n_bits, refsys.clocks
    if target.size and not np.all((target == 1) | (target == -1)):
        return ReadoutResult("inconsistent", frozenset(), 0, clocks)
    # Row m becomes candidate m's product (H_j adds 2^(j-1) to m), filled by in-place doubling.
    products = np.empty((1 << n_bits, clocks), dtype=np.int8)
    products[0] = 1
    low, high = refsys.samples
    for r in range(n_bits):
        filled = 1 << r
        np.multiply(products[:filled], high[r], out=products[filled:2 * filled])
        products[:filled] *= low[r]
    # A row matches iff its samplewise product with the ±1 target is all +1.
    products *= target.astype(np.int8)
    matches = np.flatnonzero(products.min(axis=1, initial=1) == 1)
    return ReadoutResult.from_survivors(
        (ProductString(n_bits, int(mask)) for mask in matches), clocks)


def gf2_fast_readout(wave: AnyWave, refsys: ReferenceSystem,
                     max_enumerated_deficit: int = MAX_ENUMERATED_DEFICIT) -> ReadoutResult:
    """Decode the L/H selections by GF(2) linearization.

    Mapping samples to sign bits (-1 -> 1, +1 -> 0) turns each clock t
    into the linear equation

        sum_r c_r * a_r(t)  =  w(t) + sum_r l_r(t)      (mod 2)

    with a_r = l_r XOR h_r and c_r = 1 iff bit r selects H.  Gaussian
    elimination then yields a unique solution (full rank), 2^d survivors
    (rank deficit d), or inconsistency.  Cost is O(K*N) to build the
    system plus the elimination.

    Survivor sets with d > max_enumerated_deficit are not materialized;
    the result then carries survivors=None and the exact count 2^d.
    """
    samples = _check_wave_length(wave, refsys)
    n_bits, clocks = refsys.n_bits, refsys.clocks
    if samples.size and not np.all(np.abs(samples) == 1):
        # No product of bipolar waves can match a non-bipolar sample.
        return ReadoutResult("inconsistent", frozenset(), 0, clocks)
    sign_w = samples == -1
    if n_bits == 0:
        if sign_w.any():
            return ReadoutResult("inconsistent", frozenset(), 0, clocks)
        return ReadoutResult.from_survivors([ProductString(0, 0)], clocks)

    sign_l, sign_h = refsys.samples == -1
    coeff_bits = sign_l ^ sign_h                      # a_r(t), shape (N, K)
    rhs = sign_w ^ np.logical_xor.reduce(sign_l, axis=0)

    if n_bits <= 63:
        weights = (np.uint64(1) << np.arange(n_bits, dtype=np.uint64))
        packed = coeff_bits.astype(np.uint64).T @ weights
        rows = [int(c) | (int(b) << n_bits) for c, b in zip(packed, rhs)]
    else:
        rows = []
        for t in range(clocks):
            coeff = int.from_bytes(
                np.packbits(coeff_bits[:, t], bitorder="little").tobytes(), "little")
            rows.append(coeff | (int(rhs[t]) << n_bits))

    system = Gf2System(n_bits, rows)
    if not system.consistent:
        return ReadoutResult("inconsistent", frozenset(), 0, clocks)
    deficit = system.rank_deficit
    count = 1 << deficit
    if deficit > max_enumerated_deficit:
        return ReadoutResult(_status_for_count(count), None, count, clocks)
    survivors = frozenset(ProductString(n_bits, m) for m in system.iter_solutions())
    return ReadoutResult(_status_for_count(count), survivors, count, clocks)


def plant_trial(master_seed: int, trial: int, n_bits: int,
                clocks: int) -> tuple[ReferenceSystem, ProductString, ClockedWave]:
    """Build one deterministic readout instance for a Monte Carlo trial.

    The trial index selects an independent substream of *master_seed*;
    the reference system and the planted selection mask both derive from
    it, so instances are reproducible and independent across trials.
    """
    trial_seed = SeedSpec(master_seed, ("trial", trial)).derive_seed()
    refsys = make_reference_system(trial_seed, n_bits, clocks)
    plant_bits = SeedSpec(trial_seed, ("plant",)).bits(n_bits)
    mask = int.from_bytes(
        np.packbits(plant_bits, bitorder="little").tobytes(), "little") if n_bits else 0
    planted = ProductString(n_bits, mask)
    return refsys, planted, realize_product(planted, refsys)


def count_failures(n_bits: int, clocks: int, trials: int, master_seed: int) -> int:
    """Number of planted instances the fast readout fails to decode uniquely."""
    if trials < 1:
        raise ValueError("need at least one trial")
    failures = 0
    for trial in range(trials):
        refsys, _, wave = plant_trial(master_seed, trial, n_bits, clocks)
        result = gf2_fast_readout(wave, refsys, max_enumerated_deficit=0)
        if not result.is_unique:
            failures += 1
    return failures


def measure_failure_rate(n_bits: int, clocks: int, trials: int, master_seed: int) -> float:
    """Fraction of planted instances the fast readout fails to decode uniquely.

    Failure means "not unique": a rank deficit leaves several survivors
    (an honestly planted instance can never be inconsistent).  Trials use
    seeds derived from (master_seed, trial index), so the rate is a pure
    function of the arguments; with a shared master seed the per-trial
    reference waves for a larger *clocks* extend those for a smaller one,
    making the rate non-increasing in *clocks*.
    """
    return count_failures(n_bits, clocks, trials, master_seed) / trials


def _log4(x: float) -> float:
    # log2/2 keeps powers of two exact, which the calculators' pinned
    # values rely on.
    return math.log2(x) / 2.0


def stacho_clock_bound(n_bits: int, epsilon: float) -> float:
    """Clock-period budget N * (log2 N)^(1+epsilon) sufficient for fast
    product-string measurement."""
    if n_bits < 2:
        raise ValueError("bound requires N >= 2 (log2 N must be at least 1)")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    return n_bits * math.log2(n_bits) ** (1.0 + epsilon)


def timeshifted_readout_steps(n_bits: int, p_fail: float) -> float:
    """Time steps 2N * log4(N/P) needed at failure target P in the
    time-shifted representation."""
    if n_bits < 1:
        raise ValueError("N must be at least 1")
    if p_fail <= 0:
        raise ValueError("failure probability target must be positive")
    ratio = n_bits / p_fail
    if ratio <= 1:
        raise ValueError("N/P must exceed 1 for a positive step count")
    return 2 * n_bits * _log4(ratio)
