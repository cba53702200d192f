"""Recovering the L/H selections of a product string from its waveform.

Two routes are implemented and kept deliberately independent:

* ``brute_force_readout``: elimination over all 2^N candidate waveforms
  (the slow baseline).  Each candidate's waveform is built from its
  selected reference waves as packed sign words, 64 clocks to a uint64,
  where a samplewise product is an XOR, and compared with the observed
  wave at every clock.  Its words are packed by ``hyperspace._sign_words``,
  as the expanded-sum universe's are, and it shares no code with the fast
  decoder.
* ``gf2_fast_readout``: a GF(2) linearization decoder. The sign bit of a
  product of bipolar waves is the XOR of the factors' sign bits, so every
  clock period yields one linear equation in the N unknown selections.

The module has one GF(2) eliminator, ``_null_tags``.  ``gf2_fast_readout``,
``Gf2System`` and the Monte Carlo engine behind ``count_failures`` all
solve by it; the tests keep a per-row Gauss-Jordan decoder as its oracle.

The fast decoder is a transparent stand-in for published fast-measurement
algorithms whose internals are external to this package; its failure
statistics are measured here, not quoted.  Closed-form clock-budget
calculators for two such external schemes are included.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

from ._numpy import np
from .hyperspace import (PRODUCT_STRING_CAP, ProductString, _enumeration_bits, _product_strings,
                         _sign_words, realize_product)
from .rtw import (ClockedWave, IntegerWave, ReferenceSystem, SeedSpec, _all_bipolar,
                  _derive_keys, _encode_path, _encode_path_element, _index, _pair_rows, _real,
                  _sign_rows, make_reference_system)

__all__ = [
    "ReadoutResult",
    "Gf2System",
    "brute_force_readout",
    "gf2_fast_readout",
    "plant_trial",
    "count_failures",
    "stacho_clock_bound",
    "timeshifted_readout_steps",
    "MAX_ENUMERATED_DEFICIT",
]

# Ambiguous survivor sets are materialized only up to this rank deficit;
# larger sets are reported by count alone.
MAX_ENUMERATED_DEFICIT = 10

AnyWave = Union[ClockedWave, IntegerWave]


@dataclass(frozen=True)
class ReadoutResult:
    """Outcome of a readout: the surviving candidate strings.

    *survivors* is None when the set was too large to materialize, and is
    otherwise frozen into a frozenset of ProductStrings; *survivor_count* is
    always exact, and the status is derived from it.
    """

    survivors: frozenset[ProductString] | None
    survivor_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "survivor_count", _index(self.survivor_count, "survivor_count", 0))
        if self.survivors is None:
            return
        object.__setattr__(self, "survivors", frozenset(map(_survivor, self.survivors)))
        if len(self.survivors) != self.survivor_count:
            raise ValueError("materialized survivor set does not match survivor_count")

    @classmethod
    def from_survivors(cls, survivors: Iterable[ProductString]) -> "ReadoutResult":
        fs = frozenset(survivors)
        return cls(fs, len(fs))

    @property
    def status(self) -> str:
        """"unique" (one survivor), "ambiguous" (two or more) or "inconsistent" (none)."""
        if self.survivor_count == 0:
            return "inconsistent"
        return "unique" if self.survivor_count == 1 else "ambiguous"

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"

    def sole_survivor(self) -> ProductString:
        if self.status != "unique":
            raise ValueError(f"no sole survivor: status is {self.status!r}")
        if self.survivors is None:
            raise ValueError("no sole survivor: the survivor set was not materialized")
        return next(iter(self.survivors))


def _survivor(ps: ProductString) -> ProductString:
    if not isinstance(ps, ProductString):
        raise TypeError(f"survivors must be ProductStrings, got {ps!r}")
    return ps


class Gf2System:
    """Augmented linear system over GF(2), rows packed into integers.

    Bit i of a row is the coefficient of variable i; bit n_vars is the
    right-hand side.  The system is solved at construction, by the one
    GF(2) elimination that ``gf2_fast_readout`` also runs, :func:`_solve`,
    over its columns: one vector per variable, bit i for row i, and the
    right-hand side last.
    """

    __slots__ = ("n_vars", "rank", "consistent", "_solution", "_basis")

    def __init__(self, n_vars: int, rows: Iterable[int] = ()):
        self.n_vars = n_vars = _index(n_vars, "n_vars", 0)
        rows = [_index(r, "rows") for r in rows]
        columns = [0] * (n_vars + 1)
        for i, row in enumerate(rows):
            if row >> (n_vars + 1):
                raise ValueError("row has coefficient bits beyond n_vars")
            # Row i adds bit i to the column of each of its set bits.
            bit = 1 << i
            while row:
                low = row & -row
                columns[low.bit_length() - 1] |= bit
                row ^= low
        self._solution, self._basis = _solve(columns, n_vars)
        self.rank = n_vars - len(self._basis)
        self.consistent = self._solution is not None

    @property
    def rank_deficit(self) -> int:
        return self.n_vars - self.rank

    def iter_solutions(self) -> Iterator[int]:
        """All solutions as variable bitmasks (2^deficit of them), none when
        inconsistent.  The first sets every free variable to 0."""
        if self.consistent:
            yield from _span(self._solution, self._basis)


def _null_tags(vectors: Iterable[int]) -> Iterator[int]:
    """Insert int vectors in order into an echelon basis over GF(2) and
    yield the tag of each vector that reduces to zero, as soon as it does.

    Each basis vector is keyed by its leading bit (``bit_length()``) and
    carries a tag, the mask of input vectors whose XOR it is; vector i
    starts with the tag 1 << i.  A vector that reduces to zero leaves a
    null tag: a nonzero mask c with XOR_{j in c} v_j = 0, whose top bit is
    i.  The null tags span every such mask, one per unit of rank deficit.
    A vector is read only when the next tag is asked for, so a caller that
    stops at the first null tag reads no vector past it.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for i, vector in enumerate(vectors):
        tag = 1 << i
        while vector:
            hit = pivots.get(vector.bit_length())
            if hit is None:
                pivots[vector.bit_length()] = (vector, tag)
                break
            vector ^= hit[0]
            tag ^= hit[1]
        else:
            yield tag


def _solve(vectors: Iterable[int], n: int) -> tuple[int | None, list[int]]:
    """Solve sum_{r<n} c_r v_r = v_n over GF(2), given v_0..v_n: one
    solution mask c, or None, and the null tags of v_0..v_{n-1}.

    v_n goes last into :func:`_null_tags`, so it is in the others' span
    exactly when the last null tag has bit n.  A tag holds only its own bit
    and those of non-null vectors, so these are Gauss-Jordan's particular
    solution (every free bit 0) and null basis (one free bit each).
    """
    tags = list(_null_tags(vectors))
    if tags and tags[-1] >> n:
        return tags.pop() ^ (1 << n), tags
    return None, tags


def _span(solution: int, tags: list[int]) -> Iterator[int]:
    """*solution* XOR each subset of *tags*, the c-th holding tags[i] iff
    bit i of c is set, built by doubling and yielded a half at a time."""
    span = [solution]
    yield solution
    for tag in tags:
        half = [m ^ tag for m in span]
        yield from half
        span += half


def _bipolar_samples(wave: AnyWave, refsys: ReferenceSystem) -> np.ndarray | None:
    """The observed samples, or None when one is not ±1: no product of
    bipolar waves can match it, so every candidate is eliminated."""
    samples = np.asarray(wave.samples)
    if samples.size != refsys.clocks:
        raise ValueError(f"wave length {samples.size} does not match system clocks {refsys.clocks}")
    # A ClockedWave holds only ±1 samples by construction.
    return samples if type(wave) is ClockedWave or _all_bipolar(samples) else None


def brute_force_readout(wave: AnyWave, refsys: ReferenceSystem) -> ReadoutResult:
    """Elimination over all 2^N candidate product strings.

    Waveforms are held as sign words: a sign bit is 1 where a sample is
    -1, clock t is bit t % 64 of word t // 64, and ``hyperspace._sign_words``
    packs each wave into ceil(K/64) uint64 words, zero past clock K.  A product
    of ±1 samples has the XOR of their sign bits, so candidate m matches
    the observed wave exactly where the XOR of the target's words and its
    N selected reference waves' words is zero.  The table holds that XOR
    for every candidate, words-major as (ceil(K/64), 2^N): row m starts as
    the target's signs and takes candidate m's factors by in-place doubling
    (H_j adds 2^(j-1) to m), so all 2^N candidates are enumerated, and a
    candidate survives iff its row is all zero.  The planted string always
    survives when the wave was built from it.

    Args:
        wave: observed waveform (a corrupted, non-bipolar sample
            eliminates every candidate).
        refsys: reference system; n_bits must not exceed PRODUCT_STRING_CAP.
    """
    _enumeration_bits(refsys.n_bits, "brute-force readout", PRODUCT_STRING_CAP)
    target = _bipolar_samples(wave, refsys)
    n_bits, clocks = refsys.n_bits, refsys.clocks
    if target is None:
        return ReadoutResult.from_survivors(())
    # Sign words of L_1..L_N, H_1..H_N and the target, as (words, 2N + 1);
    # the target's samples are ±1, so int8 holds them.
    rows = np.vstack((refsys.samples.reshape(2 * n_bits, clocks), target.astype(np.int8)))
    signs = _sign_words(rows).T
    low, high = signs[:, :n_bits], signs[:, n_bits:-1]
    table = np.empty((len(signs), 1 << n_bits), dtype=np.uint64)
    table[:, 0] = signs[:, -1]
    for r in range(n_bits):
        filled = 1 << r
        np.bitwise_xor(table[:, :filled], high[:, r:r + 1], out=table[:, filled:2 * filled])
        table[:, :filled] ^= low[:, r:r + 1]
    matches = np.flatnonzero(~table.any(axis=0))
    return ReadoutResult.from_survivors(_product_strings(n_bits, matches.tolist()))


def gf2_fast_readout(wave: AnyWave, refsys: ReferenceSystem,
                     max_enumerated_deficit: int = MAX_ENUMERATED_DEFICIT) -> ReadoutResult:
    """Decode the L/H selections by GF(2) linearization.

    Mapping samples to sign bits (-1 -> 1, +1 -> 0) turns each clock t
    into the linear equation

        sum_r c_r * a_r(t)  =  w(t) + sum_r l_r(t)      (mod 2)

    with a_r = l_r XOR h_r and c_r = 1 iff bit r selects H.  :func:`_solve`
    over the N packed K-bit vectors a_r and the right-hand side then yields
    a unique solution (full rank), 2^d survivors (rank deficit d), or
    inconsistency.  Cost is O(K*N) to build the system plus the elimination.

    Survivor sets with d > max_enumerated_deficit are not materialized;
    the result then carries survivors=None and the exact count 2^d.
    """
    max_enumerated_deficit = _index(max_enumerated_deficit, "max_enumerated_deficit", 0)
    samples = _bipolar_samples(wave, refsys)
    n_bits = refsys.n_bits
    if samples is None:
        return ReadoutResult.from_survivors(())
    # Sign rows l_1..l_N, h_1..h_N, then w; the equation is
    # sum_r c_r a_r = w xor l_1 xor ... xor l_N.
    signs = _sign_rows(np.vstack((refsys.samples.reshape(2 * n_bits, refsys.clocks), samples)))
    low, high, rhs = signs[:n_bits], signs[n_bits:-1], signs[-1]
    for row in low:
        rhs ^= row
    solution, null_tags = _solve([*map(operator.xor, low, high), rhs], n_bits)
    if solution is None:
        return ReadoutResult.from_survivors(())
    if len(null_tags) > max_enumerated_deficit:
        return ReadoutResult(None, 1 << len(null_tags))
    return ReadoutResult.from_survivors(_product_strings(n_bits, _span(solution, null_tags)))


_TRIAL_PREFIX = _encode_path(("trial",))


def _trial_seeds(master_seed: int, trials: Iterable[int]) -> Iterator[int]:
    """SeedSpec(master_seed, ("trial", t)).derive_seed() for each trial t."""
    for key in _derive_keys(master_seed, _TRIAL_PREFIX, map(_encode_path_element, trials)):
        yield int.from_bytes(key[:8], "big")


def plant_trial(master_seed: int, trial: int, n_bits: int,
                clocks: int) -> tuple[ReferenceSystem, ProductString, ClockedWave]:
    """Build one deterministic readout instance for a Monte Carlo trial.

    The trial index, an integer of at least 0 as in ``count_failures``'
    trials 0..T-1, selects an independent substream of *master_seed*;
    the reference system and the planted selection mask both derive from
    it, so instances are reproducible and independent across trials.
    """
    trial_seed = next(_trial_seeds(master_seed, (_index(trial, "trial", 0),)))
    refsys = make_reference_system(trial_seed, n_bits, clocks)
    plant_bits = SeedSpec(trial_seed, ("plant",)).bits(n_bits)
    # Bit r-1 of the mask is sample r-1 of the plant stream.
    mask = int.from_bytes(np.packbits(plant_bits, bitorder="little").tobytes(), "little")
    planted = ProductString(n_bits, mask)
    return refsys, planted, realize_product(planted, refsys)


def _recorded(rows: Iterable[int], drawn: list[int]) -> Iterator[int]:
    """*rows*, each appended to *drawn* as it is read."""
    for row in rows:
        drawn.append(row)
        yield row


def _failure_counts(bits: Iterable[int], clocks: Iterable[int], trials: int,
                    master_seed: int) -> dict[tuple[int, int], int]:
    """``count_failures(n, k, trials, master_seed)`` for every (n, k) of the
    grid *bits* x *clocks*, from one lazy pass per trial.  The counts are
    taken as already checked.

    A trial is decided by its pair rows a_r = row(L_r) ^ row(H_r), the
    columns of A, inserted in order into :func:`_null_tags`.  The first N
    columns are rank-deficient exactly when some column below N reduces to
    zero, so a trial fails at N exactly when its first null tag's top bit
    is below N, and the pass stops at that tag: ``rtw._pair_rows`` hashes
    no pair past it (at most K + 1 pairs at K < N).  Streams are
    prefix-stable and clock 1 is a row's top bit, so a row at K is the row
    at max(K) shifted right by max(K) - K, and the pairs drawn at max(K)
    are all that any smaller K reads, since a first null tag comes no later
    at a smaller K.  The pass learns whether a trial fails, not its full
    rank deficit.  The ("trial",) key prefix is hashed once per call and the
    ("bit",) prefix once per trial, so hashing the pairs is most of a
    trial's time.

    The tests compare every count with a per-trial recount that reads all
    2N rows through ``rtw._reference_rows`` and lists every null tag,
    including N = 0, K = 0, K across the 512-clock block edges and grids
    with K < N.
    """
    bits, clocks = tuple(bits), tuple(clocks)
    max_n = max(bits)
    max_k, *smaller = sorted(set(clocks), reverse=True)
    # firsts[k][i]: trials whose first null tag at K = k has top bit i,
    # with i = max(N) for a trial that has none.
    firsts = {k: [0] * (max_n + 1) for k in (max_k, *smaller)}
    at_max_k, no_null = firsts[max_k], 1 << max_n
    for trial_seed in _trial_seeds(master_seed, range(trials)):
        rows = _pair_rows(trial_seed, max_n, max_k)
        if smaller:
            drawn: list[int] = []
            rows = _recorded(rows, drawn)
        at_max_k[next(_null_tags(rows), no_null).bit_length() - 1] += 1
        for k in smaller:
            shift = max_k - k
            first = next(_null_tags(row >> shift for row in drawn), no_null)
            firsts[k][first.bit_length() - 1] += 1
    return {(n, k): sum(firsts[k][:n]) for n in bits for k in clocks}


def count_failures(n_bits: int, clocks: int, trials: int, master_seed: int) -> int:
    """Number of planted instances the fast readout fails to decode uniquely.

    Failure means "not unique".  An honestly planted instance is never
    inconsistent, so it fails exactly when A = sign(L) xor sign(H) (K x N
    over GF(2)) is rank-deficient, and gives the same verdict as
    ``gf2_fast_readout`` on the ``plant_trial`` instance.  Each trial is
    decided without a reference system, planting, realizing or decoding:
    the columns of A are hashed pair by pair and inserted in order into
    :func:`_null_tags`, the eliminator that ``gf2_fast_readout`` and
    ``Gf2System`` also solve by, and the trial stops at the first column
    that reduces to zero, hashing no pair past it.  This is the one-point
    call of the engine that ``run_readout_scaling`` runs over a whole grid.
    The hash inputs are those of per-substream ``SeedSpec`` keys, so the
    counts are the same as with those keys and ``gf2_fast_readout``.

    Trials use seeds derived from (master_seed, trial index), so the count
    is a pure function of the arguments.  With a shared master seed the
    per-trial reference waves for a smaller *clocks* are a prefix of those
    for a larger one, so a trial's columns at K are its columns at a larger
    K shifted right, and the count is non-increasing in *clocks*.
    """
    n_bits, clocks, trials = (_index(n_bits, "n_bits", 0), _index(clocks, "clocks", 0),
                              _index(trials, "trials", 1))
    return _failure_counts((n_bits,), (clocks,), trials, master_seed)[n_bits, clocks]


def _log4(x: float) -> float:
    # log2/2 keeps powers of two exact, which the calculators' pinned
    # values rely on.
    return math.log2(x) / 2.0


def stacho_clock_bound(n_bits: int, epsilon: float) -> float:
    """Clock-period budget N * (log2 N)^(1+epsilon) sufficient for fast
    product-string measurement."""
    n_bits = _index(n_bits, "n_bits", 2)  # log2 N must be at least 1
    epsilon = _real(epsilon, "epsilon")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    try:
        bound = n_bits * math.log2(n_bits) ** (1.0 + epsilon)
    except OverflowError:
        bound = math.inf
    return _finite_result(bound, f"clock bound for N={n_bits}, epsilon={epsilon}")


def timeshifted_readout_steps(n_bits: int, p_fail: float) -> float:
    """Time steps 2N * log4(N/P) needed at failure target P in the
    time-shifted representation."""
    n_bits = _index(n_bits, "n_bits", 1)
    p_fail = _real(p_fail, "p_fail")
    if p_fail <= 0:
        raise ValueError("failure probability target must be positive")
    try:
        ratio = n_bits / p_fail
        if ratio <= 1:
            raise ValueError("N/P must exceed 1 for a positive step count")
        steps = 2 * n_bits * _log4(ratio)
    except OverflowError:
        steps = math.inf
    return _finite_result(steps, f"time-shifted step count for N={n_bits}, P={p_fail}")


def _finite_result(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} is not a finite float")
    return value
