"""Reference computations the benchmark checks nbl_lab against.

Each oracle is written from the mathematics, not from nbl_lab's code, and
imports nothing from it.  ``test_oracles.py`` checks every oracle against
exhaustive enumeration at tiny sizes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack an (N, K) 0/1 array into K uint64 rows; bit r of row t is bits[r, t]."""
    n = bits.shape[0]
    if n > 64:
        raise ValueError("packed rows hold at most 64 columns")
    shifted = bits.astype(np.uint64) << np.arange(n, dtype=np.uint64)[:, None]
    return np.bitwise_or.reduce(shifted, axis=0) if n else np.zeros(bits.shape[1], np.uint64)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a set of rows packed into uint64 words."""
    work = np.array(rows, dtype=np.uint64).reshape(-1)
    rank = 0
    top = int(np.bitwise_or.reduce(work)) if work.size else 0
    for bit in range(top.bit_length()):
        col = np.uint64(1 << bit)
        hits = np.flatnonzero(work & col)
        if hits.size == 0:
            continue
        pivot = work[hits[0]]
        work = np.delete(work, hits[0])
        work[(work & col) != 0] ^= pivot
        rank += 1
    return rank


def reference_arrays(refsys) -> tuple[np.ndarray, np.ndarray]:
    """(L, H) as (N, K) arrays of ±1, read through ReferenceSystem.low/high."""
    bits = range(1, refsys.n_bits + 1)
    shape = (refsys.n_bits, refsys.clocks)
    low = np.array([refsys.low(r).samples for r in bits], dtype=np.int8).reshape(shape)
    high = np.array([refsys.high(r).samples for r in bits], dtype=np.int8).reshape(shape)
    return low, high


def readout_matrix_rows(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Rows of A = sign(L) xor sign(H) for (N, K) arrays of ±1 samples."""
    return pack_rows((low < 0) ^ (high < 0))


def full_rank_probability(n: int, k: int) -> Fraction:
    """Exact probability that a uniform random K×N matrix over GF(2) has rank N:
    prod_{i=0}^{N-1} (1 - 2^(i-K))."""
    p = Fraction(1)
    for i in range(n):
        p *= 1 - Fraction(2) ** (i - k)
    return p


def binomial_interval(trials: int, p: float, alpha: float = 1e-9) -> tuple[int, int]:
    """Smallest [lo, hi] with P(X < lo) <= alpha and P(X > hi) <= alpha for
    X ~ Binomial(trials, p)."""
    if p <= 0.0:
        return (0, 0)
    if p >= 1.0:
        return (trials, trials)
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [math.exp(math.lgamma(trials + 1) - math.lgamma(x + 1) - math.lgamma(trials - x + 1)
                    + x * log_p + (trials - x) * log_q) for x in range(trials + 1)]
    lo, tail = 0, 0.0
    while tail + pmf[lo] <= alpha:
        tail += pmf[lo]
        lo += 1
    hi, tail = trials, 0.0
    while tail + pmf[hi] <= alpha:
        tail += pmf[hi]
        hi -= 1
    return (lo, hi)


def linear_degeneracy_groups(n: int) -> list[tuple[int, list[int]]]:
    """Collision groups of the linear harmonic assignment (L_r -> 2r-1, H_r -> 2r).

    A string with k H selections has frequency sum(2r-1) + k = N^2 + k, so
    the groups are k = 1..N-1, each holding every mask of popcount k, in
    ascending mask order."""
    by_weight: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_weight[mask.bit_count()].append(mask)
    return [(n * n + k, by_weight[k]) for k in range(1, n)]


def universe_oracle(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Sum over all 2^N product strings, in closed form.

    Per clock, prod_r (L_r + H_r) is 2^N * prod_r L_r where every L_r = H_r,
    and 0 where any pair differs."""
    n = low.shape[0]
    agree = np.all(low == high, axis=0)
    signs = np.prod(low.astype(np.int64), axis=0)
    return np.where(agree, signs * (1 << n), 0)


def product_of_selection(low: np.ndarray, high: np.ndarray, mask: int) -> np.ndarray:
    """Samplewise product of H_r where bit r-1 of *mask* is set, L_r elsewhere."""
    n = low.shape[0]
    chosen = np.where(((mask >> np.arange(n)) & 1).astype(bool)[:, None], high, low)
    return np.prod(chosen.astype(np.int64), axis=0)


def stacho_bound(n: int, epsilon: float) -> float:
    """N * log2(N)^(1+epsilon)."""
    return n * math.log2(n) ** (1 + epsilon)


def timeshifted_steps(n: int, p: float) -> float:
    """2N * log4(N/P), which is N * log2(N/P)."""
    return n * math.log2(n / p)
