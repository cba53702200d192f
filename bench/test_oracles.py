"""Exhaustive checks of the benchmark's oracles at tiny sizes.

Run with:  python3 -m pytest bench/test_oracles.py -q
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from oracles import (
    binomial_interval,
    full_rank_probability,
    gf2_rank,
    linear_degeneracy_groups,
    pack_rows,
    product_of_selection,
    readout_matrix_rows,
    universe_oracle,
)


def span_rank(rows):
    """Rank as log2 of the number of distinct XOR combinations of the rows."""
    span = set()
    for pick in range(1 << len(rows)):
        acc = 0
        for i, row in enumerate(rows):
            if (pick >> i) & 1:
                acc ^= row
        span.add(acc)
    return len(span).bit_length() - 1


def all_matrices(k, n):
    """Every K×N 0/1 matrix, as a tuple of K row integers below 2^N."""
    return itertools.product(range(1 << n), repeat=k)


def test_gf2_rank_matches_span_size_for_every_small_matrix():
    for k in range(0, 4):
        for n in range(0, 4):
            for rows in all_matrices(k, n):
                assert gf2_rank(list(rows)) == span_rank(list(rows)), (k, n, rows)


def test_gf2_rank_uses_all_64_columns():
    rows = [1 << 63, (1 << 63) | 1, 1]
    assert gf2_rank(rows) == 2
    assert gf2_rank([]) == 0


def test_full_rank_probability_matches_enumeration():
    for k in range(0, 4):
        for n in range(0, 4):
            full = sum(span_rank(list(rows)) == n for rows in all_matrices(k, n))
            assert full_rank_probability(n, k) == Fraction(full, 2 ** (k * n)), (k, n)


def test_pack_rows_puts_bit_r_of_row_t_at_position_r():
    bits = np.array([[1, 0, 1], [0, 0, 1]], dtype=np.uint8)
    assert pack_rows(bits).tolist() == [1, 0, 3]


def test_readout_matrix_rows_xor_the_sign_bits():
    low = np.array([[1, -1, 1, -1]])
    high = np.array([[1, 1, -1, -1]])
    assert readout_matrix_rows(low, high).tolist() == [0, 1, 1, 0]


def test_linear_degeneracy_closed_form_matches_enumeration():
    for n in range(0, 9):
        by_freq = {}
        for mask in range(1 << n):
            freq = sum(2 * r if (mask >> (r - 1)) & 1 else 2 * r - 1 for r in range(1, n + 1))
            by_freq.setdefault(freq, []).append(mask)
        groups = [(f, members) for f, members in sorted(by_freq.items()) if len(members) >= 2]
        assert linear_degeneracy_groups(n) == groups, n


def test_universe_oracle_matches_expanded_sum_on_every_clock_pattern():
    for n in range(0, 4):
        # One clock per assignment of (L_r, H_r) in {-1, +1}^2 for every bit.
        patterns = list(itertools.product((-1, 1), repeat=2 * n))
        columns = np.array(patterns, dtype=np.int64).T.reshape(2 * n, len(patterns))
        low, high = columns[:n], columns[n:]
        expanded = sum(product_of_selection(low, high, mask) for mask in range(1 << n))
        assert np.array_equal(universe_oracle(low, high), expanded), n


def test_product_of_selection_picks_high_for_set_bits():
    low = np.array([[1, 1], [-1, -1]])
    high = np.array([[-1, -1], [1, 1]])
    assert product_of_selection(low, high, 0b01).tolist() == [1, 1]
    assert product_of_selection(low, high, 0b11).tolist() == [-1, -1]


def test_binomial_interval_tails_match_exact_sums():
    alpha = 0.01
    for trials in range(1, 12):
        for p in (0.05, 0.3, 0.5, 0.9):
            lo, hi = binomial_interval(trials, p, alpha)
            pmf = [math.comb(trials, x) * p**x * (1 - p) ** (trials - x) for x in range(trials + 1)]
            assert sum(pmf[:lo]) <= alpha < sum(pmf[:lo + 1])
            assert sum(pmf[hi + 1:]) <= alpha < sum(pmf[hi:])
    assert binomial_interval(10, 0.0) == (0, 0)
    assert binomial_interval(10, 1.0) == (10, 10)
