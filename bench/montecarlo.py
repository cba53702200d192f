"""montecarlo: count_failures estimates over the criterion-7 grid.

One operation is one ``count_failures(N, K, TRIALS, master_seed)`` call.
A round is one estimate per grid point, each with its own master seed
drawn from the workload seed.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter

import numpy as np

from nbl_lab import (Gf2System, ProductString, SeedSpec, count_failures, gf2_fast_readout,
                     make_reference_system, plant_trial, realize_product)
from oracles import (binomial_interval, full_rank_probability, gf2_rank, readout_matrix_rows,
                     reference_arrays)
from spans import BLOCK_BITS

GRID = ((6, 12), (8, 16), (10, 20), (8, 8))
TRIALS = 200
ROUNDS_DRAWN = 4096  # far more rounds than a three-minute run can reach
LABELS = [f"count_failures N={n} K={k}" for n, k in GRID]


def _trial_seed(master, trial):
    return SeedSpec(master, ("trial", trial)).derive_seed()


def _plant_bits(trial_seed, n_bits):
    return SeedSpec(trial_seed, ("plant",)).bits(n_bits)


def _redriven_failure(tracer, master, trial, n, k):
    call = tracer.call
    tracer.begin("readout.plant_trial")
    trial_seed = call("rtw.derive_seed", _trial_seed, master, trial)
    refsys = call("rtw.make_reference_system", make_reference_system, trial_seed, n, k)
    bits = call("rtw.bits", _plant_bits, trial_seed, n)
    mask = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    wave = call("hyperspace.realize_product", realize_product, ProductString(n, mask), refsys)
    tracer.end()
    result = call("readout.gf2_fast_readout", gf2_fast_readout, wave, refsys,
                  max_enumerated_deficit=0)
    return not result.is_unique


class Workload:
    def __init__(self, root, seed, probe=None):
        rng = random.Random(seed)
        self.masters = [[rng.getrandbits(64) for _ in GRID] for _ in range(ROUNDS_DRAWN)]
        self.failures = {}  # (round, grid index) -> count_failures result
        self.counts = Counter()

    def warmup(self):
        count_failures(4, 8, 5, 1)

    def ops(self, r):
        return [(LABELS[g], lambda n=n, k=k, m=self.masters[r][g]: count_failures(n, k, TRIALS, m))
                for g, (n, k) in enumerate(GRID)]

    def check(self, r, label, failures):
        g = LABELS.index(label)
        n, k = GRID[g]
        self.failures[(r, g)] = failures
        self.counts["readout.trials"] += TRIALS
        self.counts["readout.rank_deficient"] += failures
        lo, hi = binomial_interval(TRIALS, float(1 - full_rank_probability(n, k)))
        if not lo <= failures <= hi:
            return [f"{failures} failures outside the binomial interval [{lo}, {hi}]"]
        return []

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def finish_checks(self, probe):
        """Every trial of round 0: the oracle rank of A = sign(L) xor sign(H)
        predicts the decoder's verdict, full rank yields the planted string
        alone, and a deficit d yields 2^d survivors including it.  With a
        probe tracer, also time Gf2System on each trial's augmented rows."""
        errors = []
        for g, (n, k) in enumerate(GRID):
            master = self.masters[0][g]
            deficient = 0
            for t in range(TRIALS):
                refsys, planted, wave = plant_trial(master, t, n, k)
                low, high = reference_arrays(refsys)
                rows = readout_matrix_rows(low, high)
                rank = gf2_rank(rows)
                result = gf2_fast_readout(wave, refsys)
                deficient += rank < n
                where = f"N={n} K={k} master={master} trial {t}"
                if result.is_unique != (rank == n):
                    errors.append(f"{where}: oracle rank {rank} but decoder says {result.status}")
                elif result.survivor_count != 1 << (n - rank):
                    errors.append(f"{where}: {result.survivor_count} survivors, rank {rank}")
                elif result.is_unique and result.sole_survivor() != planted:
                    errors.append(f"{where}: sole survivor is not the planted string")
                elif result.survivors is not None and planted not in result.survivors:
                    errors.append(f"{where}: planted string not among the survivors")
                if probe is not None:
                    rhs = ((wave.samples < 0) ^ (np.sum(low < 0, axis=0) & 1)).astype(np.uint64)
                    augmented = [int(a) | (int(b) << n) for a, b in zip(rows, rhs)]
                    system = probe.call("readout.Gf2System", Gf2System, n, augmented)
                    if system.rank != rank or not system.consistent:
                        errors.append(f"{where}: Gf2System rank {system.rank}, oracle {rank}")
            if deficient != self.failures.get((0, g), deficient):
                errors.append(f"N={n} K={k}: oracle counts {deficient} rank-deficient trials, "
                              f"count_failures {self.failures[(0, g)]}")
        return errors

    def traced_pass(self, tracer, rounds):
        """Each estimate of the timed phase twice: count_failures untraced,
        then every trial re-driven through the public steps of plant_trial
        and decoded, with spans.  The failure counts must match exactly.
        Returns the errors and the traced and untraced seconds."""
        errors, traced, untraced = [], 0.0, 0.0
        for r in range(rounds):
            for g, (n, k) in enumerate(GRID):
                master = self.masters[r][g]
                started = time.perf_counter()
                count_failures(n, k, TRIALS, master)
                untraced += time.perf_counter() - started
                started = time.perf_counter()
                failures = sum(_redriven_failure(tracer, master, t, n, k) for t in range(TRIALS))
                traced += time.perf_counter() - started
                if failures != self.failures.get((r, g), failures):
                    errors.append(f"re-driven N={n} K={k} round {r}: {failures} failures, "
                                  f"count_failures gave {self.failures[(r, g)]}")
                # Per trial: one trial key, 2N wave streams of K bits, one plant stream.
                self.counts["rtw.keys_derived"] += TRIALS * (2 * n + 2)
                self.counts["rtw.blocks_hashed"] += TRIALS * (2 * n * -(-k // BLOCK_BITS) + 1)
                self.counts["rtw.bits"] += TRIALS * n
        return errors, traced, untraced

    def probe(self, tracer, rounds):
        return []
