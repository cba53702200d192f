"""exhaustive: the 2^N enumerations at their caps.

A round is nine operations: the expanded-sum universe at N=12 beside
synthesize_universe on three reference systems, brute_force_readout on
three planted N=16 instances (K = 64, 20 and 17, so that some have a
rank deficit and several survivors), find_degeneracies at N=16 for the
linear and the exponential assignment, and enumerate_superpositions(4).
Three operations run faster than brute force and three slower, so the
median latency is the middle brute-force call, not the edge between two
groups of unlike operations.
"""

from __future__ import annotations

import random
import resource
import time
from collections import Counter

import numpy as np

from nbl_lab import (EXPONENTIAL, LINEAR, ProductString, SinusRepresentation, brute_force_readout,
                     enumerate_superpositions, expand_universe, find_degeneracies,
                     make_reference_system, realize_product, realize_superposition,
                     synthesize_universe)
from oracles import (gf2_rank, linear_degeneracy_groups, product_of_selection, readout_matrix_rows,
                     reference_arrays, universe_oracle)
from spans import BLOCK_BITS

BF_BITS = 16
BF_CLOCKS = (64, 20, 17)
UNIVERSE_BITS = 12
UNIVERSE_CLOCKS = 256
UNIVERSE_SYSTEMS = 3
SUPERPOSITION_BITS = 4
POOL = 8  # distinct instance sets; round r uses set r % POOL


def _call(tracer, name, fn, *args):
    return fn(*args) if tracer is None else tracer.call(name, fn, *args)


class Workload:
    def __init__(self, root, seed, probe=None):
        rng = random.Random(seed)
        self.pool = []
        for _ in range(POOL):
            planted = []
            for clocks in BF_CLOCKS:
                refsys = _call(probe, "rtw.make_reference_system", make_reference_system,
                               rng.getrandbits(64), BF_BITS, clocks)
                string = ProductString(BF_BITS, rng.getrandbits(BF_BITS))
                wave = _call(probe, "hyperspace.realize_product", realize_product, string, refsys)
                planted.append((refsys, string, wave))
            universes = [_call(probe, "rtw.make_reference_system", make_reference_system,
                               rng.getrandbits(64), UNIVERSE_BITS, UNIVERSE_CLOCKS)
                         for _ in range(UNIVERSE_SYSTEMS)]
            self.pool.append((planted, universes))
        # Each reference system derives one key and hashes ceil(K/BLOCK_BITS) blocks per wave.
        self.counts = Counter()
        for planted, universes in self.pool:
            for refsys in [p[0] for p in planted] + universes:
                self.counts["rtw.keys_derived"] += 2 * refsys.n_bits
                self.counts["rtw.blocks_hashed"] += 2 * refsys.n_bits * -(-refsys.clocks // BLOCK_BITS)
        self.reps = {kind: SinusRepresentation(kind, BF_BITS) for kind in (LINEAR, EXPONENTIAL)}
        self._linear_groups = None

    def warmup(self):
        small = make_reference_system(1, 4, 16)
        brute_force_readout(realize_product(ProductString(4, 5), small), small)
        find_degeneracies(SinusRepresentation(LINEAR, 4))
        realize_superposition(expand_universe(4), small)
        synthesize_universe(small)
        enumerate_superpositions(2)

    def ops(self, r, tracer=None):
        planted, universes = self.pool[r % POOL]

        def universe_op(universe):
            expanded = _call(tracer, "hyperspace.expand_universe", expand_universe, UNIVERSE_BITS)
            oracle = _call(tracer, "hyperspace.realize_superposition", realize_superposition,
                           expanded, universe)
            direct = _call(tracer, "hyperspace.synthesize_universe", synthesize_universe, universe)
            return oracle, direct

        ops = [(f"universe N=12 #{j}", lambda u=universe: universe_op(u))
               for j, universe in enumerate(universes)]
        ops += [(f"brute_force_readout K={refsys.clocks}",
                lambda refsys=refsys, wave=wave: _call(
                    tracer, "readout.brute_force_readout", brute_force_readout, wave, refsys))
               for refsys, _, wave in planted]
        ops += [(f"find_degeneracies {kind}",
                 lambda rep=rep: _call(tracer, f"sinus.find_degeneracies_{rep.kind}",
                                       find_degeneracies, rep))
                for kind, rep in self.reps.items()]
        ops.append(("enumerate_superpositions", lambda: _call(
            tracer, "hyperspace.enumerate_superpositions", enumerate_superpositions,
            SUPERPOSITION_BITS)))
        return ops

    def check(self, r, label, out):
        planted, universes = self.pool[r % POOL]
        if label.startswith("brute_force_readout"):
            clocks = int(label.rsplit("=", 1)[1])
            refsys, string, wave = next(p for p in planted if p[0].clocks == clocks)
            return self._check_brute_force(out, refsys, string, wave)
        if label == "find_degeneracies linear":
            return self._check_linear(out)
        if label == "find_degeneracies exponential":
            return [] if out.groups == () else [f"{len(out.groups)} groups, expected none"]
        if label.startswith("universe"):
            oracle, direct = out
            expected = universe_oracle(*reference_arrays(universes[int(label.rsplit("#", 1)[1])]))
            errors = []
            if not np.array_equal(direct.samples, expected):
                errors.append("synthesize_universe differs from the closed form")
            if not np.array_equal(oracle.samples, expected):
                errors.append("expanded-sum universe differs from the closed form")
            return errors
        expected = 1 << (1 << SUPERPOSITION_BITS)
        return [] if out == expected else [f"counted {out} superpositions, expected {expected}"]

    def _check_brute_force(self, result, refsys, string, wave):
        low, high = reference_arrays(refsys)
        deficit = BF_BITS - gf2_rank(readout_matrix_rows(low, high))
        errors = []
        if result.survivor_count != 1 << deficit:
            errors.append(f"{result.survivor_count} survivors, expected 2^{deficit}")
        if result.survivors is None or string not in result.survivors:
            errors.append("planted string is not among the survivors")
        for survivor in result.survivors or ():
            if not np.array_equal(product_of_selection(low, high, survivor.mask), wave.samples):
                errors.append(f"survivor {survivor} does not reproduce the wave")
                break
        return errors

    def _check_linear(self, report):
        if self._linear_groups is None:
            self._linear_groups = linear_degeneracy_groups(BF_BITS)
        got = [(g.frequency, [ps.mask for ps in g.members]) for g in report.groups]
        errors = []
        if got != self._linear_groups:
            errors.append(f"{len(got)} linear groups differ from the N-1 = {BF_BITS - 1} expected")
        if report.total_collided != (1 << BF_BITS) - 2:
            errors.append(f"{report.total_collided} collided strings, expected 2^N - 2")
        return errors

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def finish_checks(self, probe):
        return []

    def traced_pass(self, tracer, rounds):
        """Each operation of the timed phase twice, untraced and then with
        spans; returns the errors and the traced and untraced seconds."""
        errors, traced, untraced = [], 0.0, 0.0
        for r in range(rounds):
            for (label, plain), (_, spanned) in zip(self.ops(r), self.ops(r, tracer)):
                started = time.perf_counter()
                plain()
                untraced += time.perf_counter() - started
                started = time.perf_counter()
                out = spanned()
                traced += time.perf_counter() - started
                errors += self.check(r, label, out)
                if label.startswith("find_degeneracies"):
                    self.counts["sinus.strings_scanned"] += 1 << BF_BITS
        return errors, traced, untraced

    def probe(self, tracer, rounds):
        return []
