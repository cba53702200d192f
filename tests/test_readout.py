"""GF(2) elimination, the two readout routes, and the failure-rate harness."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbl_lab import (
    MAX_ENUMERATED_DEFICIT,
    EnumerationCapError,
    Gf2System,
    IntegerWave,
    ProductString,
    brute_force_readout,
    count_failures,
    gf2_fast_readout,
    make_reference_system,
    plant_trial,
    realize_product,
    stacho_clock_bound,
    timeshifted_readout_steps,
)
from nbl_lab.readout import ReadoutResult

SEED = 0xD1CEBA5E


def brute_solutions(n_vars, rows):
    """Reference solver: test every assignment against every original row."""
    rhs_bit = 1 << n_vars
    solutions = []
    for assignment in range(1 << n_vars):
        ok = True
        for row in rows:
            coeffs = row & (rhs_bit - 1)
            parity = bin(assignment & coeffs).count("1") & 1
            if parity != bool(row & rhs_bit):
                ok = False
                break
        if ok:
            solutions.append(assignment)
    return solutions


def gf2_system_readout(wave, refsys, max_enumerated_deficit=MAX_ENUMERATED_DEFICIT):
    """The oracle decoder: one Gf2System row per clock, bit r-1 for a_r(t)
    and bit N for the right-hand side, solved by Gauss-Jordan elimination."""
    samples = np.asarray(wave.samples)
    if not np.all((samples == 1) | (samples == -1)):
        return ReadoutResult.from_survivors(())
    n_bits = refsys.n_bits
    sign_l, sign_h = refsys.samples == -1
    rhs = (samples == -1) ^ np.logical_xor.reduce(sign_l, axis=0)
    columns = np.vstack([sign_l ^ sign_h, rhs])
    rows = [sum(int(bit) << r for r, bit in enumerate(columns[:, t])) for t in range(refsys.clocks)]
    system = Gf2System(n_bits, rows)
    if not system.consistent:
        return ReadoutResult.from_survivors(())
    if system.rank_deficit > max_enumerated_deficit:
        return ReadoutResult(None, 1 << system.rank_deficit)
    return ReadoutResult.from_survivors(ProductString(n_bits, m) for m in system.iter_solutions())


def flip_one_sample(wave, clock):
    samples = wave.samples.astype(np.int64)
    samples[clock] = -samples[clock]
    return IntegerWave(samples)


class TestGf2System:
    def test_known_unique_system(self):
        # x0 = 1, x0 + x1 = 1  ->  x0 = 1, x1 = 0
        system = Gf2System(2, [0b101, 0b111])
        assert system.rank == 2
        assert system.consistent
        assert list(system.iter_solutions()) == [1]

    def test_inconsistent_system(self):
        system = Gf2System(2, [0b011, 0b111])
        assert not system.consistent
        assert list(system.iter_solutions()) == []

    def test_rank_deficit_counts_solutions(self):
        system = Gf2System(3, [0b1011])
        assert system.rank == 1
        assert system.rank_deficit == 2
        assert system.consistent
        assert sorted(system.iter_solutions()) == brute_solutions(3, [0b1011])

    def test_empty_system(self):
        system = Gf2System(3)
        assert system.rank == 0
        assert sorted(system.iter_solutions()) == list(range(8))

    def test_zero_variables(self):
        assert list(Gf2System(0, [0]).iter_solutions()) == [0]
        assert not Gf2System(0, [1]).consistent

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            Gf2System(2, [0b1000])

    @pytest.mark.parametrize("args,message", [
        ((2, [2.7]), "rows must be an integer, got 2.7"),
        ((2, [0b101, True]), "rows must be an integer, got True"),
        ((2.0, [0b101]), "n_vars must be an integer, got 2.0"),
        ((True, [0b01]), "n_vars must be an integer, got True"),
    ])
    def test_rows_and_variable_count_must_be_integers(self, args, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            Gf2System(*args)

    def test_numpy_rows_and_variable_count_are_accepted(self):
        system = Gf2System(np.int64(2), np.array([0b101, 0b111], dtype=np.uint8))
        assert (system.n_vars, system.rows) == (2, Gf2System(2, [0b101, 0b111]).rows)
        assert all(type(row) is int for row in system.rows)

    @given(st.integers(0, 6), st.integers(0, 10), st.integers(0, 2**32))
    @settings(max_examples=200)
    def test_solution_set_preserved(self, n_vars, n_rows, seed):
        rng = np.random.default_rng(seed)
        rows = [int(rng.integers(0, 1 << (n_vars + 1))) for _ in range(n_rows)]
        system = Gf2System(n_vars, rows)
        expected = brute_solutions(n_vars, rows)
        assert system.consistent == bool(expected)
        assert sorted(system.iter_solutions()) == expected
        if expected:
            assert 1 << system.rank_deficit == len(expected)

    def test_planted_solutions_recovered(self):
        # Random systems with a planted solution are solved exactly
        # whenever they reach full rank.
        rng = np.random.default_rng(1234)
        full_rank_seen = 0
        for _ in range(10_000):
            n_vars = int(rng.integers(1, 11))
            n_rows = int(rng.integers(n_vars, 3 * n_vars + 1))
            planted = int(rng.integers(0, 1 << n_vars))
            rows = []
            for _ in range(n_rows):
                coeffs = int(rng.integers(0, 1 << n_vars))
                rhs = bin(coeffs & planted).count("1") & 1
                rows.append(coeffs | (rhs << n_vars))
            system = Gf2System(n_vars, rows)
            assert system.consistent
            if system.rank == n_vars:
                full_rank_seen += 1
                assert list(system.iter_solutions()) == [planted]
            else:
                assert planted in set(system.iter_solutions())
        assert full_rank_seen > 5000  # the property must actually be exercised


class TestReadoutResult:
    def test_status_count_coherence(self):
        with pytest.raises(ValueError):
            ReadoutResult(frozenset(), 1)
        with pytest.raises(ValueError):
            ReadoutResult(frozenset({ProductString(2, 1)}), 2)
        with pytest.raises(ValueError):
            ReadoutResult(None, -1)
        assert ReadoutResult(None, 0).status == "inconsistent"
        assert ReadoutResult(None, 1).status == "unique"
        assert ReadoutResult(None, 2).status == "ambiguous"

    def test_sole_survivor(self):
        ps = ProductString(2, 1)
        result = ReadoutResult.from_survivors([ps])
        assert result.is_unique
        assert result.sole_survivor() == ps
        ambiguous = ReadoutResult.from_survivors([ps, ProductString(2, 2)])
        with pytest.raises(ValueError):
            ambiguous.sole_survivor()


class TestBruteForceReadout:
    def test_no_constraints_keeps_everyone(self):
        system = make_reference_system(SEED, 3, 0)
        wave = realize_product(ProductString(3, 5), system)
        result = brute_force_readout(wave, system)
        assert result.status == "ambiguous"
        assert result.survivor_count == 8

    def test_planted_string_recovered(self):
        system = make_reference_system(42, 4, 64)
        planted = ProductString(4, 0b1010)
        result = brute_force_readout(realize_product(planted, system), system)
        assert result.status == "unique"
        assert result.sole_survivor() == planted

    def test_corrupted_sample_is_inconsistent(self):
        system = make_reference_system(42, 3, 16)
        samples = realize_product(ProductString(3, 2), system).samples.astype(np.int64).copy()
        samples[7] = 0
        result = brute_force_readout(IntegerWave(samples), system)
        assert result.status == "inconsistent"
        assert result.survivor_count == 0

    @pytest.mark.parametrize("bad", [255, 257])
    def test_sample_wrapping_under_int8_is_inconsistent(self, bad):
        # An int8 cast maps 255 to -1 and 257 to +1; place the value where
        # the wrapped sample would match the planted string.
        system = make_reference_system(42, 3, 16)
        samples = realize_product(ProductString(3, 2), system).samples.astype(np.int64)
        samples[np.flatnonzero(samples == bad - 256)[0]] = bad
        for readout in (brute_force_readout, gf2_fast_readout):
            assert readout(IntegerWave(samples), system).status == "inconsistent"

    def test_cap(self):
        system = make_reference_system(SEED, 17, 1)
        wave = realize_product(ProductString(17, 0), system)
        with pytest.raises(EnumerationCapError, match="16"):
            brute_force_readout(wave, system)

    def test_length_mismatch(self):
        system = make_reference_system(SEED, 2, 8)
        with pytest.raises(ValueError):
            brute_force_readout(IntegerWave(np.ones(4, dtype=np.int64)), system)


class TestGf2FastReadout:
    def test_no_constraints(self):
        system = make_reference_system(SEED, 4, 0)
        wave = realize_product(ProductString(4, 3), system)
        result = gf2_fast_readout(wave, system)
        assert result.status == "ambiguous"
        assert result.survivor_count == 16
        assert result.survivors is not None and len(result.survivors) == 16

    def test_survivor_elision_above_deficit_cap(self):
        system = make_reference_system(SEED, 12, 0)
        wave = realize_product(ProductString(12, 0), system)
        result = gf2_fast_readout(wave, system)
        assert result.status == "ambiguous"
        assert result.survivors is None
        assert result.survivor_count == 2**12

    def test_custom_enumeration_threshold(self):
        system = make_reference_system(SEED, 12, 0)
        wave = realize_product(ProductString(12, 0), system)
        result = gf2_fast_readout(wave, system, max_enumerated_deficit=12)
        assert result.survivors is not None and len(result.survivors) == 2**12

    def test_corrupted_sample_is_inconsistent(self):
        system = make_reference_system(42, 3, 16)
        samples = realize_product(ProductString(3, 2), system).samples.astype(np.int64).copy()
        samples[3] = 2
        result = gf2_fast_readout(IntegerWave(samples), system)
        assert result.status == "inconsistent"

    def test_zero_bits(self):
        system = make_reference_system(SEED, 0, 8)
        all_ones = realize_product(ProductString(0, 0), system)
        result = gf2_fast_readout(all_ones, system)
        assert result.status == "unique"
        assert result.sole_survivor() == ProductString(0, 0)
        flipped = IntegerWave(-np.asarray(all_ones.samples, dtype=np.int64))
        assert gf2_fast_readout(flipped, system).status == "inconsistent"

    @pytest.mark.parametrize("n_bits,clocks", [(0, 0), (0, 4), (1, 0), (1, 4), (3, 2),
                                               (3, 12), (6, 6), (8, 32), (12, 24)])
    def test_agrees_with_brute_force(self, n_bits, clocks):
        for instance in range(20):
            spec_seed = SEED + 31 * instance
            system, planted, wave = plant_trial(spec_seed, instance, n_bits, clocks)
            assert len(wave) == clocks
            fast = gf2_fast_readout(wave, system, max_enumerated_deficit=n_bits)
            brute = brute_force_readout(wave, system)
            assert fast.status == brute.status
            assert fast.survivors == brute.survivors
            assert planted in brute.survivors

    def test_length_mismatch(self):
        system = make_reference_system(SEED, 2, 8)
        with pytest.raises(ValueError):
            gf2_fast_readout(IntegerWave(np.ones(4, dtype=np.int64)), system)

    @pytest.mark.parametrize("n_bits,clocks", [(64, 70), (65, 80), (70, 90)])
    def test_rows_wider_than_a_machine_word(self, n_bits, clocks):
        system, planted, wave = plant_trial(SEED, 0, n_bits, clocks)
        result = gf2_fast_readout(wave, system)
        assert result.is_unique
        assert result.sole_survivor() == planted

    def test_agrees_with_brute_force_at_enumeration_cap(self):
        # N=16 is the largest size the brute-force oracle accepts.
        for instance in range(2):
            system, planted, wave = plant_trial(SEED, instance, 16, 32)
            fast = gf2_fast_readout(wave, system, max_enumerated_deficit=16)
            brute = brute_force_readout(wave, system)
            assert fast.status == brute.status
            assert fast.survivors == brute.survivors
            assert planted in brute.survivors


class TestReadoutKernel:
    """gf2_fast_readout against the Gf2System decoder."""

    @given(st.integers(0, 12), st.sampled_from([0, 1, 2, 5, 8, 12, 16, 24, 511, 512, 513]),
           st.integers(0, 2**64 - 1), st.integers(0, 12), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_gf2_system(self, n_bits, clocks, master_seed, max_deficit, flip, data):
        refsys, planted, wave = plant_trial(master_seed, 0, n_bits, clocks)
        if flip and clocks:
            wave = flip_one_sample(wave, data.draw(st.integers(0, clocks - 1), label="clock"))
        fast = gf2_fast_readout(wave, refsys, max_enumerated_deficit=max_deficit)
        assert fast == gf2_system_readout(wave, refsys, max_enumerated_deficit=max_deficit)

    # K = 0 and 40 leave deficits above the enumeration threshold.
    @pytest.mark.parametrize("clocks", [0, 40, 64, 70, 513])
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_gf2_system_at_64_bits(self, clocks, flip):
        refsys, planted, wave = plant_trial(SEED, clocks, 64, clocks)
        if flip and clocks:
            wave = flip_one_sample(wave, clocks // 2)
        fast = gf2_fast_readout(wave, refsys)
        assert fast == gf2_system_readout(wave, refsys)


class TestPlantTrial:
    def test_deterministic(self):
        a_sys, a_ps, a_wave = plant_trial(SEED, 3, 5, 16)
        b_sys, b_ps, b_wave = plant_trial(SEED, 3, 5, 16)
        assert a_ps == b_ps
        assert a_wave == b_wave
        assert np.array_equal(a_sys.samples, b_sys.samples)

    def test_trials_differ(self):
        _, ps_a, wave_a = plant_trial(SEED, 0, 6, 32)
        _, ps_b, wave_b = plant_trial(SEED, 1, 6, 32)
        assert wave_a != wave_b  # independent reference systems
        assert ps_a != ps_b or wave_a != wave_b

    def test_planted_always_survives(self):
        for trial in range(25):
            system, planted, wave = plant_trial(SEED, trial, 5, 10)
            fast = gf2_fast_readout(wave, system, max_enumerated_deficit=5)
            assert planted in fast.survivors
            brute = brute_force_readout(wave, system)
            assert planted in brute.survivors


def decoder_failures(n_bits, clocks, trials, master_seed):
    """The scalar oracle: plant each trial and count non-unique decodes."""
    failures = 0
    for trial in range(trials):
        system, _, wave = plant_trial(master_seed, trial, n_bits, clocks)
        failures += not gf2_fast_readout(wave, system, max_enumerated_deficit=0).is_unique
    return failures


class TestCountFailures:
    def test_zero_clocks_always_fails(self):
        assert count_failures(4, 0, 50, SEED) == 50

    def test_deterministic(self):
        a = count_failures(6, 10, 200, SEED)
        b = count_failures(6, 10, 200, SEED)
        assert a == b

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            count_failures(4, 8, 0, SEED)

    def test_non_increasing_in_clocks(self):
        # Prefix-stable streams share trial randomness across clock
        # budgets, so adding clocks can only remove survivors.
        counts = [count_failures(8, clocks, 1000, SEED) for clocks in (8, 12, 16, 24)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rate_tracks_rank_deficit_reference(self):
        # At K=2N the failure rate is dominated by the rank-deficit
        # probability ~2^-(K-N); Monte Carlo verified constant near 1.
        failures = count_failures(8, 16, 10_000, SEED)
        assert 0.5 * 2**-8 * 10_000 <= failures <= 2.0 * 2**-8 * 10_000

    @given(st.data(), st.integers(0, 12), st.integers(0, 2**64 - 1), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_matches_planted_decoder(self, data, n_bits, master_seed, trials):
        # With trials=1 this compares the verdicts of single trials.
        clocks = data.draw(st.integers(0, 2 * n_bits + 2), label="clocks")
        expected = decoder_failures(n_bits, clocks, trials, master_seed)
        assert count_failures(n_bits, clocks, trials, master_seed) == expected

    @pytest.mark.parametrize("args,message", [
        ((True, 4, 2, SEED), "n_bits must be an integer, got True"),
        ((2.0, 4, 2, SEED), "n_bits must be an integer, got 2.0"),
        ((2, True, 2, SEED), "clocks must be an integer, got True"),
        ((2, 4.5, 2, SEED), "clocks must be an integer, got 4.5"),
        ((2, 4, True, SEED), "trials must be an integer, got True"),
        ((2, 4, 2.0, SEED), "trials must be an integer, got 2.0"),
        ((2, 4, 2, 5.0), "master_seed must be an integer, got 5.0"),
    ])
    def test_counts_must_be_integers(self, args, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            count_failures(*args)

    def test_numpy_counts_accepted(self):
        assert count_failures(np.int64(6), np.uint8(8), np.int32(50), np.uint64(SEED)) == \
            count_failures(6, 8, 50, SEED)

    # 512 clocks per stream block: 511, 513 and 1025 straddle the block edges.
    @pytest.mark.parametrize("clocks", [64, 66, 511, 513, 1025])
    def test_matches_planted_decoder_past_one_word(self, clocks):
        assert count_failures(64, clocks, 8, SEED) == decoder_failures(64, clocks, 8, SEED)


class TestBoundCalculators:
    def test_clock_bound_values(self):
        assert stacho_clock_bound(2, 0.0) == 2.0
        assert stacho_clock_bound(1024, 0.0) == 10240.0
        assert stacho_clock_bound(1024, 0.1) == pytest.approx(1024 * 10**1.1, abs=1e-9)

    def test_clock_bound_domain(self):
        with pytest.raises(ValueError):
            stacho_clock_bound(1, 0.0)
        with pytest.raises(ValueError):
            stacho_clock_bound(4, -0.1)
        with pytest.raises(ValueError, match="N=1024, epsilon=1e"):
            stacho_clock_bound(1024, 1e308)

    def test_timeshifted_values(self):
        assert timeshifted_readout_steps(4, 1) == 8.0
        assert timeshifted_readout_steps(64, 2**-10) == 1024.0
        assert timeshifted_readout_steps(16, 4) == 32.0

    @pytest.mark.parametrize("call,message", [
        (lambda: stacho_clock_bound(True, 0.0), "n_bits must be an integer, got True"),
        (lambda: stacho_clock_bound(2.5, 0.0), "n_bits must be an integer, got 2.5"),
        (lambda: timeshifted_readout_steps(True, 0.5), "n_bits must be an integer, got True"),
        (lambda: timeshifted_readout_steps(4.5, 0.01), "n_bits must be an integer, got 4.5"),
    ], ids=["clock-bound-bool", "clock-bound-float", "timeshifted-bool", "timeshifted-float"])
    def test_bit_count_must_be_an_integer(self, call, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_bit_count_is_accepted(self):
        assert stacho_clock_bound(np.int64(1024), 0.0) == 10240.0
        assert timeshifted_readout_steps(np.uint8(64), 2**-10) == 1024.0

    def test_timeshifted_domain(self):
        with pytest.raises(ValueError):
            timeshifted_readout_steps(0, 0.5)
        with pytest.raises(ValueError):
            timeshifted_readout_steps(4, 0.0)
        with pytest.raises(ValueError):
            timeshifted_readout_steps(4, 4.0)
        with pytest.raises(ValueError):
            timeshifted_readout_steps(4, 8.0)
        with pytest.raises(ValueError, match="N=4, P=5e-324"):
            timeshifted_readout_steps(4, 5e-324)
