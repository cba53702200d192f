"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured quantities when it completes.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, none are calibrated elsewhere.
"""

import json
import time

import numpy as np
import pytest

from nbl_lab import (
    EXPONENTIAL,
    LINEAR,
    ExperimentConfig,
    ProductString,
    SeedSpec,
    SinusRepresentation,
    brute_force_readout,
    count_failures,
    enumerate_superpositions,
    find_degeneracies,
    generate_rtw,
    gf2_fast_readout,
    max_system_frequency,
    plant_trial,
    run_bounds_table,
    run_orthogonality,
    run_readout_scaling,
    run_sinus_comparison,
    run_universe_check,
    stacho_clock_bound,
    time_average_product,
    timeshifted_readout_steps,
    value_frequency,
)

SEED = 0xD1CEBA5E


def announce(number, message):
    print(f"\nACCEPTANCE {number} PASS: {message}")


def test_c01_linear_degeneracy_witness():
    started = time.perf_counter()
    report = find_degeneracies(SinusRepresentation(LINEAR, 2))
    elapsed = time.perf_counter() - started
    assert len(report.groups) == 1
    group = report.groups[0]
    assert group.frequency == 5
    assert {str(ps) for ps in group.members} == {"LH", "HL"}
    assert elapsed < 1.0
    announce(1, f"linear N=2 degenerates exactly at 5*f0 into {{L1H2, H1L2}} ({elapsed:.3f}s)")


def test_c02_exponential_injectivity_up_to_16_bits():
    started = time.perf_counter()
    for n_bits in range(17):
        report = find_degeneracies(SinusRepresentation(EXPONENTIAL, n_bits))
        assert report.groups == (), f"collision at N={n_bits}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(2, f"exponential representation collision-free for N<=16 ({elapsed:.1f}s)")


def test_c03_bandwidth_formulas():
    for n_bits in range(17):
        assert max_system_frequency(SinusRepresentation(LINEAR, n_bits)) == n_bits * (2 * n_bits + 1)
        assert max_system_frequency(SinusRepresentation(EXPONENTIAL, n_bits)) == 2 ** (2 * n_bits) - 1
    announce(3, "max frequency is N(2N+1) resp. 2^(2N)-1, exactly, for all N<=16")


def test_c04_frequency_table_reproduction():
    linear16 = SinusRepresentation(LINEAR, 16)
    exponential16 = SinusRepresentation(EXPONENTIAL, 16)
    printed = {
        (1, "L"): (1, 1), (1, "H"): (2, 2),
        (2, "L"): (3, 4), (2, "H"): (4, 8),
    }
    for (r, v), (linear_f, exponential_f) in printed.items():
        assert value_frequency(linear16, r, v) == linear_f
        assert value_frequency(exponential16, r, v) == exponential_f
    for n_bits in (2, 5, 11, 16):
        linear = SinusRepresentation(LINEAR, n_bits)
        exponential = SinusRepresentation(EXPONENTIAL, n_bits)
        assert value_frequency(linear, n_bits, "L") == 2 * n_bits - 1
        assert value_frequency(linear, n_bits, "H") == 2 * n_bits
        assert value_frequency(exponential, n_bits, "L") == 2 ** (2 * n_bits - 2)
        assert value_frequency(exponential, n_bits, "H") == 2 ** (2 * n_bits - 1)
    announce(4, "all eight printed r<=2 assignments plus the r=N row formulas reproduce")


def test_c05_universe_equivalence_and_op_costs():
    started = time.perf_counter()
    for seed in (SEED, 1, 2, 3, 42):
        config = ExperimentConfig("universe-check", bits=range(13), clocks=(128,), trials=1,
                                  master_seed=seed)
        records = run_universe_check(config).records
        assert [record["N"] for record in records] == list(range(13))
        for record in records:
            n_bits = record["N"]
            assert record["equal"] is True, f"mismatch at seed={seed} N={n_bits}"
            assert record["direct_adds_per_clock"] == n_bits
            assert record["direct_muls_per_clock"] == max(n_bits - 1, 0)
            assert record["oracle_adds_per_clock"] == 2**n_bits
            assert record["oracle_muls_per_clock"] == n_bits * 2**n_bits
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    announce(5, f"product-form universe == expanded sum for N<=12 x 5 seeds; "
                f"costs N adds + (N-1) muls vs N*2^N muls per clock ({elapsed:.1f}s)")


def test_c06_readout_oracle_equivalence():
    rng = np.random.default_rng(20120614)
    disagreements = 0
    for instance in range(1000):
        n_bits = int(rng.integers(0, 13))
        clocks = n_bits * int(rng.choice([0, 1, 2, 4]))
        system, planted, wave = plant_trial(SEED + instance, instance, n_bits, clocks)
        fast = gf2_fast_readout(wave, system)
        brute = brute_force_readout(wave, system)
        same_status = fast.status == brute.status
        same_count = fast.survivor_count == brute.survivor_count
        same_set = fast.survivors is None or fast.survivors == brute.survivors
        if not (same_status and same_count and same_set):
            disagreements += 1
        assert planted in brute.survivors
    assert disagreements == 0
    announce(6, "fast and brute-force readouts agree on 1000 planted instances (N<=12)")


def test_c07_failure_rate_scaling(bench_oracles):
    started = time.perf_counter()
    trials = 100_000
    failures = {}

    # geometric decay at K = 2N
    rates = {}
    for n_bits in (6, 8, 10):
        failures[n_bits, 2 * n_bits] = count_failures(n_bits, 2 * n_bits, trials, SEED)
        rates[n_bits] = failures[n_bits, 2 * n_bits] / trials
    for low, high in ((6, 8), (8, 10)):
        ratio = rates[low] / rates[high]
        assert 2.0 <= ratio <= 8.0, f"decay ratio {ratio} outside [2, 8]"

    # K = N success against the exact full-rank probability of a uniform
    # random GF(2) matrix: prod_{k=1..N} (1 - 2^-k)
    n_bits = 8
    exact_success = 1.0
    for k in range(1, n_bits + 1):
        exact_success *= 1 - 2.0**-k
    failures[n_bits, n_bits] = count_failures(n_bits, n_bits, trials, SEED)
    measured_success = 1 - failures[n_bits, n_bits] / trials
    assert abs(measured_success - exact_success) <= 0.01

    # every count within the 1e-9 binomial interval of the exact rate 1 - prod_{i<N} (1 - 2^(i-K))
    for (n_bits, clocks), count in failures.items():
        exact_rate = float(1 - bench_oracles.full_rank_probability(n_bits, clocks))
        lo, hi = bench_oracles.binomial_interval(trials, exact_rate)
        assert lo <= count <= hi, f"N={n_bits} K={clocks}: {count} failures outside [{lo}, {hi}]"

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    announce(7, f"failure decays x{rates[6]/rates[8]:.2f}, x{rates[8]/rates[10]:.2f} per N step; "
                f"K=N success {measured_success:.4f} vs exact {exact_success:.4f} ({elapsed:.0f}s)")


def test_c08_orthogonality_convergence():
    clocks = 10_000
    bound = 4 / clocks**0.5
    root = SeedSpec(SEED)
    passed = 0
    for pair in range(100):
        a = generate_rtw(root.child("pair", pair, 0), clocks)
        b = generate_rtw(root.child("pair", pair, 1), clocks)
        if abs(time_average_product(a, b)) <= bound:
            passed += 1
        if pair == 0:
            assert time_average_product(a, a) == 1.0
    assert passed >= 95
    announce(8, f"{passed}/100 independent pairs within 4/sqrt(K); self-correlation exactly 1.0")


def test_c09_bound_calculators_exact():
    assert stacho_clock_bound(1024, 0) == 10240.0
    assert timeshifted_readout_steps(64, 2**-10) == 1024.0
    announce(9, "clock bound (1024, 0) -> 10240 and step count (64, 2^-10) -> 1024, exact")


def test_c10_superposition_counts():
    counts = [enumerate_superpositions(n) for n in (1, 2, 3)]
    assert counts == [4, 16, 256]
    announce(10, "exhaustive superposition enumeration yields 4, 16, 256 for N=1,2,3")


def test_c11_cli_determinism_and_goldens(golden):
    configs = {
        "orthogonality": (run_orthogonality,
                          ExperimentConfig("orthogonality", clocks=(100, 400), trials=10,
                                           master_seed=SEED)),
        "universe_check": (run_universe_check,
                           ExperimentConfig("universe-check", bits=(0, 2, 4), clocks=(64,),
                                            trials=1, master_seed=SEED)),
        "readout_scaling": (run_readout_scaling,
                            ExperimentConfig("readout-scaling", bits=(4,), clocks=(0, 8, 16),
                                             trials=50, master_seed=SEED)),
        "sinus_comparison": (run_sinus_comparison,
                             ExperimentConfig("sinus-comparison", bits=(1, 2, 4), trials=1,
                                              master_seed=SEED)),
        "bounds_table": (run_bounds_table,
                         ExperimentConfig("bounds-table", bits=(2, 64, 1024), trials=1,
                                          epsilons=(0.0, 0.5), p_targets=(0.001,))),
    }
    for name, (runner, config) in configs.items():
        first = runner(config)
        second = runner(config)
        assert first.records == second.records, f"{name} records differ between reruns"
        assert first.to_csv() == second.to_csv()
        first_json = first.to_json_dict()
        second_json = second.to_json_dict()
        first_json.pop("wall_time_s")
        second_json.pop("wall_time_s")
        assert json.dumps(first_json) == json.dumps(second_json)
        golden(f"{name}.csv", first.to_csv())
    announce(11, "all five experiments rerun byte-identically and match the golden files")
