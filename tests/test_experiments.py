"""Experiment runners: determinism, record schemas, caps, and golden outputs."""

import dataclasses
import json
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbl_lab import (
    DEFAULT_MASTER_SEED,
    EXPONENTIAL,
    LINEAR,
    SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentReport,
    SeedSpec,
    SinusRepresentation,
    __version__,
    expand_universe,
    find_degeneracies,
    generate_rtw,
    make_reference_system,
    max_system_frequency,
    readout_sample_count,
    realize_superposition,
    run_bounds_table,
    run_orthogonality,
    run_readout_scaling,
    run_sinus_comparison,
    run_universe_check,
    synthesize_universe,
    time_average_product,
)
from nbl_lab.experiments import _bit_correlation
from nbl_lab.rtw import _stream_rows

SEED = 0xD1CEBA5E


def json_without_wall_time(report: ExperimentReport) -> str:
    data = report.to_json_dict()
    data.pop("wall_time_s")
    return json.dumps(data, indent=2) + "\n"


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig("orthogonality")
        assert config.master_seed == DEFAULT_MASTER_SEED
        assert config.trials == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig("x", trials=0)
        with pytest.raises(ValueError):
            ExperimentConfig("x", master_seed=-1)
        with pytest.raises(ValueError):
            ExperimentConfig("x", bits=(-1,))
        with pytest.raises(ValueError):
            ExperimentConfig("x", clocks=(-4,))
        with pytest.raises(ValueError, match="epsilons"):
            ExperimentConfig("x", epsilons=(0.1, float("nan")))
        with pytest.raises(ValueError, match="p_targets"):
            ExperimentConfig("x", p_targets=(float("inf"),))
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig("x", trials=2.5)
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig("x", trials=True)
        with pytest.raises(ValueError, match="clocks"):
            ExperimentConfig("x", clocks=(8.9,))
        with pytest.raises(ValueError, match="bits"):
            ExperimentConfig("x", bits=(4.0,))
        with pytest.raises(ValueError, match="bits"):
            ExperimentConfig("x", bits=(False,))
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig("x", master_seed=True)
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig("x", master_seed=7.0)

    @pytest.mark.parametrize("field,value", [
        ("trials", 2.5), ("master_seed", True), ("bits", (4.0,)), ("clocks", ("8",)),
    ])
    def test_non_integer_count_is_a_value_error_naming_it(self, field, value):
        # The CLI maps ValueError, not TypeError, to exit 2 with this reason.
        shown = value if field in ("trials", "master_seed") else value[0]
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {shown!r}$"):
            ExperimentConfig("x", **{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("epsilons", (True,), "epsilons must be finite numbers, got True"),
        ("epsilons", (0.5, None), "epsilons must be finite numbers, got None"),
        ("p_targets", ("0.1",), "p_targets must be finite numbers, got '0.1'"),
        ("p_targets", (10**400,), "p_targets must be finite numbers, got 1" + "0" * 400),
        ("clocks", 5, "clocks must be a sequence, got 5"),
        ("bits", "48", "bits must be a sequence, got '48'"),
        ("epsilons", 0.5, "epsilons must be a sequence, got 0.5"),
    ])
    def test_a_bad_grid_is_a_value_error_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentConfig("x", **{field: value})

    def test_numpy_counts_are_stored_as_int(self):
        config = ExperimentConfig("x", bits=(np.int64(4),), clocks=(np.uint16(8),),
                                  trials=np.int32(3), master_seed=np.uint64(7))
        assert config == ExperimentConfig("x", bits=(4,), clocks=(8,), trials=3, master_seed=7)
        assert {type(x) for x in (*config.bits, *config.clocks, config.trials,
                                  config.master_seed)} == {int}

    def test_echo_is_plain_json_types(self):
        echo = ExperimentConfig("x", bits=(1, 2), clocks=(3,)).echo()
        assert json.loads(json.dumps(echo)) == echo
        assert list(echo) == [f.name for f in dataclasses.fields(ExperimentConfig)]


class TestReportRendering:
    def test_csv_formats_cells(self):
        report = ExperimentReport(
            experiment="x",
            config={},
            columns=["a", "b", "c", "d"],
            records=[{"a": 1, "b": 0.25, "c": True, "d": "s"}],
        )
        assert report.to_csv() == "a,b,c,d\n1,0.25,true,s\n"

    def test_json_carries_schema_and_version(self):
        report = ExperimentReport(experiment="x", config={}, columns=[], records=[])
        data = report.to_json_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["tool_version"] == __version__
        assert list(data) == ["schema_version", "tool_version", "experiment", "config",
                              "columns", "records", "summary", "wall_time_s"]

    def test_json_refuses_non_finite_floats(self):
        report = ExperimentReport(experiment="x", config={}, columns=["a"],
                                  records=[{"a": float("nan")}])
        with pytest.raises(ValueError):
            report.to_json()

    def test_unknown_format_rejected(self):
        report = ExperimentReport(experiment="x", config={}, columns=[], records=[])
        with pytest.raises(ValueError):
            report.render("xml")


def wave_path_orthogonality(config: ExperimentConfig) -> list[dict]:
    """run_orthogonality's records built from generate_rtw waves and
    time_average_product, the wave API that the popcount path replaces."""
    root = SeedSpec(config.master_seed)
    records = []
    for clocks in sorted(config.clocks):
        pairs = [(generate_rtw(root.child("pair", pair, 0), clocks),
                  generate_rtw(root.child("pair", pair, 1), clocks))
                 for pair in range(config.trials)]
        values = [abs(time_average_product(a, b)) for a, b in pairs]
        records.append({
            "K": clocks,
            "pairs": config.trials,
            "median_abs": float(statistics.median(values)),
            "max_abs": max(values),
            "bound": 4.0 / clocks**0.5,
            "identical_check": time_average_product(pairs[0][0], pairs[0][0]),
            "master_seed": config.master_seed,
        })
    return records


class TestOrthogonality:
    # K % 8 != 0 and the 512-clock block edges.
    @given(st.integers(0, 2**64 - 1), st.integers(0, 10**6),
           st.one_of(st.sampled_from([1, 511, 512, 513, 1030, 1536]), st.integers(1, 2000)))
    @example(SEED, 0, 1)
    @example(SEED, 1, 511)
    @example(SEED, 2, 512)
    @example(SEED, 3, 513)
    @example(SEED, 4, 1030)
    @example(SEED, 5, 1536)
    @settings(max_examples=100, deadline=None)
    def test_pair_value_is_the_wave_time_average(self, master_seed, pair, clocks):
        seeds = [SeedSpec(master_seed).child("pair", pair, side) for side in (0, 1)]
        a, b = (_stream_rows([seed.stream_key()], clocks)[0] for seed in seeds)
        waves = [generate_rtw(seed, clocks) for seed in seeds]
        assert abs(_bit_correlation(a, b, clocks)) == abs(time_average_product(*waves))
        assert _bit_correlation(a, a, clocks) == time_average_product(waves[0], waves[0])

    def test_report_matches_the_wave_path(self):
        config = ExperimentConfig("orthogonality", clocks=(1030, 1, 513, 512), trials=12,
                                  master_seed=SEED)
        assert run_orthogonality(config).records == wave_path_orthogonality(config)

    def test_median_decreases_with_clocks(self):
        config = ExperimentConfig("orthogonality", clocks=(100, 10_000, 1_000_000),
                                  trials=100, master_seed=SEED)
        report = run_orthogonality(config)
        medians = [r["median_abs"] for r in report.records]
        assert [r["K"] for r in report.records] == [100, 10_000, 1_000_000]
        assert medians[0] > medians[1] > medians[2]

    def test_bound_column_and_self_check(self):
        config = ExperimentConfig("orthogonality", clocks=(400,), trials=5, master_seed=SEED)
        record = run_orthogonality(config).records[0]
        assert record["bound"] == 4 / 20
        assert record["identical_check"] == 1.0
        assert record["pairs"] == 5

    def test_rerun_is_identical(self):
        config = ExperimentConfig("orthogonality", clocks=(256, 64), trials=8, master_seed=7)
        assert run_orthogonality(config).records == run_orthogonality(config).records

    def test_rejects_empty_or_zero_clocks(self):
        with pytest.raises(ValueError):
            run_orthogonality(ExperimentConfig("orthogonality", clocks=()))
        with pytest.raises(ValueError):
            run_orthogonality(ExperimentConfig("orthogonality", clocks=(0,)))

    def test_golden_csv(self, golden):
        config = ExperimentConfig("orthogonality", clocks=(100, 400), trials=10, master_seed=SEED)
        golden("orthogonality.csv", run_orthogonality(config).to_csv())


def array_path_universe_check(config: ExperimentConfig) -> list[dict]:
    """run_universe_check's records with `equal` taken on the waves of
    synthesize_universe and realize_superposition(expand_universe(N)), the
    array API that the sign-plane path replaces."""
    clocks = config.clocks[0]
    records = []
    for n in sorted(config.bits):
        system = make_reference_system(config.master_seed, n, clocks)
        oracle = realize_superposition(expand_universe(n), system)
        direct_total = n + max(n - 1, 0)
        records.append({
            "N": n,
            "K": clocks,
            "equal": synthesize_universe(system) == oracle,
            "direct_adds_per_clock": n,
            "direct_muls_per_clock": max(n - 1, 0),
            "oracle_adds_per_clock": 1 << n,
            "oracle_muls_per_clock": n << n,
            "op_ratio": ((1 << n) + (n << n)) / direct_total if direct_total else 1.0,
            "master_seed": config.master_seed,
        })
    return records


def array_path_sinus_comparison(config: ExperimentConfig) -> list[dict]:
    """run_sinus_comparison's records with the degeneracy counts of
    find_degeneracies, the numpy scan that the Counter path replaces."""
    records = []
    for n in sorted(config.bits):
        for kind in (LINEAR, EXPONENTIAL):
            rep = SinusRepresentation(kind, n)
            report = find_degeneracies(rep)
            records.append({
                "kind": kind,
                "N": n,
                "f_max": max_system_frequency(rep),
                "samples": readout_sample_count(rep),
                "degeneracy_groups": len(report.groups),
                "collided_strings": report.total_collided,
            })
    return records


class TestUniverseCheck:
    @pytest.mark.parametrize("master_seed", [SEED, 0, 2**64 - 1])
    def test_report_matches_the_array_path(self, master_seed):
        config = ExperimentConfig("universe-check", bits=(12, 0, 1, 2, 3, 5, 8), clocks=(513,),
                                  master_seed=master_seed)
        assert run_universe_check(config).records == array_path_universe_check(config)

    def test_all_points_pass_with_exact_op_ratio(self):
        config = ExperimentConfig("universe-check", bits=(1, 2, 4, 6, 8, 10), clocks=(128,),
                                  trials=1, master_seed=SEED)
        report = run_universe_check(config)
        assert report.summary == {"all_equal": True}
        for record in report.records:
            n = record["N"]
            assert record["equal"] is True
            assert record["direct_adds_per_clock"] == n
            assert record["direct_muls_per_clock"] == max(n - 1, 0)
            assert record["oracle_adds_per_clock"] == 2**n
            assert record["oracle_muls_per_clock"] == n * 2**n
            assert record["op_ratio"] == ((n + 1) * 2**n) / (2 * n - 1)

    def test_zero_bits_passes(self):
        config = ExperimentConfig("universe-check", bits=(0,), clocks=(32,), trials=1)
        record = run_universe_check(config).records[0]
        assert record["equal"] is True
        counts = ("direct_adds_per_clock", "direct_muls_per_clock",
                  "oracle_adds_per_clock", "oracle_muls_per_clock")
        assert tuple(record[c] for c in counts) == (0, 0, 1, 0)
        assert record["op_ratio"] == 1.0

    def test_cap(self):
        with pytest.raises(ValueError, match="12"):
            run_universe_check(ExperimentConfig("universe-check", bits=(13,), clocks=(16,), trials=1))

    def test_single_clock_required(self):
        with pytest.raises(ValueError):
            run_universe_check(ExperimentConfig("universe-check", bits=(2,), clocks=(16, 32), trials=1))

    def test_golden_csv(self, golden):
        config = ExperimentConfig("universe-check", bits=(0, 2, 4), clocks=(64,),
                                  trials=1, master_seed=SEED)
        golden("universe_check.csv", run_universe_check(config).to_csv())


@pytest.mark.parametrize("run,grid,reason", [
    (run_readout_scaling, {"clocks": (8,)}, "readout scaling requires bit and clock counts"),
    (run_readout_scaling, {"bits": (4,)}, "readout scaling requires bit and clock counts"),
    (run_sinus_comparison, {}, "sinus comparison requires at least one bit count"),
    (run_bounds_table, {}, "bounds table requires at least one bit count"),
], ids=["readout-no-bits", "readout-no-clocks", "sinus-no-bits", "bounds-no-bits"])
def test_an_empty_grid_is_refused(run, grid, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        run(ExperimentConfig("x", trials=1, **grid))


class TestReadoutScaling:
    def test_zero_clock_row_rate_is_one(self):
        config = ExperimentConfig("readout-scaling", bits=(4,), clocks=(0,), trials=20,
                                  master_seed=SEED)
        record = run_readout_scaling(config).records[0]
        assert record["rate"] == 1.0
        assert record["failures"] == 20

    def test_grid_sorted_and_reference_column(self):
        config = ExperimentConfig("readout-scaling", bits=(6, 4), clocks=(8, 0), trials=10,
                                  master_seed=SEED)
        report = run_readout_scaling(config)
        assert [(r["N"], r["K"]) for r in report.records] == [(4, 0), (4, 8), (6, 0), (6, 8)]
        assert report.records[1]["ref_rate"] == 2.0 ** (4 - 8)
        assert report.columns == ["N", "K", "trials", "failures", "rate", "master_seed"]

    def test_rerun_is_identical(self):
        config = ExperimentConfig("readout-scaling", bits=(5,), clocks=(10,), trials=100,
                                  master_seed=3)
        assert run_readout_scaling(config).records == run_readout_scaling(config).records

    def test_rate_decreases_geometrically_on_double_clock_diagonal(self):
        # K = 2N diagonal; rates shrink roughly like 2^-N (pinned seed).
        rates = []
        for n_bits in (6, 8, 10):
            config = ExperimentConfig("readout-scaling", bits=(n_bits,), clocks=(2 * n_bits,),
                                      trials=2000, master_seed=SEED)
            rates.append(run_readout_scaling(config).records[0]["rate"])
        assert rates[0] > rates[1] > rates[2]

    # Grids with K < N, N = 0, K = 0 and K across the 512-clock block edges.
    @given(st.lists(st.integers(0, 12), min_size=1, max_size=3),
           st.lists(st.sampled_from([0, 1, 7, 8, 9, 511, 512, 513, 1030]), min_size=1,
                    max_size=3),
           st.integers(1, 4), st.integers(0, 2**64 - 1))
    @example([0, 12], [0, 1, 513], 3, SEED)
    @example([12, 4], [9, 8, 1030], 3, SEED)
    @example([6, 6], [7, 7], 2, SEED)
    @settings(max_examples=60, deadline=None)
    def test_every_record_matches_the_per_trial_recount(self, failure_recount, bits, clocks,
                                                         trials, master_seed):
        config = ExperimentConfig("readout-scaling", bits=tuple(bits), clocks=tuple(clocks),
                                  trials=trials, master_seed=master_seed)
        records = run_readout_scaling(config).records
        assert [(r["N"], r["K"]) for r in records] == \
            [(n, k) for n in sorted(bits) for k in sorted(clocks)]
        for record in records:
            assert record["failures"] == failure_recount(record["N"], record["K"], trials,
                                                         master_seed)

    def test_golden_csv(self, golden):
        config = ExperimentConfig("readout-scaling", bits=(4,), clocks=(0, 8, 16), trials=50,
                                  master_seed=SEED)
        golden("readout_scaling.csv", run_readout_scaling(config).to_csv())


class TestSinusComparison:
    def test_report_matches_the_array_path(self):
        config = ExperimentConfig("sinus-comparison", bits=(16, 0, 1, 2, 3, 5, 8, 12))
        assert run_sinus_comparison(config).records == array_path_sinus_comparison(config)

    def test_two_bit_row_matches_published_numbers(self):
        config = ExperimentConfig("sinus-comparison", bits=(2,), trials=1)
        report = run_sinus_comparison(config)
        linear, exponential = report.records
        assert linear == {"kind": "linear", "N": 2, "f_max": 10, "samples": 21,
                          "degeneracy_groups": 1, "collided_strings": 2}
        assert exponential == {"kind": "exponential", "N": 2, "f_max": 15, "samples": 31,
                               "degeneracy_groups": 0, "collided_strings": 0}

    def test_single_bit_never_degenerate(self):
        config = ExperimentConfig("sinus-comparison", bits=(1,), trials=1)
        for record in run_sinus_comparison(config).records:
            assert record["degeneracy_groups"] == 0

    @pytest.mark.parametrize("n_bits", [4, 8, 12])
    def test_exponential_sample_column(self, n_bits):
        config = ExperimentConfig("sinus-comparison", bits=(n_bits,), trials=1)
        report = run_sinus_comparison(config)
        exponential = next(r for r in report.records if r["kind"] == "exponential")
        assert exponential["samples"] == 2 * (2 ** (2 * n_bits) - 1) + 1

    def test_frequency_table_embedded(self):
        config = ExperimentConfig("sinus-comparison", bits=(2,), trials=1)
        table = run_sinus_comparison(config).summary["frequency_table"]
        assert table == [
            {"r": 1, "linear_L": 1, "linear_H": 2, "exponential_L": 1, "exponential_H": 2},
            {"r": 2, "linear_L": 3, "linear_H": 4, "exponential_L": 4, "exponential_H": 8},
        ]

    def test_cap(self):
        with pytest.raises(ValueError, match="16"):
            run_sinus_comparison(ExperimentConfig("sinus-comparison", bits=(17,), trials=1))

    def test_golden_csv_and_json(self, golden):
        config = ExperimentConfig("sinus-comparison", bits=(1, 2, 4), trials=1, master_seed=SEED)
        report = run_sinus_comparison(config)
        golden("sinus_comparison.csv", report.to_csv())
        golden("sinus_comparison.json", json_without_wall_time(report))


class TestBoundsTable:
    def test_values(self):
        config = ExperimentConfig("bounds-table", bits=(2, 64, 1024), trials=1,
                                  epsilons=(0.0,), p_targets=(2**-10,))
        report = run_bounds_table(config)
        by_bits = {r["N"]: r for r in report.records}
        assert by_bits[2]["stacho_bound"] == 2.0
        assert by_bits[1024]["stacho_bound"] == 10240.0
        assert by_bits[64]["timeshifted_steps"] == 1024.0

    def test_domain_errors_propagate(self):
        config = ExperimentConfig("bounds-table", bits=(4,), trials=1, p_targets=(8.0,))
        with pytest.raises(ValueError):
            run_bounds_table(config)
        with pytest.raises(ValueError):
            run_bounds_table(ExperimentConfig("bounds-table", bits=(1,), trials=1))

    def test_golden_csv(self, golden):
        config = ExperimentConfig("bounds-table", bits=(2, 64, 1024), trials=1,
                                  epsilons=(0.0, 0.5), p_targets=(0.001,))
        golden("bounds_table.csv", run_bounds_table(config).to_csv())
