"""CLI surface: flags, seed resolution, exit codes, output files."""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbl_lab import DEFAULT_MASTER_SEED, experiments
from nbl_lab.cli import SEED_ENV_VAR, build_parser, config_from_args, main


FLAG_VALUES = {"--bits": "2", "--bits-range": "2,4", "--clocks": "8", "--clocks-range": "8,16",
               "--trials": "3", "--seed": "5", "--epsilon": "0.5", "--p-target": "0.01"}
FLAGS_READ = {
    "orthogonality": {"--clocks", "--clocks-range", "--trials", "--seed"},
    "universe-check": {"--bits", "--bits-range", "--clocks", "--clocks-range", "--seed"},
    "readout-scaling": {"--bits", "--bits-range", "--clocks", "--clocks-range", "--trials",
                        "--seed"},
    "sinus-comparison": {"--bits", "--bits-range"},
    "bounds-table": {"--bits", "--bits-range", "--epsilon", "--p-target"},
}
SEEDED_ARGV = [
    ["orthogonality", "--clocks", "64", "--trials", "2"],
    ["universe-check", "--bits", "2", "--clocks", "8"],
    ["readout-scaling", "--bits", "2", "--clocks", "4", "--trials", "2"],
]
INERT_FLAGS = [(experiment, flag) for experiment, reads in FLAGS_READ.items()
               for flag in FLAG_VALUES if flag not in reads]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicRuns:
    def test_bounds_table_to_stdout(self, capsys):
        code, out, err = run_cli(
            ["bounds-table", "--bits-range", "2,64", "--p-target", "0.001"], capsys)
        assert code == 0
        assert out.startswith("N,epsilon,stacho_bound,p_target,timeshifted_steps\n")
        assert err == ""

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["sinus-comparison", "--bits", "2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["experiment"] == "sinus-comparison"
        assert data["records"][0]["kind"] == "linear"

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            ["sinus-comparison", "--bits", "1", "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        content = out_path.read_bytes()
        assert content.startswith(b"kind,N,f_max,samples,degeneracy_groups,collided_strings\n")
        assert b"\r" not in content

    def test_single_flags_override_defaults(self, capsys):
        code, out, _ = run_cli(
            ["readout-scaling", "--bits", "3", "--clocks", "6", "--trials", "10"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,K,trials,failures,rate,master_seed"
        assert len(lines) == 2
        assert lines[1].startswith("3,6,10,")


class TestSeedResolution:
    def test_default_seed(self, capsys, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, out, _ = run_cli(["orthogonality", "--clocks", "64", "--trials", "2"], capsys)
        assert out.strip().split("\n")[1].endswith(str(DEFAULT_MASTER_SEED))

    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        _, out, _ = run_cli(["orthogonality", "--clocks", "64", "--trials", "2"], capsys)
        assert out.strip().split("\n")[1].endswith(",12345")

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "12345")
        _, out, _ = run_cli(
            ["orthogonality", "--clocks", "64", "--trials", "2", "--seed", "777"], capsys)
        assert out.strip().split("\n")[1].endswith(",777")

    @pytest.mark.parametrize("spelling", ["0x10", "0o20", "0b10000", "0X10"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_seed_takes_integer_literals(self, source, spelling, capsys, monkeypatch):
        argv = ["orthogonality", "--clocks", "64", "--trials", "2"]
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, decimal, _ = run_cli([*argv, "--seed", "16"], capsys)
        if source == "flag":
            argv += ["--seed", spelling]
        else:
            monkeypatch.setenv(SEED_ENV_VAR, spelling)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out == decimal

    def test_seed_flag_refuses_leading_zero_decimal(self, capsys, monkeypatch):
        # int("010", 0) refuses it, as it does for NBL_LAB_SEED.
        with pytest.raises(SystemExit) as exc:
            main(["orthogonality", "--clocks", "64", "--trials", "2", "--seed", "010"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected an integer, got '010'" in captured.err
        monkeypatch.setenv(SEED_ENV_VAR, "010")
        code, out, _ = run_cli(["orthogonality", "--clocks", "64", "--trials", "2"], capsys)
        assert (code, out) == (2, "")

    def test_bad_env_seed_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, _, err = run_cli(["orthogonality", "--clocks", "64", "--trials", "2"], capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("argv", SEEDED_ARGV, ids=lambda argv: argv[0])
    def test_bad_env_seed_exits_2_for_every_seeded_experiment(self, argv, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert f"{SEED_ENV_VAR} must be an integer" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("experiment", ["sinus-comparison", "bounds-table"])
    def test_seedless_experiment_ignores_env(self, experiment, fmt, capsys, monkeypatch):
        argv = [experiment, "--bits", "2", "--format", fmt]
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        _, plain, _ = run_cli(argv, capsys)
        monkeypatch.setenv(SEED_ENV_VAR, "x")
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        if fmt == "json":
            # wall_time_s is the one field that differs between runs.
            plain, out = (re.sub(r'"wall_time_s": [^\n]*', '"wall_time_s": 0', text)
                          for text in (plain, out))
            assert json.loads(out)["config"]["master_seed"] == DEFAULT_MASTER_SEED
        assert out == plain


class TestExitCodes:
    def test_cap_violation_exits_2(self, capsys):
        code, _, err = run_cli(["universe-check", "--bits", "13"], capsys)
        assert code == 2
        assert "configuration error" in err

    def test_universe_check_at_zero_clocks_exits_2(self, capsys):
        code, out, err = run_cli(["universe-check", "--bits", "2", "--clocks", "0"], capsys)
        assert (code, out) == (2, "")
        assert err == "nbl-lab: configuration error: universe check requires clocks >= 1\n"

    def test_both_range_forms_exit_2(self, capsys):
        for single, many in (("--bits", "--bits-range"), ("--clocks", "--clocks-range")):
            with pytest.raises(SystemExit) as exc:
                main(["universe-check", single, "2", many, "2,3"])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"argument {many}: not allowed with argument {single}\n" in captured.err

    @pytest.mark.parametrize("flag", ["--epsilon", "--p-target"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_exits_2(self, flag, value, capsys):
        code, out, err = run_cli(["bounds-table", "--bits", "4", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("argv,reason", [
        (["--bits", "1024", "--epsilon", "1e308"], "N=1024, epsilon=1e+308"),
        (["--bits", "4", "--p-target", "5e-324"], "N=4, P=5e-324"),
        (["--bits", "4", "--p-target", "5e-324", "--format", "json"], "N=4, P=5e-324"),
    ])
    def test_bound_beyond_float_range_exits_2(self, argv, reason, capsys):
        code, out, err = run_cli(["bounds-table", *argv], capsys)
        assert code == 2
        assert out == ""
        assert reason in err

    # 2^(N-K) overflows a float at N - K >= 1024; READOUT_BITS_CAP refuses N first.
    @pytest.mark.parametrize("argv,reason", [
        (["--bits", "1100", "--clocks", "0"], "bit count max(N) = 1100 exceeds cap 128"),
        (["--bits-range", "6,1100", "--clocks-range", "8,76"],
         "bit count max(N) = 1100 exceeds cap 128"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_ref_rate_beyond_float_range_exits_2_before_any_hashing(self, argv, reason, fmt,
                                                                    capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_failure_counts", _no_work)
        code, out, err = run_cli(["readout-scaling", *argv, "--trials", "1", "--format", fmt],
                                 capsys)
        assert code == 2
        assert out == ""
        assert f"readout scaling: {reason}\n" in err
        assert "Traceback" not in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds-table", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_malformed_range_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds-table", "--bits-range", "2,x"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["bounds-table", "--epsilon", "0,x"])
        assert exc.value.code == 2
        assert "expected comma-separated numbers, got '0,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--bits", "--clocks"])
    def test_non_integer_count_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["universe-check", flag, "x"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: expected an integer, got 'x'" in captured.err

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        import nbl_lab.cli as cli_module

        def boom(config):
            raise RuntimeError("synthetic crash")

        monkeypatch.setitem(cli_module.EXPERIMENTS, "bounds-table", boom)
        code, _, err = run_cli(["bounds-table", "--bits", "4"], capsys)
        assert code == 1
        assert "internal failure" in err

    @pytest.mark.parametrize("experiment,flag", INERT_FLAGS)
    def test_flag_the_experiment_does_not_read_exits_2(self, experiment, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([experiment, flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_unwritable_out_path_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(["bounds-table", "--bits", "2", "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert str(target) in err

    def test_rejects_trials_zero(self, capsys):
        code, _, _ = run_cli(["readout-scaling", "--bits", "3", "--clocks", "6",
                              "--trials", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag,value,reason", [
        ("--bits", "-1", "bits must be at least 0, got -1"),
        ("--clocks", "-5", "clocks must be at least 0, got -5"),
        ("--trials", "0", "trials must be at least 1, got 0"),
    ])
    def test_count_below_its_minimum_exits_2_naming_it(self, flag, value, reason, capsys):
        argv = ["readout-scaling", "--bits", "3", "--clocks", "6", "--trials", "2", flag, value]
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"nbl-lab: configuration error: {reason}\n")


class _WorkStarted(Exception):
    pass


def _no_work(*args, **kwargs):
    raise _WorkStarted


def _config(argv):
    return config_from_args(build_parser().parse_args(argv))


# Configs the CLI defaults, the README, the acceptance grids and the
# benchmark run, with each one's cost estimate worked by hand.
COMMITTED = [
    # orthogonality, 2 * pairs * sum(K) wave samples
    (["orthogonality"], "ORTHOGONALITY_SAMPLE_CAP", 2 * 100 * 10_100),
    (["orthogonality", "--clocks-range", "100,10000,1000000", "--trials", "16"],
     "ORTHOGONALITY_SAMPLE_CAP", 2 * 16 * 1_010_100),
    (["orthogonality", "--clocks-range", "100,10000,1000000", "--trials", "100"],
     "ORTHOGONALITY_SAMPLE_CAP", 2 * 100 * 1_010_100),
    # universe-check, K * sum((N + 1) * 2^N) oracle operations
    (["universe-check"], "UNIVERSE_OP_CAP", 128 * (1 + 12 + 80 + 2304)),
    (["universe-check", "--bits-range", "0,2,4,8,12", "--clocks", "128"],
     "UNIVERSE_OP_CAP", 128 * (1 + 12 + 80 + 2304 + 53248)),
    (["universe-check", "--bits-range", ",".join(map(str, range(13))), "--clocks", "128"],
     "UNIVERSE_OP_CAP", 128 * (12 * 2**13 + 1)),
    # readout-scaling, sum of trials * (1 + 2N * (1 + ceil(K/512))) blake2b calls;
    # at K <= 512 the bracket is 25, 33 and 41 for N = 6, 8 and 10
    (["readout-scaling"], "READOUT_HASH_CAP", 1000 * 2 * (25 + 33)),
    (["readout-scaling", "--bits-range", "6,8,10", "--clocks-range", "12,16,20",
      "--trials", "10000"], "READOUT_HASH_CAP", 10_000 * 3 * (25 + 33 + 41)),
    (["readout-scaling", "--bits-range", "6,8,10", "--clocks-range", "8,12,16,20",
      "--trials", "100000"], "READOUT_HASH_CAP", 100_000 * 4 * (25 + 33 + 41)),
]

# The committed readout-scaling configs again, with the stream blocks that
# their largest grid point holds per trial, max(2N * ceil(K/512)).
COMMITTED_READOUT_BLOCKS = [
    (["readout-scaling"], 2 * 8),
    (["readout-scaling", "--bits-range", "6,8,10", "--clocks-range", "12,16,20",
      "--trials", "10000"], 2 * 10),
    (["readout-scaling", "--bits-range", "6,8,10", "--clocks-range", "8,12,16,20",
      "--trials", "100000"], 2 * 10),
]

# The committed readout-scaling configs again, with their largest N.
COMMITTED_READOUT_BITS = [(argv, blocks // 2) for argv, blocks in COMMITTED_READOUT_BLOCKS]


class TestCostCaps:
    @pytest.fixture(autouse=True)
    def _forbid_work(self, monkeypatch):
        # Every test here must be decided by the cap check alone.
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        for name in ("_stream_rows", "_reference_rows", "_failure_counts"):
            monkeypatch.setattr(experiments, name, _no_work)

    @staticmethod
    def _sits_8x_under(argv, cap, estimate, monkeypatch):
        assert 8 * estimate <= getattr(experiments, cap)
        config = _config(argv)
        monkeypatch.setattr(experiments, cap, estimate)
        with pytest.raises(_WorkStarted):
            experiments.EXPERIMENTS[argv[0]](config)
        monkeypatch.setattr(experiments, cap, estimate - 1)
        with pytest.raises(ValueError, match=f"= {estimate} exceeds cap {estimate - 1}$"):
            experiments.EXPERIMENTS[argv[0]](config)

    @pytest.mark.parametrize("argv,cap,estimate", COMMITTED,
                             ids=[" ".join(argv) for argv, _, _ in COMMITTED])
    def test_committed_configs_sit_8x_under_their_cap(self, argv, cap, estimate, monkeypatch):
        self._sits_8x_under(argv, cap, estimate, monkeypatch)

    @pytest.mark.parametrize("argv,estimate", COMMITTED_READOUT_BLOCKS,
                             ids=[" ".join(argv) for argv, _ in COMMITTED_READOUT_BLOCKS])
    def test_committed_readout_configs_sit_8x_under_the_trial_block_cap(self, argv, estimate,
                                                                       monkeypatch):
        self._sits_8x_under(argv, "READOUT_TRIAL_BLOCK_CAP", estimate, monkeypatch)

    @pytest.mark.parametrize("argv,estimate", COMMITTED_READOUT_BITS,
                             ids=[" ".join(argv) for argv, _ in COMMITTED_READOUT_BITS])
    def test_committed_readout_configs_sit_8x_under_the_bits_cap(self, argv, estimate,
                                                                monkeypatch):
        self._sits_8x_under(argv, "READOUT_BITS_CAP", estimate, monkeypatch)

    @pytest.mark.parametrize("argv,cap", [
        (["orthogonality", "--clocks", str(2**30), "--trials", "1"], "ORTHOGONALITY_SAMPLE_CAP"),
        (["universe-check", "--bits", "0", "--clocks", str(2**27)], "UNIVERSE_OP_CAP"),
        (["universe-check", "--bits", "3", "--clocks", str(2**22)], "UNIVERSE_OP_CAP"),
        (["readout-scaling", "--bits", "0", "--clocks", "0", "--trials", str(2**29)],
         "READOUT_HASH_CAP"),
        (["readout-scaling", "--bits", "128", "--clocks", str(2**19), "--trials", "1"],
         "READOUT_TRIAL_BLOCK_CAP"),
        (["readout-scaling", "--bits-range", "0,128", "--clocks", "8", "--trials", "1"],
         "READOUT_BITS_CAP"),
    ])
    def test_a_config_at_its_cap_passes_the_check(self, argv, cap):
        config = _config(argv)
        with pytest.raises(_WorkStarted):
            experiments.EXPERIMENTS[argv[0]](config)

    @pytest.mark.parametrize("argv,reason", [
        (["orthogonality", "--clocks", str(10**12)], f"= {2 * 100 * 10**12} exceeds cap {2**31}"),
        (["orthogonality", "--clocks-range", f"{2**30},1", "--trials", "1"],
         f"= {2**31 + 2} exceeds cap {2**31}"),
        (["universe-check", "--bits", "12", "--clocks", str(10**12)],
         f"= {13 * 2**12 * 10**12} exceeds cap {2**27}"),
        (["universe-check", "--bits", "0", "--clocks", str(2**27 + 1)],
         f"= {2**27 + 1} exceeds cap {2**27}"),
        (["readout-scaling", "--bits", "8", "--clocks", "16", "--trials", str(10**12)],
         f"= {33 * 10**12} exceeds cap {2**29}"),
        (["readout-scaling", "--bits", "1", "--clocks", "513", "--trials", str(10**9)],
         f"= {7 * 10**9} exceeds cap {2**29}"),
        (["readout-scaling", "--bits", "0", "--clocks", "0", "--trials", str(2**29 + 1)],
         f"= {2**29 + 1} exceeds cap {2**29}"),
        # Within the hash cap, but one trial would hold 2 * 262144 * 511
        # blocks (about 17 GB) of stream.
        (["readout-scaling", "--bits", "262144", "--clocks", "261200", "--trials", "1"],
         f"stream blocks per trial max(2N*ceil(K/512)) = {2 * 262144 * 511} exceeds cap {2**18}"),
        (["readout-scaling", "--bits", "129", "--clocks", "0", "--trials", "1"],
         "bit count max(N) = 129 exceeds cap 128"),
        # Within the hash and block caps, but about 5 s of elimination per
        # trial: hours in all.
        (["readout-scaling", "--bits", "8192", "--clocks", "8192", "--trials", "1927"],
         "bit count max(N) = 8192 exceeds cap 128"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_over_cap_config_exits_2_naming_the_cap(self, argv, reason, fmt, capsys):
        code, out, err = run_cli([*argv, "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert reason in err


# Runs cli.main on its argv under a 1 GiB address-space limit, so an
# allocation that the caps should have refused ends the child, not the box.
RLIMITED_CHILD = """
import resource, sys
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from nbl_lab.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestFarEndsOfTheCaps:
    @pytest.mark.parametrize("argv,code,reason", [
        # universe-check at UNIVERSE_OP_CAP along each axis
        (["universe-check", "--bits", "0", "--clocks", str(2**27)], 0, ""),
        (["universe-check", "--bits", "1", "--clocks", str(2**25)], 0, ""),
        (["universe-check", "--bits", "12", "--clocks", "2520"], 0, ""),
        # orthogonality at ORTHOGONALITY_SAMPLE_CAP: one pair of 2^30-clock
        # streams, read one stream at a time
        (["orthogonality", "--clocks", str(2**30), "--trials", "1"], 0, ""),
        # readout-scaling at READOUT_BITS_CAP and READOUT_TRIAL_BLOCK_CAP
        # (2N * ceil(K/512) = 2^18 blocks)
        (["readout-scaling", "--bits", "128", "--clocks", str(2**19), "--trials", "1"], 0, ""),
        (["readout-scaling", "--bits", "129", "--clocks", "0", "--trials", "1"], 2,
         "exceeds cap 128"),
        # within READOUT_HASH_CAP and READOUT_TRIAL_BLOCK_CAP, refused by READOUT_BITS_CAP
        (["readout-scaling", "--bits", "8192", "--clocks", "8192", "--trials", "1927"], 2,
         "exceeds cap 128"),
        # within READOUT_HASH_CAP, refused by READOUT_TRIAL_BLOCK_CAP
        (["readout-scaling", "--bits", "262144", "--clocks", "261200", "--trials", "1"], 2,
         "exceeds cap 262144"),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_runs_in_1_gib_without_a_traceback(self, argv, code, reason):
        child = subprocess.run([sys.executable, "-c", RLIMITED_CHILD, *argv],
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == code, child.stderr
        assert "Traceback" not in child.stderr
        assert reason in child.stderr


def _grid_flag(name, counts):
    """--NAME with one count, or --NAME-range with one to three."""
    return st.one_of(counts.map(lambda n: [f"--{name}={n}"]),
                     st.lists(counts, min_size=1, max_size=3).map(
                         lambda ns: [f"--{name}-range={','.join(map(str, ns))}"]))


@st.composite
def small_argv(draw):
    """A small argv for any experiment, with only the flags it reads; counts
    stray one below their minimum and floats take any value."""
    experiment = draw(st.sampled_from(sorted(FLAGS_READ)))
    reads = FLAGS_READ[experiment]
    argv = [experiment]
    if "--bits" in reads:
        argv += draw(_grid_flag("bits", st.integers(-1, 12)))
    if "--clocks" in reads:
        argv += draw(_grid_flag("clocks", st.integers(-1, 600)))
    if "--trials" in reads:
        argv.append(f"--trials={draw(st.integers(0, 20))}")
    if "--seed" in reads and draw(st.booleans()):
        argv.append(f"--seed={draw(st.integers(-1, 2**64))}")
    for flag in ("--epsilon", "--p-target"):
        if flag in reads and draw(st.booleans()):
            values = draw(st.lists(st.floats(), min_size=1, max_size=2))
            argv.append(f"{flag}={','.join(map(repr, values))}")
    return [*argv, f"--format={draw(st.sampled_from(['csv', 'json']))}"]


class TestSmallArgv:
    @given(small_argv())
    @settings(max_examples=150, deadline=None)
    def test_exits_0_or_2_and_json_parses(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses a flag value
                code = exc.code
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0 and argv[-1] == "--format=json":
            json.loads(out.getvalue())


class TestHelp:
    @pytest.mark.parametrize("experiment", sorted(FLAGS_READ))
    def test_lists_only_the_flags_the_experiment_reads(self, experiment, capsys):
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == FLAGS_READ[experiment] | {"--help", "--format", "--out"}


class TestDeterminism:
    def test_rerun_bytes_identical(self, capsys):
        argv = ["readout-scaling", "--bits-range", "3,5", "--clocks-range", "0,6",
                "--trials", "25", "--seed", "9"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "nbl_lab", "bounds-table", "--bits", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("N,epsilon,")

    def test_console_script(self):
        exe = shutil.which("nbl-lab")
        if exe is None:
            pytest.skip("nbl-lab console script not on PATH")
        result = subprocess.run(
            [exe, "sinus-comparison", "--bits", "2"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("kind,N,f_max,samples,")
