"""CLI surface: flags, seed resolution, exit codes, output files."""

import json
import shutil
import subprocess
import sys

import pytest

from nbl_lab import DEFAULT_MASTER_SEED
from nbl_lab.cli import SEED_ENV_VAR, main


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

    def test_bad_env_seed_is_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        code, _, err = run_cli(["orthogonality", "--clocks", "64", "--trials", "2"], capsys)
        assert code == 2
        assert "configuration error" in err


class TestExitCodes:
    def test_cap_violation_exits_2(self, capsys):
        code, _, err = run_cli(["universe-check", "--bits", "13"], capsys)
        assert code == 2
        assert "configuration error" in err

    def test_both_range_forms_exit_2(self, capsys):
        code, _, err = run_cli(
            ["universe-check", "--bits", "2", "--bits-range", "2,3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("flag", ["--epsilon", "--p-target"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_exits_2(self, flag, value, capsys):
        code, out, err = run_cli(["bounds-table", "--bits", "4", flag, value], capsys)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

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

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        import nbl_lab.cli as cli_module

        def boom(config):
            raise RuntimeError("synthetic crash")

        monkeypatch.setitem(cli_module.EXPERIMENTS, "bounds-table", boom)
        code, _, err = run_cli(["bounds-table", "--bits", "4"], capsys)
        assert code == 1
        assert "internal failure" in err

    def test_rejects_trials_zero(self, capsys):
        code, _, _ = run_cli(["readout-scaling", "--bits", "3", "--clocks", "6",
                              "--trials", "0"], capsys)
        assert code == 2


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
