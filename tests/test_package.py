"""The package as a whole: each module's __all__, declared once; the one
integer rule for counts; numpy loaded by no experiment, only by the array
API; and the README: its examples run, it lists every cap and it names no
private symbol."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nbl_lab
from nbl_lab import (ExperimentConfig, Gf2System, ProductString, SeedSpec, SinusRepresentation,
                     Superposition, count_failures, experiments, generate_rtw, hyperspace,
                     make_reference_system, plant_trial, readout, realize_sinus_product, rtw,
                     sinus, stacho_clock_bound, timeshifted_readout_steps)
from nbl_lab.cli import SEED_ENV_VAR, build_parser, config_from_args, main

MODULES = (experiments, hyperspace, readout, rtw, sinus)
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 5


def test_all_has_no_duplicates():
    assert len(nbl_lab.__all__) == len(set(nbl_lab.__all__))


def test_all_is_the_union_of_the_module_lists():
    expected = {"__version__"}.union(*(module.__all__ for module in MODULES))
    assert set(nbl_lab.__all__) == expected


def test_each_name_is_the_defining_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(nbl_lab, name) is getattr(module, name), name
    assert nbl_lab.__version__ is nbl_lab._version.__version__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nbl_lab import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(nbl_lab.__all__)


@pytest.mark.parametrize("call,message", [
    (lambda: SeedSpec(SEED).bits(-1), "count must be at least 0, got -1"),
    (lambda: generate_rtw(SeedSpec(SEED), -1), "clocks must be at least 0, got -1"),
    (lambda: make_reference_system(SEED, -1, 4), "n_bits must be at least 0, got -1"),
    (lambda: make_reference_system(SEED, 2, -4), "clocks must be at least 0, got -4"),
    (lambda: ProductString(-1, 0), "n_bits must be at least 0, got -1"),
    (lambda: Superposition(-1), "n_bits must be at least 0, got -1"),
    (lambda: SinusRepresentation("linear", -2), "n_bits must be at least 0, got -2"),
    (lambda: realize_sinus_product(SinusRepresentation("linear", 1), ProductString(1, 0), 0),
     "samples must be at least 1, got 0"),
    (lambda: count_failures(-1, 4, 1, SEED), "n_bits must be at least 0, got -1"),
    (lambda: count_failures(2, -1, 1, SEED), "clocks must be at least 0, got -1"),
    (lambda: count_failures(2, 4, 0, SEED), "trials must be at least 1, got 0"),
    (lambda: plant_trial(SEED, -1, 3, 8), "trial must be at least 0, got -1"),
    (lambda: ExperimentConfig("sinus-comparison", bits=(2, -1)), "bits must be at least 0, got -1"),
    (lambda: ExperimentConfig("orthogonality", clocks=(8, -5)), "clocks must be at least 0, got -5"),
    (lambda: ExperimentConfig("orthogonality", trials=0), "trials must be at least 1, got 0"),
    (lambda: Gf2System(-1), "n_vars must be at least 0, got -1"),
    (lambda: stacho_clock_bound(1, 0.0), "n_bits must be at least 2, got 1"),
    (lambda: timeshifted_readout_steps(0, 0.5), "n_bits must be at least 1, got 0"),
], ids=["bits", "generate_rtw", "reference-bits", "reference-clocks", "product-string",
        "superposition", "sinus-representation", "sinus-samples", "failures-bits",
        "failures-clocks", "failures-trials", "plant-trial", "config-bits", "config-clocks",
        "config-trials", "gf2-system", "clock-bound", "timeshifted-steps"])
def test_a_count_below_its_minimum_is_refused_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("trial", ["abc", 2.5, True])
def test_a_trial_index_that_is_not_an_integer_is_refused_naming_it(trial):
    with pytest.raises(TypeError, match=f"^trial must be an integer, got {trial!r}$"):
        plant_trial(SEED, trial, 3, 8)


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library use'"
    exec(compile(block.group(1), str(README), "exec"), {})


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("\nExamples:\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no sh block under 'Examples:'"
    lines = block.group(1).splitlines()
    assert lines and all(line.startswith("nbl-lab ") for line in lines), lines
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == ""
    assert (tmp_path / "universe.csv").read_text(encoding="utf-8").startswith("N,K,equal,")


def test_readme_names_no_private_symbol():
    # README states the contract; a private helper's mechanism belongs in its
    # docstring, so a rename edits one file.  Dunder names such as
    # __version__ are public.
    named = set(re.findall(r"\b_\w+", README.read_text(encoding="utf-8")))
    private = {name for name in named if not (name.startswith("__") and name.endswith("__"))}
    assert not private, sorted(private)


def test_every_cap_is_exported_and_listed_in_the_readme():
    exported = {name for name in nbl_lab.__all__ if name.endswith("_CAP")}
    listed = README.read_text(encoding="utf-8").split("Every cap can be imported", 1)[1]
    listed = set(re.findall(r"`(\w+_CAP)`", listed.split("\n- ", 1)[0]))
    assert exported == listed


# The golden configs of the five experiments, none of which uses an array.
NUMPY_FREE_RUNS = {
    "orthogonality": ["orthogonality", "--clocks-range", "100,400", "--trials", "10",
                      "--seed", "0xD1CEBA5E"],
    "readout_scaling": ["readout-scaling", "--bits", "4", "--clocks-range", "0,8,16",
                        "--trials", "50", "--seed", "0xD1CEBA5E"],
    "bounds_table": ["bounds-table", "--bits-range", "2,64,1024", "--epsilon", "0,0.5",
                     "--p-target", "0.001"],
    "universe_check": ["universe-check", "--bits-range", "0,2,4", "--clocks", "64",
                       "--seed", "0xD1CEBA5E"],
    "sinus_comparison": ["sinus-comparison", "--bits-range", "1,2,4"],
}

# Runs each argv list through cli.main with numpy blocked: any import of numpy
# raises, and any use of the lazily bound np fails on None.
NUMPY_BLOCKED_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from nbl_lab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append([code, out.getvalue()])
assert sys.modules["numpy"] is None
print(json.dumps(results))
"""

LAZY_NUMPY_CHILD = """
import sys, types
import nbl_lab
assert not [name for name in sys.modules if name.startswith("numpy.")], "numpy ran on import"
nbl_lab.make_reference_system(5, 8, 16)
import numpy
assert type(numpy) is types.ModuleType
assert nbl_lab.rtw.np is numpy
assert [name for name in sys.modules if name.startswith("numpy.")]
"""


def _child(code, *args):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60)


def test_numpy_free_experiments_reproduce_their_goldens_with_numpy_blocked():
    argvs = [[*argv, "--format", fmt] for argv in NUMPY_FREE_RUNS.values() for fmt in ("csv", "json")]
    child = _child(NUMPY_BLOCKED_CHILD, json.dumps(argvs))
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    results = iter(json.loads(child.stdout))
    for name, argv in NUMPY_FREE_RUNS.items():
        code, csv_text = next(results)
        assert code == 0
        assert csv_text == (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
        code, json_text = next(results)
        assert code == 0
        in_process = experiments.EXPERIMENTS[argv[0]](config_from_args(build_parser().parse_args(argv)))
        in_process.wall_time_s = json.loads(json_text)["wall_time_s"]
        assert json_text == in_process.to_json()


def test_importing_the_package_leaves_numpy_unexecuted_until_an_array_is_needed():
    child = _child(LAZY_NUMPY_CHILD)
    assert child.returncode == 0, child.stderr
