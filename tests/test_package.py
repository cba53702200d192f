"""The package as a whole: each module's __all__, declared once; the one
integer rule for counts; and the README's library example."""

import re
from pathlib import Path

import pytest

import nbl_lab
from nbl_lab import (ExperimentConfig, Gf2System, ProductString, SeedSpec, SinusRepresentation,
                     Superposition, count_failures, experiments, generate_rtw, hyperspace,
                     make_reference_system, readout, realize_sinus_product, rtw, sinus,
                     stacho_clock_bound, timeshifted_readout_steps)

MODULES = (experiments, hyperspace, readout, rtw, sinus)
README = Path(__file__).resolve().parents[1] / "README.md"
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
    (lambda: ExperimentConfig("sinus-comparison", bits=(2, -1)), "bits must be at least 0, got -1"),
    (lambda: ExperimentConfig("orthogonality", clocks=(8, -5)), "clocks must be at least 0, got -5"),
    (lambda: ExperimentConfig("orthogonality", trials=0), "trials must be at least 1, got 0"),
    (lambda: Gf2System(-1), "n_vars must be at least 0, got -1"),
    (lambda: stacho_clock_bound(1, 0.0), "n_bits must be at least 2, got 1"),
    (lambda: timeshifted_readout_steps(0, 0.5), "n_bits must be at least 1, got 0"),
], ids=["bits", "generate_rtw", "reference-bits", "reference-clocks", "product-string",
        "superposition", "sinus-representation", "sinus-samples", "failures-bits",
        "failures-clocks", "failures-trials", "config-bits", "config-clocks", "config-trials",
        "gf2-system", "clock-bound", "timeshifted-steps"])
def test_a_count_below_its_minimum_is_refused_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "README has no python block under 'Library use'"
    exec(compile(block.group(1), str(README), "exec"), {})
