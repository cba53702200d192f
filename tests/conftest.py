import importlib.util
import operator
from pathlib import Path

import pytest

from nbl_lab import SeedSpec
from nbl_lab.readout import _null_tags
from nbl_lab.rtw import _reference_rows

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        help="rewrite golden files from current outputs instead of comparing",
    )


@pytest.fixture
def golden(request):
    """Compare *content* against a committed golden file, byte for byte."""

    def check(name: str, content: str):
        path = GOLDEN_DIR / name
        if request.config.getoption("--update-goldens"):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(content.encode("utf-8"))
            return
        assert path.exists(), f"golden file {name} missing; run pytest --update-goldens"
        expected = path.read_bytes().decode("utf-8")
        assert content == expected, f"output differs from golden {name}"

    return check


@pytest.fixture(scope="session")
def bench_oracles():
    """bench/oracles.py, which is written apart from nbl_lab."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def failure_recount():
    """count_failures recounted trial by trial, apart from its lazy pass: each
    trial's 2N rows read in full by rtw._reference_rows, its two halves
    XORed, and every null tag listed; a trial fails when there is one."""

    def recount(n_bits: int, clocks: int, trials: int, master_seed: int) -> int:
        failures = 0
        for trial in range(trials):
            trial_seed = SeedSpec(master_seed, ("trial", trial)).derive_seed()
            rows = _reference_rows(trial_seed, n_bits, clocks)
            failures += bool(list(_null_tags(map(operator.xor, rows[:n_bits], rows[n_bits:]))))
        return failures

    return recount
