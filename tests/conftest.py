import importlib.util
from pathlib import Path

import pytest

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
