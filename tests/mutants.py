"""Planted bugs that the fast paths' oracle tests must catch.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tests/mutants.py

Each mutant replaces one exact piece of text in one file under ``src/``.
For each, the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into
a temporary directory, applies the replacement there, and runs the mutant's
pytest nodes against the copy: the nodes must fail.  The unmutated nodes run
once first and must pass.  A mutant whose text is not found exactly once
fails the script, so a refactor cannot retire a mutant silently.  pytest and
Hypothesis write only into the temporary directory, so the checkout is left
unchanged.  Exit status 0 means every mutant was caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KERNEL = "tests/test_readout.py::TestReadoutKernel"
COUNT = "tests/test_readout.py::TestCountFailures"
ROWS = "tests/test_rtw.py::TestRows"

# (name, file under src/, exact text, replacement, nodes that must fail)
MUTANTS = [
    ("_null_tags drops the tag XOR", "nbl_lab/readout.py",
     "            tag ^= hit[1]\n", "", [KERNEL]),
    ("gf2_fast_readout drops the bit-N consistency test", "nbl_lab/readout.py",
     "if not null_tags or not null_tags[-1] >> n_bits:", "if not null_tags:", [KERNEL]),
    ("count_failures counts only deficits above 1", "nbl_lab/readout.py",
     "failures += bool(_null_tags(", "failures += 1 < len(_null_tags(", [COUNT]),
    ("_cut_rows drops the complement", "nbl_lab/rtw.py",
     "(ones ^ int.from_bytes(data[j * stride:j * stride + width], \"big\"))",
     "int.from_bytes(data[j * stride:j * stride + width], \"big\")", [ROWS]),
]


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _run_nodes(workdir: Path, nodes: list[str]) -> tuple[int, float]:
    """pytest's exit status on *nodes* in *workdir*, and the seconds taken.
    A fixed Hypothesis seed makes each run repeatable."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    status = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *nodes],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return status, time.perf_counter() - started


def main() -> int:
    sources = {}
    for name, path, text, _, _ in MUTANTS:
        sources.setdefault(path, (ROOT / "src" / path).read_text(encoding="utf-8"))
        found = sources[path].count(text)
        if found != 1:
            print(f"mutant {name!r}: its text occurs {found} times in src/{path}, not once")
            return 1
    with tempfile.TemporaryDirectory(prefix="nbl-lab-mutants-") as tmp:
        workdir = Path(tmp)
        _copy_checkout(workdir)
        every_node = sorted({node for *_, nodes in MUTANTS for node in nodes})
        status, seconds = _run_nodes(workdir, every_node)
        print(f"unmutated: exit {status} in {seconds:.1f} s")
        if status != 0:
            print("the unmutated nodes must pass")
            return 1
        survivors = 0
        for name, path, text, replacement, nodes in MUTANTS:
            target = workdir / "src" / path
            target.write_text(sources[path].replace(text, replacement), encoding="utf-8")
            status, seconds = _run_nodes(workdir, nodes)
            target.write_text(sources[path], encoding="utf-8")
            # Exit 1 is "tests failed"; any other status is an error, not a catch.
            verdict = "caught" if status == 1 else "SURVIVED"
            survivors += status != 1
            print(f"{verdict}: {name} (exit {status} in {seconds:.1f} s; {' '.join(nodes)})")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
