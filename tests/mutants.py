"""Planted bugs that the fast paths' oracle tests must catch.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tests/mutants.py

Each mutant replaces one exact piece of text in one file under ``src/``.
Each run copies ``src/``, ``tests/``, ``pyproject.toml`` and, read-only,
``bench/oracles.py`` (which a test fixture loads) into a temporary
directory of its own.  The unmutated nodes run once first, in one copy, and
must pass.  Then each mutant applies its replacement in a fresh copy and
runs its pytest nodes there: the nodes must fail.  At most two mutants run
at a time; results are printed in ``MUTANTS`` order.  A mutant whose text
is not found exactly once fails the script, so a refactor cannot retire a
mutant silently.  pytest and Hypothesis write only into the temporary
directories, so the checkout is left unchanged.  Exit status 0 means every
mutant was caught; the last line gives the script's wall time, against a
budget of 60 s.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KERNEL = "tests/test_readout.py::TestReadoutKernel"
GF2_SYSTEM = "tests/test_readout.py::TestGf2System"
RECOUNT = "tests/test_readout.py::TestCountFailures::test_matches_the_per_trial_recount"
GRID_RECOUNT = ("tests/test_experiments.py::TestReadoutScaling::"
                "test_every_record_matches_the_per_trial_recount")
PAIR_ROWS = "tests/test_rtw.py::TestRows::test_pair_rows_are_the_xor_of_the_reference_rows"
ROWS = "tests/test_rtw.py::TestRows"
TRIAL_SEEDS = "tests/test_readout.py::TestPlantTrial::test_trial_seeds_are_the_derived_seeds"
STREAM = "tests/test_rtw.py::TestSeedSpec::test_bits_are_keyed_blake2b_of_the_block_counter"
KEYS = "tests/test_rtw.py::TestSeedSpec::test_prefix_derived_keys_equal_stream_keys"
PAIRS = "tests/test_experiments.py::TestOrthogonality::test_pair_value_is_the_wave_time_average"
PLANES = "tests/test_hyperspace.py::TestSignPlanes::test_plane_values_are_the_universe_waves"
COLLISIONS = "tests/test_sinus.py::TestFindDegeneracies::test_collision_counts_are_the_report_totals"
MASK_ORDER = "tests/test_sinus.py::TestFindDegeneracies::test_linear_sixteen_bits_matches_closed_form"
BLOCKS = "tests/test_hyperspace.py::TestRealizeSuperposition::test_block_size_does_not_change_the_sum"
WAVES = "tests/test_rtw.py::TestClockedWave::test_validation"
UINT64 = "tests/test_rtw.py::TestIntegerWave::test_accepts_beyond_int64"
ZERO_CLOCKS = "tests/test_cli.py::TestExitCodes::test_universe_check_at_zero_clocks_exits_2"
WAVE_BLANKS = "tests/test_rtw.py::TestWaveFiles::test_load_ignores_blanks_around_a_sample"
ELEMENTS = "tests/test_rtw.py::TestClockedWave::test_a_list_follows_the_element_rule"
REFUSED_ELEMENT = ("tests/test_rtw.py::TestSampleRule::"
                   "test_a_bool_float_or_str_element_is_refused_naming_it")
BRUTE_FORCE = ("tests/test_readout.py::TestBruteForceReadout::"
               "test_survivors_are_the_candidates_that_realize_the_wave")
BAD_GROUP = ("tests/test_sinus.py::TestFindDegeneracies::"
             "test_a_bad_hand_built_group_raises_what_the_constructor_raises")
READ_ALIKE = ("tests/test_experiments.py::TestExperimentConfig::"
              "test_epsilon_and_p_are_read_alike_by_config_and_calculators")
REAL_CALCULATORS = ("tests/test_readout.py::TestBoundCalculators::"
                    "test_a_bad_argument_is_refused_naming_it")

# (name, file under src/, exact text, replacement, nodes that must fail)
MUTANTS = [
    ("_null_tags drops the tag XOR", "nbl_lab/readout.py",
     "            tag ^= hit[1]\n", "", [KERNEL]),
    ("_solve drops the bit-N consistency test", "nbl_lab/readout.py",
     "if tags and tags[-1] >> n:", "if tags:", [KERNEL]),
    ("Gf2System's transpose keeps only each column's last row", "nbl_lab/readout.py",
     "columns[low.bit_length() - 1] |= bit", "columns[low.bit_length() - 1] = bit", [GF2_SYSTEM]),
    ("_failure_counts counts a trial whose first null tag's top bit is N", "nbl_lab/readout.py",
     "sum(firsts[k][:n])", "sum(firsts[k][:n + 1])", [RECOUNT]),
    ("_failure_counts reuses the max(K) rows for every K", "nbl_lab/readout.py",
     "row >> shift for row in drawn", "row for row in drawn", [GRID_RECOUNT]),
    ("_pair_rows drops its pad shift", "nbl_lab/rtw.py",
     "from_bytes(high, \"big\")) >> shift", "from_bytes(high, \"big\"))",
     [PAIR_ROWS, RECOUNT]),
    ("_cut_rows drops the complement", "nbl_lab/rtw.py",
     "(ones ^ int.from_bytes(data[j * stride:j * stride + width], \"big\"))",
     "int.from_bytes(data[j * stride:j * stride + width], \"big\")", [ROWS]),
    ("_trial_seeds reads the second 8 key bytes", "nbl_lab/readout.py",
     "int.from_bytes(key[:8], \"big\")", "int.from_bytes(key[8:16], \"big\")", [TRIAL_SEEDS]),
    ("_stream_bytes writes the counter little-endian", "nbl_lab/rtw.py",
     "block.update(i.to_bytes(8, \"big\"))", "block.update(i.to_bytes(8, \"little\"))", [STREAM]),
    ("_pair_rows hashes a one-block stream under counter 1", "nbl_lab/rtw.py",
     "_FIRST_COUNTER = bytes(8)", "_FIRST_COUNTER = (1).to_bytes(8, \"big\")", [PAIR_ROWS, RECOUNT]),
    ("_derive_keys drops its prefix", "nbl_lab/rtw.py",
     "    state.update(prefix)\n", "", [KEYS]),
    ("_bit_correlation drops its factor 2", "nbl_lab/experiments.py",
     "(clocks - 2 * (a ^ b).bit_count())", "(clocks - (a ^ b).bit_count())", [PAIRS]),
    ("_universe_sign_planes drops & ~differ", "nbl_lab/hyperspace.py",
     "planes[n_bits] = odd & ~differ", "planes[n_bits] = odd", [PLANES]),
    ("_expanded_sign_planes drops the carry", "nbl_lab/hyperspace.py",
     "planes[j] ^ carry, planes[j] & carry", "planes[j] ^ carry, 0", [PLANES]),
    ("_collision_counts counts only groups above 2", "nbl_lab/sinus.py",
     "if count >= 2]", "if count > 2]", [COLLISIONS]),
    ("find_degeneracies sorts unstably", "nbl_lab/sinus.py",
     "kind=\"stable\"", "kind=\"quicksort\"", [MASK_ORDER]),
    ("realize_superposition drops its last partial clock block", "nbl_lab/hyperspace.py",
     "for start in range(0, clocks, span):", "for start in range(0, clocks - span + 1, span):",
     [BLOCKS]),
    ("_frozen_samples accepts bool elements", "nbl_lab/rtw.py",
     "_index(v, \"sample\") for v in arr.flat", "operator.index(v) for v in arr.flat", [WAVES]),
    ("_frozen_samples lets bools take the plain-int shortcut", "nbl_lab/rtw.py",
     "if not {int}.issuperset(", "if not {int, bool}.issuperset(", [ELEMENTS, REFUSED_ELEMENT]),
    ("_frozen_samples lets uint64 wrap through int64", "nbl_lab/rtw.py",
     "if samples.dtype.kind == \"u\" and np.any(arr < 0):", "if False:", [UINT64]),
    ("run_universe_check lets K = 0 through", "nbl_lab/experiments.py",
     "if clocks < 1:", "if clocks < 0:", [ZERO_CLOCKS]),
    ("load_wave_file keeps the blanks around a sample", "nbl_lab/rtw.py",
     "token = line.strip()", "token = line.rstrip(\"\\n\")", [WAVE_BLANKS]),
    ("brute_force_readout packs one word short", "nbl_lab/readout.py",
     "words = -(-clocks // 64)", "words = clocks // 64", [BRUTE_FORCE]),
    ("_product_strings drops its 2^N bound", "nbl_lab/hyperspace.py",
     "min(masks) >= 0 and not max(masks) >> n_bits", "min(masks) >= 0", [BAD_GROUP]),
    ("_real lets a bool through", "nbl_lab/rtw.py",
     "if isinstance(value, bool) or not isinstance(value, Real):",
     "if not isinstance(value, Real):", [READ_ALIKE, REAL_CALCULATORS]),
]
# Mutants run at a time, each pytest process in its own copy.
WORKERS = 2


# A pytest plugin for the runs: a failing Hypothesis test is reported with
# the example it found, unshrunk.  Shrinking added 5-7 s to each mutant that
# a Hypothesis test catches, and a catch needs only the failure.
PROFILE_PLUGIN = """from hypothesis import Phase, settings
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate))
"""


def _copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    # The bench_oracles fixture of tests/conftest.py loads bench/oracles.py.
    (dest / "bench").mkdir()
    oracles = shutil.copy2(ROOT / "bench" / "oracles.py", dest / "bench" / "oracles.py")
    os.chmod(oracles, 0o444)
    (dest / "mutants_profile.py").write_text(PROFILE_PLUGIN, encoding="utf-8")


def _run_nodes(workdir: Path, nodes: list[str]) -> tuple[int, float]:
    """pytest's exit status on *nodes* in *workdir*, and the seconds taken.
    A fixed Hypothesis seed makes each run repeatable."""
    # python -m puts *workdir* on the path, where the profile plugin is.
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    status = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "-p", "mutants_profile", "--hypothesis-profile=mutants", "--hypothesis-seed=0", *nodes],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return status, time.perf_counter() - started


def _run_in_copy(nodes: list[str], path: str | None = None, text: str = "",
                 replacement: str = "") -> tuple[int, float]:
    """:func:`_run_nodes` on *nodes* in a fresh copy of the checkout, with
    *text* replaced in ``src/``*path* when a *path* is given."""
    with tempfile.TemporaryDirectory(prefix="nbl-lab-mutants-") as tmp:
        workdir = Path(tmp)
        _copy_checkout(workdir)
        if path is not None:
            target = workdir / "src" / path
            target.write_text(target.read_text(encoding="utf-8").replace(text, replacement),
                              encoding="utf-8")
        return _run_nodes(workdir, nodes)


def main() -> int:
    started = time.perf_counter()
    sources = {}
    for name, path, text, _, _ in MUTANTS:
        sources.setdefault(path, (ROOT / "src" / path).read_text(encoding="utf-8"))
        found = sources[path].count(text)
        if found != 1:
            print(f"mutant {name!r}: its text occurs {found} times in src/{path}, not once")
            return 1
    every_node = sorted({node for *_, nodes in MUTANTS for node in nodes})
    status, seconds = _run_in_copy(every_node)
    print(f"unmutated: exit {status} in {seconds:.1f} s")
    if status != 0:
        print("the unmutated nodes must pass")
        return 1
    survivors = 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        runs = pool.map(lambda m: _run_in_copy(m[4], path=m[1], text=m[2], replacement=m[3]),
                        MUTANTS)
        for (name, *_, nodes), (status, seconds) in zip(MUTANTS, runs):
            # Exit 1 is "tests failed"; any other status is an error, not a catch.
            verdict = "caught" if status == 1 else "SURVIVED"
            survivors += status != 1
            print(f"{verdict}: {name} (exit {status} in {seconds:.1f} s; {' '.join(nodes)})",
                  flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught "
          f"in {time.perf_counter() - started:.1f} s of wall time")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
