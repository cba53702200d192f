"""Command line experiment runner: ``nbl-lab <experiment> [flags]``.

Exit codes: 0 on success, 2 on configuration errors (bad flags, values
out of cap), 1 on internal failure.  For the experiments that take
--seed, the master seed resolves as flag > NBL_LAB_SEED environment
variable > built-in default.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from .experiments import DEFAULT_MASTER_SEED, EXPERIMENTS, ExperimentConfig

SEED_ENV_VAR = "NBL_LAB_SEED"

# Each experiment's flags and their defaults; "bits" and "clocks" stand for
# the single and the -range form, and None leaves the default to
# ExperimentConfig (or, for seed, to the environment).  Every subcommand also
# takes --format and --out.
_INPUTS = {
    "orthogonality": {"clocks": (100, 10_000), "trials": 100, "seed": None},
    "universe-check": {"bits": (0, 2, 4, 8), "clocks": (128,), "seed": None},
    "readout-scaling": {"bits": (6, 8), "clocks": (8, 16), "trials": 1000, "seed": None},
    "sinus-comparison": {"bits": (1, 2, 4, 8)},
    "bounds-table": {"bits": (2, 64, 1024), "epsilon": None, "p-target": None},
}


def _seed(text: str) -> int:
    """A seed in Python integer-literal syntax: decimal, 0x, 0o or 0b."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbl-lab",
        description="Deterministic experiments on telegraph-wave and sinusoidal logic signals.",
    )
    subparsers = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        reads = _INPUTS[name]
        if "bits" in reads:
            sub.add_argument("--bits", type=int, help="single noise-bit count N")
            sub.add_argument("--bits-range", type=_int_list, metavar="N1,N2,...",
                             help="comma-separated noise-bit counts")
        if "clocks" in reads:
            sub.add_argument("--clocks", type=int, help="single clock count K")
            sub.add_argument("--clocks-range", type=_int_list, metavar="K1,K2,...",
                             help="comma-separated clock counts")
        if "trials" in reads:
            sub.add_argument("--trials", type=int, help="trials (or seed pairs) per grid point")
        if "seed" in reads:
            sub.add_argument("--seed", type=_seed, help="64-bit master seed (overrides env)")
        if "epsilon" in reads:
            sub.add_argument("--epsilon", dest="epsilons", type=_float_list, metavar="E1,E2,...",
                             help="epsilon grid for the clock-bound calculator (default 0)")
        if "p-target" in reads:
            sub.add_argument("--p-target", dest="p_targets", type=_float_list, metavar="P1,P2,...",
                             help="failure-probability targets for the step calculator "
                                  "(default 0.001)")
        sub.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="report format (default csv)")
        sub.add_argument("--out", help="output path (default stdout)")
    return parser


def _resolve_seed(flag_value: int | None) -> int:
    if flag_value is not None:
        return flag_value
    env_value = os.environ.get(SEED_ENV_VAR)
    if env_value is not None:
        try:
            return _seed(env_value)
        except argparse.ArgumentTypeError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env_value!r}")
    return DEFAULT_MASTER_SEED


def _pick_range(single: int | None, many: tuple[int, ...] | None,
                default: tuple[int, ...], what: str) -> tuple[int, ...]:
    if single is not None and many is not None:
        raise ValueError(f"give either --{what} or --{what}-range, not both")
    if single is not None:
        return (single,)
    if many is not None:
        return many
    return default


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    defaults = _INPUTS[args.experiment]
    given = vars(args)
    bits = _pick_range(given.get("bits"), given.get("bits_range"), defaults.get("bits", ()), "bits")
    clocks = _pick_range(given.get("clocks"), given.get("clocks_range"),
                         defaults.get("clocks", ()), "clocks")
    trials = given.get("trials")
    grids = {name: given[name] for name in ("epsilons", "p_targets") if given.get(name) is not None}
    # A seedless experiment never consults NBL_LAB_SEED; it echoes the default,
    # and an experiment that reads no trial count echoes trials = 1.
    seeded = "seed" in defaults
    return ExperimentConfig(
        experiment=args.experiment,
        bits=bits,
        clocks=clocks,
        trials=trials if trials is not None else defaults.get("trials", 1),
        master_seed=_resolve_seed(given.get("seed")) if seeded else DEFAULT_MASTER_SEED,
        **grids,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = EXPERIMENTS[args.experiment](config)
        rendered = report.render(args.format)
    except ValueError as exc:
        print(f"nbl-lab: configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("nbl-lab: internal failure", file=sys.stderr)
        traceback.print_exc()
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"nbl-lab: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0


def entrypoint() -> None:
    sys.exit(main())
