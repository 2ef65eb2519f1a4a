"""Command-line front end.

    coopdyn <subcommand> --config <path> [--seed <u64>] [--out <dir>]

Subcommands mirror the experiment kinds (ipd-match, ipd-tournament,
delta-scan, mfg-solve, mfg-simulate, roles-run, dungeon) plus `report`,
which rebuilds report.md from an existing run directory or manifest.
Exit codes: 0 success, 1 validation error, a file that cannot be read or
written, or a run that exhausts memory, 2 numerical-integrity error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, NumericalIntegrityError, ValidationError
from .harness import EXPERIMENT_KINDS, load_config, regenerate_report, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopdyn",
        description="Turn-taking cooperation experiments: iterated prisoner's "
        "dilemma, mean-field intersection equilibria, and role rotation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        cmd = sub.add_parser(kind.replace("_", "-"), help=f"run a {kind} experiment")
        cmd.add_argument("--config", required=True, help="path to a JSON config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
    report = sub.add_parser("report", help="rebuild report.md for a finished run")
    report.add_argument(
        "--config", required=True, help="run directory or manifest.json path"
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; those are validation errors here
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "report":
            path = regenerate_report(args.config)
            print(f"report rebuilt: {path}")
            return 0
        kind = args.command.replace("-", "_")
        config = load_config(args.config)
        declared = config.get("experiment")
        if declared is None:
            config["experiment"] = kind
        elif declared != kind:
            raise ConfigError(
                [f"config: experiment '{declared}' does not match subcommand '{kind}'"]
            )
        if args.seed is not None:
            config["seed"] = args.seed
        artifacts = run(config, out_dir=args.out)
        print(f"{kind}: wrote {', '.join(artifacts.csv_files)} to {artifacts.out_dir}")
        for key in ("converged", "deviation", "solved_threshold"):
            if key in artifacts.summary:
                print(f"  {key}: {artifacts.summary[key]}")
        return 0
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except NumericalIntegrityError as exc:
        print(f"numerical-integrity error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the output directory or an artifact could not be written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
