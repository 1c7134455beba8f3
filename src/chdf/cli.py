"""Command-line entry point with run/check/steady subcommands."""

from __future__ import annotations

import argparse
import os
import sys

import scipy.fft

from . import driver
from .errors import (ChdfError, ParseError, SnapshotFormatError,
                     UnknownPreset, ValidationError)

EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chdf",
        description="Spectral solver for two-phase porous-medium flow "
                    "with a soluble surfactant.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "advance the coupled system and write the energy ledger"),
        ("check", "run the invariant suites at the configured grid size"),
        ("steady", "solve the stationary system from the configured state"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a run configuration file")
        p.add_argument("--output-dir", default=None,
                       help="override the configured output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    threads = os.environ.get("CHDF_THREADS", "0")
    try:
        workers = int(threads)
    except ValueError:
        workers = -1
    if workers < 0:
        print(f"chdf: invalid CHDF_THREADS value {threads!r}", file=sys.stderr)
        return EXIT_VALIDATION

    # The transform worker count holds for this command only.
    with scipy.fft.set_workers(workers or os.cpu_count()):
        try:
            cfg = driver.load_config(args.config)
            if args.output_dir is not None:
                cfg.output_dir = args.output_dir
            if args.command == "run":
                return driver.run(cfg)
            if args.command == "check":
                return driver.check(cfg)
            return driver.steady(cfg)
        except (ValidationError, ParseError, UnknownPreset) as exc:
            print(f"chdf: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except (OSError, SnapshotFormatError) as exc:
            print(f"chdf: {exc}", file=sys.stderr)
            return EXIT_IO
        except ChdfError as exc:
            print(f"chdf: {exc}", file=sys.stderr)
            return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
