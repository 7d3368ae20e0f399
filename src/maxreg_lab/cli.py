"""Command-line front end for the experiment harness.

Exit codes: 0 experiment passed, 1 failed, 2 inconclusive, 3 usage or
configuration error, 4 the run crashed (an error that is not a
configuration error, reported on one line of stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable
from dataclasses import replace

from .harness import (
    ConfigError,
    ExperimentConfig,
    check_config,
    experiment_names,
    load_config,
    run_experiment,
    write_results,
)

_STATUS_CODES = {"pass": 0, "fail": 1, "inconclusive": 2}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxreg-lab",
        description="Numerical experiments around maximal parabolic regularity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("config", help="path to the experiment config")
    run.add_argument("--out", help="output directory (overrides the config)")
    run.add_argument("--seed", type=int, help="RNG seed (overrides the config)")
    run.add_argument(
        "--threads", type=int, help="worker threads for ensemble members"
    )

    sub.add_parser("list-experiments", help="print the known experiment names")

    val = sub.add_parser("validate", help="check a config without running it")
    val.add_argument("config", help="path to the experiment config")

    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, rng_seed=args.seed)
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    return cfg


def _print_lines(lines: Iterable[str]) -> None:
    """Print ``lines``; a reader that closes the pipe early (``| head``)
    costs the lines that are left, not the exit code."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout goes to devnull, so the interpreter's exit flush cannot raise too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold into the config-error code
        return 0 if exc.code in (0, None) else 3

    if args.command == "list-experiments":
        _print_lines(experiment_names())
        return 0

    try:
        cfg = load_config(args.config)
        if args.command == "validate":
            check_config(cfg)
            _print_lines([f"ok: {cfg.experiment} config is valid"])
            return 0
        cfg = _apply_overrides(cfg, args)
        record = run_experiment(cfg)
        paths = write_results(record, cfg.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a crash is not a failed experiment
        print(f"crash: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4

    lines = [f"{key} = {value}" for key, value in sorted(record.metrics.items())]
    lines.append(f"status: {record.status}  ({record.wall_time_s:.2f} s)")
    _print_lines(lines + [f"wrote {path}" for path in paths])
    return _STATUS_CODES[record.status]


if __name__ == "__main__":
    sys.exit(main())
