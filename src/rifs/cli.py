"""Command-line interface.

One subcommand per experiment kind plus ``preset`` for emitting the built-in
configurations as editable JSON.  Exit codes: 0 success, 2 validation error
(including an unreadable or malformed config file and an unwritable output
directory), 3 resource budget exceeded, 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .errors import BudgetError, InputError, InvariantError
from .experiments import (EXPERIMENT_KINDS, PRESET_NAMES, ExperimentConfig,
                          preset, run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rifs",
        description="Random recursive IFS simulations: level sets, moments, "
                    "determinant windows, pair counts, coverage estimates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="write a built-in config as JSON")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--out", default=".", help="directory for NAME.json")

    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config master seed (u64)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--allow-subcritical", action="store_true",
                       help="permit coverage-type runs with h <= lambda")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for independent seeds")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "preset":
            cfg = preset(args.name)
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{args.name}.json"
            with open(path, "w") as fh:
                json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(path)
            return 0

        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}") from exc
        cfg = ExperimentConfig.from_dict(raw)
        cfg = replace(cfg, kind=args.command)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.allow_subcritical:
            cfg = replace(cfg, allow_subcritical=True)
        paths = run(cfg, args.out, threads=args.threads)
        for p in paths:
            print(p)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
