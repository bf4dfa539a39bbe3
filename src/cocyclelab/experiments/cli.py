"""Command line front end for the experiment runners.

Exit codes: 0 all verdicts pass, 2 at least one verdict fails,
1 configuration or runtime error.
"""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config, validate_config
from .parallel import worker_count
from .report import all_passed, write_report
from .runners import DESCRIPTIONS, run_experiment


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cocyclelab",
        description="run one of the shipped cocycle experiments",
    )
    p.add_argument("--config", metavar="PATH", help="experiment config file (JSON)")
    p.add_argument("--out", metavar="DIR", default=".",
                   help="directory for report files (default: current directory)")
    p.add_argument("--seed", type=int, metavar="INT",
                   help="override the seed recorded in the config")
    p.add_argument("--experiment", metavar="ID",
                   help="require the config to describe this experiment id")
    p.add_argument("--list", action="store_true",
                   help="list known experiment ids and exit")
    p.add_argument("--validate", action="store_true",
                   help="schema-check the config and exit")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.list:
        for exp in sorted(DESCRIPTIONS):
            print(f"{exp}  {DESCRIPTIONS[exp]}")
        return 0
    if not args.config:
        print("error: --config is required unless --list is given", file=sys.stderr)
        return 1
    try:
        cfg = validate_config(load_config(args.config), source=args.config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.experiment and cfg["experiment"] != args.experiment:
        print(
            f"error: {args.config}: config describes {cfg['experiment']}, "
            f"not {args.experiment}",
            file=sys.stderr,
        )
        return 1
    if args.validate:
        print(f"{args.config}: ok ({cfg['experiment']})")
        return 0
    seed = int(cfg["seed"] if args.seed is None else args.seed)
    try:
        worker_count()
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        result = run_experiment(cfg, seed)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    paths = write_report(args.out, cfg["experiment"], cfg, seed, result)
    for v in result["verdicts"]:
        print(f"{'PASS' if v['passed'] else 'FAIL'}  {v['name']}")
    for path in paths:
        print(f"wrote {path}")
    return 0 if all_passed(result) else 2


if __name__ == "__main__":
    raise SystemExit(main())
