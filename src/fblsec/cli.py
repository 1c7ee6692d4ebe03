"""Command-line front end.

    fblsec eval   --config cfg.json [--out file.csv]
    fblsec solve  --config cfg.json [--out file.csv]
    fblsec sweep  --config cfg.json [--out file.csv] [--threads n]
    fblsec oracle --config cfg.json [--out file.csv]

Exit codes: 0 on success, 2 when the configuration is malformed or
infeasible, 3 when a configured trend assertion fails.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, InfeasibleError, TrendViolationError
from .experiments import (
    cmd_eval,
    cmd_oracle,
    cmd_solve,
    cmd_sweep,
    load_config,
    rows_to_csv,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_TREND = 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fblsec",
        description="Leakage-failure probability evaluation and minimization "
                    "for short-packet secure transmissions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("eval", "tabulate the LFP surface over a resource grid"),
        ("solve", "run the iterative solver and emit its trace"),
        ("sweep", "solve across a parameter sweep"),
        ("oracle", "exhaustive-search benchmark optimum"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", default=None,
                         help="CSV output path (default: config 'output' key, else stdout)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="concurrent sweep points")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "eval":
            header, rows = cmd_eval(cfg)
        elif args.command == "solve":
            header, rows = cmd_solve(cfg)
        elif args.command == "sweep":
            header, rows = cmd_sweep(cfg, threads=max(1, args.threads))
        else:
            header, rows = cmd_oracle(cfg)
    except (ConfigError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TrendViolationError as exc:
        print(f"trend violation: {exc}", file=sys.stderr)
        return EXIT_TREND

    out_path = args.out or cfg.get("output")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fh:
                rows_to_csv(header, rows, fh)
        except OSError as exc:
            print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
    else:
        rows_to_csv(header, rows, sys.stdout)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
