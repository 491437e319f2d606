"""Command line front end.

Four subcommands: ``simulate`` runs a JSON config and writes the artifact
set, ``theory`` evaluates exact curves without simulating, ``experiment``
runs a named validation preset, ``calibrate`` fits an observed ACF and
reports the splitter-count bound.  Exit codes: 0 on success, 2 for config,
input or output-path problems, 3 for any other model-level error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import load_config
from .errors import ConfigError, LmfsimError
from .runner import (
    EXPERIMENTS,
    run_calibrate,
    run_experiment,
    run_simulate,
    theory_curves,
    write_theory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL = 3


def _add_simulate(sub):
    p = sub.add_parser("simulate", help="run a config and write artifacts")
    p.add_argument("config", help="path to a JSON run config")
    p.add_argument("-o", "--out", default="runs/latest", help="output directory")
    p.set_defaults(func=_cmd_simulate)


def _add_theory(sub):
    p = sub.add_parser("theory", help="evaluate exact curves for a config")
    p.add_argument("config", help="path to a JSON run config")
    p.add_argument("-o", "--out", default=None,
                   help="CSV output path (default: stdout)")
    p.add_argument("--grid", choices=("geometric", "dense"), default=None,
                   help="override the config lag grid")
    p.set_defaults(func=_cmd_theory)


def _add_experiment(sub):
    p = sub.add_parser("experiment", help="run a named validation preset")
    p.add_argument("name", choices=sorted(EXPERIMENTS), help="preset name")
    p.add_argument("-o", "--out", default="runs", help="output root directory")
    p.add_argument("--seed", type=int, default=None, help="override base seed")
    p.set_defaults(func=_cmd_experiment)


def _add_calibrate(sub):
    p = sub.add_parser("calibrate", help="fit an ACF CSV and bound trader count")
    p.add_argument("acf_csv", help="CSV with lag,value[,stderr] rows")
    p.add_argument("--mu", type=float, default=0.8,
                   help="assumed total splitter intensity (default 0.8)")
    p.add_argument("--gamma", type=float, default=None,
                   help="pin the decay exponent instead of fitting it")
    p.add_argument("--alpha", type=float, default=None,
                   help="pin the length-law exponent (gamma = alpha - 1)")
    p.add_argument("--window", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None, help="fit window in lag units")
    p.add_argument("-o", "--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_calibrate)


def _cmd_simulate(args) -> int:
    manifest = run_simulate(args.config, args.out)
    print(json.dumps(manifest["summary"], indent=2))
    print(f"artifacts written to {args.out}")
    return EXIT_OK


def _cmd_theory(args) -> int:
    config = load_config(args.config)
    grid = args.grid or config.theory_grid
    curves = theory_curves(config.population, config.max_lag, grid)
    if args.out is None:
        sys.stdout.flush()
        write_theory_csv(sys.stdout.buffer, curves)
    else:
        write_theory_csv(args.out, curves)
        print(f"theory curves written to {args.out}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    report = run_experiment(args.name, args.out, base_seed=args.seed)
    print(json.dumps(report, indent=2, default=float))
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    window = tuple(args.window) if args.window else None
    report = run_calibrate(args.acf_csv, mu=args.mu, gamma=args.gamma,
                           alpha=args.alpha, window=window, out=args.out)
    print(json.dumps(report, indent=2, default=float))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmfsim",
        description="order-splitting market simulator and exact ACF engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_theory(sub)
    _add_experiment(sub)
    _add_calibrate(sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LmfsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_MODEL
    except OSError as exc:  # an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
