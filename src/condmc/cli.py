"""Command-line entry point for the benchmark commands.

Exit codes: 0 on success, 2 for configuration problems, 3 when an estimator
fails numerically (the structured error name is printed on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .bench import COMMANDS
from .errors import CondMcError, ConfigError
from .runconfig import parse_config_file, resolve_config
from .weakderiv import GRADIENT_MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condmc",
        description=("Conditional-loss benchmarks on the mean-reverting "
                     "model: point estimates, convergence and variance "
                     "sweeps, and the SGD loop."),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "estimate-loss": "one conditional-loss estimate with its std error",
        "estimate-grad": "one loss-gradient estimate with its std error",
        "bench-convergence": "loss error vs sample size (CSV + SVG)",
        "bench-variance": "gradient variance vs horizon (CSV + SVG)",
        "optimize": "projected SGD trace (CSV + SVG)",
    }
    for name, help_text in descriptions.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", help="key = value file; flags override it")
        sub.add_argument("--seed", type=int, help="master seed")
        sub.add_argument("--paths", type=int, help="paths per estimate")
        sub.add_argument("--steps", type=int, help="grid steps over the horizon")
        sub.add_argument("--horizon", type=float, help="time horizon T")
        sub.add_argument("--theta", type=float, help="drift parameter")
        sub.add_argument("--sigma", type=float, help="diffusion level")
        sub.add_argument("--out", help="output directory")
        sub.add_argument("--mode", choices=GRADIENT_MODES, help="branch-gradient mode")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        flag_values = {name: value for name, value in vars(args).items()
                       if name not in ("command", "config")}
        config = resolve_config(args.command, file_values, flag_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        table = COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CondMcError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    error = table.manifest.get("error")
    if error:
        print(error, file=sys.stderr)
        return 3
    return 0
