"""Command-line entry point.

    opinionlab <subcommand> --config PATH [--seed U64] [--out DIR] [--threads N]

Subcommands mirror the experiment kinds (simulate, meanfield, error,
chaos, stationary, concentration, tree); `validate` parses the config
for its own kind and reports every violation, and a run command parses
it for the command's kind.  --seed and --out replace the config's keys
of those names; the thread count comes from --threads, else
OPINIONLAB_THREADS, else the config.  Exit codes: 0 success, 2 config
error (a value outside the bound that README's key table gives it, a
key the kind does not read, a key value or default that cannot be
allocated, or a thread count that is not a positive integer), 3
runtime/budget error (also a run that cannot allocate its arrays).
"""

import argparse
import sys

from .config import KINDS, ConfigError, parse_config
from .gwtree import TreeBudgetError
from .harness import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, run
from .parallel import resolve_threads

COMMANDS = KINDS + ("validate",)


def build_parser():
    parser = argparse.ArgumentParser(prog="opinionlab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="config file (key-value text or JSON)")
        cmd.add_argument("--seed", default=None, help="override the config seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--threads", type=int, default=None, help="worker threads")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    overrides = {key: val for key, val in (("seed", args.seed), ("out", args.out)) if val is not None}
    if args.command != "validate":
        overrides["kind"] = args.command
    try:
        cfg = parse_config(text, **overrides)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "validate":
        print("config ok")
        return EXIT_OK
    try:
        cfg.threads = resolve_threads(args.threads, default=cfg.threads)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summary = run(cfg)
    except (TreeBudgetError, RuntimeError, OSError, ValueError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote outputs for kind={summary['kind']} to {cfg.out}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
