#!/usr/bin/env python3
"""Seed sweep of the seeded acceptance criteria (5-10).

Reruns one criterion of tests/criteria.py on seeds 1000 .. 1000+N-1 and
prints, per seed, the criterion's detail line and PASS/FAIL at its
stated tolerance; the last line is the pass count.  The sweep only
reports: no test reads its output, and the committed seeds and
tolerances are the defaults in tests/criteria.py.

--threads sets the worker threads of the criteria that take them (all
but 9); the output does not depend on it.  --n-grid replaces the graph
sizes of criterion 5, 6 or 7, keeping its density rule and replication
counts.  Criterion 7 prints every size's fixed and pooled gap with its
3-se band and judges the halving between the first and last sizes; a
size outside its committed grid gets the n = 4000 replication count.

Usage: python scripts/seed_sweep.py --seeds N [--criterion 5|6|7|8|9|10]
           [--threads N] [--n-grid N N ...]

For example, the factorization gap across sizes and the tree slopes:

    python scripts/seed_sweep.py --seeds 1 --criterion 7 --n-grid 500 1000 2000 4000
    python scripts/seed_sweep.py --seeds 1 --criterion 10 --threads 2
"""

import argparse
import inspect
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from criteria import CRITERIA  # noqa: E402

FIRST_SEED = 1000
SEEDED = {num: fn for num, fn in CRITERIA.items() if "seed" in inspect.signature(fn).parameters}


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=positive, required=True, help="number of seeds to run")
    parser.add_argument("--criterion", type=int, choices=sorted(SEEDED), default=8)
    parser.add_argument("--threads", type=positive, default=None,
                        help="worker threads (output does not depend on it; default 1)")
    parser.add_argument("--n-grid", type=positive, nargs="+", default=None,
                        help="graph sizes for criterion 5, 6 or 7, ascending")
    args = parser.parse_args()
    criterion = SEEDED[args.criterion]
    params = inspect.signature(criterion).parameters
    options = {"threads": args.threads, "n_grid": args.n_grid}
    for name, value in options.items():
        if value is not None and name not in params:
            flag = "--" + name.replace("_", "-")
            parser.error(f"{flag} does not apply to criterion {args.criterion}")
    if args.n_grid is not None and (len(args.n_grid) < 2
                                    or sorted(set(args.n_grid)) != args.n_grid):
        parser.error("--n-grid needs at least two distinct sizes in ascending order")
    kwargs = {name: value for name, value in options.items() if value is not None}
    passed = 0
    for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
        record = criterion(seed=seed, **kwargs)
        passed += record.passed
        print(f"seed={seed}  {record.detail}  {'PASS' if record.passed else 'FAIL'}", flush=True)
    print(f"passed {passed} of {args.seeds} seeds")


if __name__ == "__main__":
    main()
