#!/usr/bin/env python3
"""Seed sweep of the stochastic leg of acceptance criterion 8 (the
large-graph and long-time limits exchange).

Reruns that leg of tests/test_acceptance.py on seeds 1000 .. 1000+N-1
(the test's committed seed is 77) and prints, per seed, the gap between
the long-run graph mean and the stationary-law mean, three combined
standard errors, and the margin gap / (3 * combined_se); the criterion
passes at margin <= 1.  The last line is the pass count.  The sweep only
reports: no test calls it, and it changes no committed seed or tolerance.

Usage: python scripts/seed_sweep.py --seeds N [--threads N]
"""

import argparse

from opinionlab import stationarity_experiment
from opinionlab.distributions import Point, Uniform, VectorDist
from opinionlab.metrics import burn_in_steps
from opinionlab.model import ModelSpec

FIRST_SEED = 1000
BURN_TOL = 1e-4


def positive(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=positive, required=True, help="number of seeds to run")
    parser.add_argument("--threads", type=positive, default=1,
                        help="worker threads for the graph replications (output does not depend on it)")
    args = parser.parse_args()
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.3, 1.0)]],
        belief_dists=[VectorDist((Point(0.0),))],
        signal_dists=[VectorDist((Uniform(0.0, 0.4),))],
    )
    k_long = burn_in_steps(spec.d, BURN_TOL)
    passed = 0
    for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
        rep = stationarity_experiment(spec, 2000, 600.0, k_long, 40, BURN_TOL, seed,
                                      stationary_reps=20_000, threads=args.threads)
        row = next(r for r in rep.rows if r["moment"] == "mean")
        bound = 3 * row["combined_se"]
        margin = row["gap"] / bound
        passed += margin <= 1.0
        print(f"seed={seed}  gap={row['gap']:.3e}  3se={bound:.3e}  margin={margin:.3f}  "
              f"{'PASS' if margin <= 1.0 else 'FAIL'}", flush=True)
    print(f"passed {passed} of {args.seeds} seeds")


if __name__ == "__main__":
    main()
