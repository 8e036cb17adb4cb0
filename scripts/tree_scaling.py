#!/usr/bin/env python3
"""Branching-tree deviation scaling: generation-sum deviations against
theta for a single-type tree with unit point-mass weights.

Usage: python scripts/tree_scaling.py [--reps N] [--seed N] [--threads N]
"""

import argparse

import numpy as np

from opinionlab import a_s_profile
from opinionlab.distributions import Point, Uniform, VectorDist
from opinionlab.model import ModelSpec


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the tree batches (output does not depend on it)")
    args = parser.parse_args()
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(1.0)]],
        belief_dists=[VectorDist((Uniform(-1, 1),))],
        signal_dists=[VectorDist((Uniform(-0.5, 0.5),))],
    )
    thetas = [8.0, 16.0, 32.0, 64.0]
    table = {}
    for theta in thetas:
        ests, ses = a_s_profile(
            spec, 0, 3, [Uniform(-1, 1)], np.array([[theta]]), np.array([[1.0]]),
            args.reps, (args.seed, int(theta)), threads=args.threads,
        )
        table[theta] = ests
        print(f"theta={theta:5.1f}  " + "  ".join(
            f"s={s+1}: {ests[s]:.5f} (+-{ses[s]:.5f})" for s in range(3)
        ))
    x = np.log(thetas)
    for s in range(3):
        slope = np.polyfit(x, np.log([table[t][s] for t in thetas]), 1)[0]
        print(f"generation {s+1}: slope of log deviation vs log theta = {slope:.3f}")


if __name__ == "__main__":
    main()
