#!/usr/bin/env python3
"""Seed sweep of the stochastic acceptance criteria 5-8.

Reruns one criterion of tests/test_acceptance.py on seeds
1000 .. 1000+N-1 and prints, per seed, the criterion's statistic and
PASS/FAIL at its stated tolerance; the last line is the pass count.  The
sweep only reports: no test calls it, and it changes no committed seed
or tolerance.  The committed test seeds are 99, 41, 31 and 77.

- 5, dense-regime sup-norm decay (theta = n^0.8, n = 250..2000): passes
  when the sup errors decrease in n and the slope of log error against
  log sqrt(log n / theta) lies in [0.6, 1.4].
- 6, semi-sparse row-norm decay (theta = 2 e^2 log log n,
  n = 1000, 4000, 16000): passes when the sup row error decreases in n
  for at least 2 of the 3 outer label draws.  The line also gives the
  slope of log row error (mean over the outer draws) against log n.
- 7, propagation of chaos (theta = n^0.6, n = 500 and 4000): passes when
  the pooled two-vertex factorization gap at n = 4000 is below half the
  gap at n = 500.  Each pooled gap is printed with its Monte Carlo band,
  three times graph_se + limit_se as the test computes it, and whether
  the gap lies inside it.
- 8, limit exchange (stochastic leg only: n = 2000, theta = 600): the
  gap between the long-run graph mean and the stationary-law mean, three
  combined standard errors, and the margin gap / (3 * combined_se); it
  passes at margin <= 1.

--n-grid replaces the n grid of criterion 5 or 6, keeping its density
rule and replication counts, to follow the curve to larger graphs.

Usage: python scripts/seed_sweep.py --seeds N [--criterion 5|6|7|8]
           [--threads N] [--n-grid N N ...]
"""

import argparse
import math

import numpy as np

from opinionlab import chaos_experiment, error_experiment, sample_labels, stationarity_experiment
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


def criterion_5(seed, threads, ns):
    spec = ModelSpec(
        K=2, ell=1, pi=[0.5, 0.5], kappa=[[2.0, 1.0], [1.0, 2.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(1.0)] * 2] * 2,
        belief_dists=[VectorDist((Uniform(-1, 1),))] * 2,
        signal_dists=[VectorDist((Uniform(0, 0.6),)), VectorDist((Uniform(-0.6, 0),))],
        fixed_composition=True,
    )
    ns = ns or [250, 500, 1000, 2000]
    curve = error_experiment(spec, ns, lambda n: float(n) ** 0.8, burn_in_steps(spec.d), 20, 3,
                             seed, threads=threads)
    agg = curve.by_n()
    sup = np.array([agg[n]["sup_inf"] for n in ns])
    x = 0.5 * np.log(np.log(ns) / np.array([agg[n]["theta"] for n in ns]))
    slope = float(np.polyfit(x, np.log(sup), 1)[0])
    ok = bool(np.all(np.diff(sup) < 0)) and 0.6 <= slope <= 1.4
    return ok, f"errors={np.round(sup, 5).tolist()}  slope={slope:.3f}"


def criterion_6(seed, threads, ns):
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Uniform(0.2, 1.0)]],
        belief_dists=[VectorDist((Uniform(-1, 1),))],
        signal_dists=[VectorDist((Uniform(-0.1, 0.5),))],
    )
    ns = ns or [1000, 4000, 16000]
    inner = [round(60 * math.log(n) / math.log(1000)) for n in ns]
    rule = lambda n: 2.0 * math.e**2 * math.log(math.log(n))
    curve = error_experiment(spec, ns, rule, burn_in_steps(spec.d), inner, 3, seed,
                             threads=threads)
    seqs = {}
    for pt in sorted(curve.points, key=lambda pt: pt.n):
        seqs.setdefault(pt.outer, []).append(pt.sup_row)
    agree = sum(all(b < a for a, b in zip(seq, seq[1:])) for seq in seqs.values())
    agg = curve.by_n()
    slope = float(np.polyfit(np.log(ns), np.log([agg[n]["sup_row"] for n in ns]), 1)[0])
    rounded = {o: [round(v, 5) for v in seq] for o, seq in sorted(seqs.items())}
    return agree >= 2, f"per-outer={rounded}  monotone={agree}/3  slope_vs_log_n={slope:.3f}"


def criterion_7(seed, threads, ns):
    spec = ModelSpec(
        K=2, ell=1, pi=[0.5, 0.5], kappa=[[2.0, 1.0], [1.0, 2.0]], c=0.45, d=0.2, H=1.0,
        weight_dists=[[Point(1.0), Uniform(0.0, 0.9)], [Point(1.0), Uniform(0.0, 0.9)]],
        belief_dists=[VectorDist((Point(1.0),)), VectorDist((Point(-1.0),))],
        signal_dists=[VectorDist((Point(0.5),)), VectorDist((Point(-0.5),))],
        init_dists="beliefs",
        fixed_composition=True,
    )
    fid = "proj:0,2"
    gaps, detail = {}, []
    for n, reps in ((500, 300), (4000, 250)):
        labels = sample_labels(spec, n, (seed, 0))
        pair = [int(np.flatnonzero(labels == 0)[0]), int(np.flatnonzero(labels == 1)[0])]
        rep = chaos_experiment(spec, n, float(n) ** 0.6, 2, [pair], [[fid, fid]], reps, seed,
                               limit_reps=4000, threads=threads, pooled_pairs=[(0, 1)],
                               pooled_functions=[[fid, fid]])
        row = next(r for r in rep.product_rows if isinstance(r["vertices"], str))
        gaps[n] = row["gap"]
        band = 3 * (row["graph_se"] + row["limit_se"])
        detail.append(f"gap{n}={gaps[n]:.3e} ({'inside' if gaps[n] <= band else 'outside'} "
                      f"3se={band:.3e})")
    return gaps[4000] < 0.5 * gaps[500], "  ".join(detail)


def criterion_8(seed, threads, ns):
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.3, 1.0)]],
        belief_dists=[VectorDist((Point(0.0),))],
        signal_dists=[VectorDist((Uniform(0.0, 0.4),))],
    )
    k_long = burn_in_steps(spec.d, BURN_TOL)
    rep = stationarity_experiment(spec, 2000, 600.0, k_long, 40, BURN_TOL, seed,
                                  stationary_reps=20_000, threads=threads)
    row = next(r for r in rep.rows if r["moment"] == "mean")
    bound = 3 * row["combined_se"]
    margin = row["gap"] / bound
    return margin <= 1.0, f"gap={row['gap']:.3e}  3se={bound:.3e}  margin={margin:.3f}"


CRITERIA = {5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=positive, required=True, help="number of seeds to run")
    parser.add_argument("--criterion", type=int, choices=sorted(CRITERIA), default=8)
    parser.add_argument("--threads", type=positive, default=1,
                        help="worker threads for the graph replications (output does not depend on it)")
    parser.add_argument("--n-grid", type=positive, nargs="+", default=None,
                        help="graph sizes for criterion 5 or 6, ascending")
    args = parser.parse_args()
    if args.n_grid is not None:
        if args.criterion not in (5, 6):
            parser.error("--n-grid applies to criteria 5 and 6 only")
        if len(args.n_grid) < 2 or sorted(set(args.n_grid)) != args.n_grid:
            parser.error("--n-grid needs at least two distinct sizes in ascending order")
    passed = 0
    for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
        ok, detail = CRITERIA[args.criterion](seed, args.threads, args.n_grid)
        passed += ok
        print(f"seed={seed}  {detail}  {'PASS' if ok else 'FAIL'}", flush=True)
    print(f"passed {passed} of {args.seeds} seeds")


if __name__ == "__main__":
    main()
