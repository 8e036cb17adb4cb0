"""Standalone microbenchmarks of opinionlab's public layer functions.

    python3 perfbench/micro.py RESULT_JSON WORK_DIR WORKLOAD SEED SECONDS

Each timing is the median of repeated calls on fixed inputs derived from
SEED, built from the benchmark workloads' models so that a layer number
can be read against the end-to-end workload that exercises it.  Inputs
are built outside the timed calls; ``propagate`` runs on InfluenceMatrix
objects assembled directly, so sampling cost stays out of the kernel
timing.  Byte figures are computed from array sizes, not measured.
Results that can be checked cheaply are checked; a failed check exits 1.
"""

import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from child import import_opinionlab
from workloads import WORKLOADS, config_text

PROPAGATE_N = (1000, 10_000, 100_000)
PROPAGATE_ELL = (1, 4, 16)
# grid points whose influence matrix would exceed this are skipped
MATRIX_CAP_BYTES = 512 * 2**20
MIN_REPS = 3
MAX_REPS = 200


class Bench:
    def __init__(self, budget):
        self.budget = budget
        self.metrics = {}
        self.failures = []

    def time(self, name, fn):
        """Median seconds of fn() over at least MIN_REPS calls, repeating
        until the per-item budget is spent; returns the last result."""
        times = []
        start = time.perf_counter()
        while len(times) < MIN_REPS or (
            len(times) < MAX_REPS and time.perf_counter() - start < self.budget
        ):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        self.metrics[name] = statistics.median(times)
        return out

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)


def nbytes(obj):
    """Bytes held in the numpy arrays of a dataclass, array or sparse matrix."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "indptr") and hasattr(obj, "data") and hasattr(obj, "indices"):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if hasattr(obj, "__dataclass_fields__"):
        return sum(nbytes(value) for value in vars(obj).values())
    return 0


def model_at(cfg, n):
    """The workload's model and its theta at graph size n."""
    from opinionlab.config import theta_value

    return cfg.model, theta_value(cfg.theta_rule, n)


def rows_stochastic(influence):
    sums = influence.row_sums()
    return bool(np.all(np.abs(sums[~influence.zero_rows] - 1.0) < 1e-9))


def bench_graph(b, cfgs, seed):
    from opinionlab import graph

    es, theta16 = model_at(cfgs["error_sparse"], 16_000)
    ss, _ = model_at(cfgs["stationary_dense"], 2000)
    labels16 = b.time("graph.sample_labels_s", lambda: graph.sample_labels(es, 16_000, (seed, 1)))
    geom = b.time("graph.sample_graph_geom_s",
                  lambda: graph.sample_graph(es, labels16, theta16, (seed, 2)))
    b.metrics["graph.edges_per_s"] = geom.edge_count() / b.metrics["graph.sample_graph_geom_s"]
    labels2k = graph.sample_labels(ss, 2000, (seed, 3))
    bern = b.time("graph.sample_graph_bernoulli_s",
                  lambda: graph.sample_graph(ss, labels2k, 600.0, (seed, 3)))
    sparse_c = b.time("graph.normalize_csr_s", lambda: graph.normalize_weights(geom))
    dense_c = b.time("graph.normalize_dense_s", lambda: graph.normalize_weights(bern))
    b.check(rows_stochastic(sparse_c), "sparse influence rows do not sum to 1")
    b.check(rows_stochastic(dense_c), "dense influence rows do not sum to 1")
    b.metrics["graph.bytes_per_edge"] = (nbytes(geom) + nbytes(sparse_c.matrix)
                                         + nbytes(sparse_c.zero_rows)) / geom.edge_count()
    return {"labels2k": labels2k, "bern": bern, "dense_c": dense_c}


def bench_propagate(b, seed):
    import scipy.sparse as sp
    from opinionlab.graph import InfluenceMatrix

    rng = np.random.default_rng([seed, 10])
    skipped = []
    for n in PROPAGATE_N:
        for deg in (30, n // 4):
            nnz = n * deg
            sizes = {"csr": nnz * (8 + 4) + (n + 1) * 4, "dense": n * n * 8}
            csr = None
            for fmt in ("csr", "dense"):
                if sizes[fmt] > MATRIX_CAP_BYTES:
                    skipped += [f"{n}.{deg}.{ell}.{fmt}" for ell in PROPAGATE_ELL]
                    continue
                if csr is None:
                    # uniform in-degree, uniform sources, row-stochastic weights
                    indices = rng.integers(0, n, size=nnz, dtype=np.int32)
                    indptr = np.arange(0, nnz + 1, deg, dtype=np.int32)
                    csr = sp.csr_matrix((np.full(nnz, 1.0 / deg), indices, indptr), shape=(n, n))
                influence = InfluenceMatrix(
                    matrix=csr if fmt == "csr" else csr.toarray(),
                    zero_rows=np.zeros(n, dtype=bool), dense=fmt == "dense",
                )
                ones = influence.propagate(np.ones((n, 1)))
                b.check(bool(np.allclose(ones, 1.0)), f"propagate {n}.{deg}.{fmt} is not row-stochastic")
                for ell in PROPAGATE_ELL:
                    key = f"{n}.{deg}.{ell}.{fmt}"
                    X = rng.uniform(-1.0, 1.0, size=(n, ell))
                    b.time(f"dynamics.propagate_s.{key}", lambda: influence.propagate(X))
                    b.metrics[f"dynamics.propagate_bytes.{key}"] = sizes[fmt] + 2 * X.nbytes
                del influence
            del csr
    b.metrics["dynamics.propagate_skipped"] = len(skipped)
    return skipped


def bench_dynamics(b, cfgs, seed, g):
    from opinionlab import dynamics

    ss, _ = model_at(cfgs["stationary_dense"], 2000)
    state = dynamics.initial_state(ss, g["bern"], (seed, 4))
    rng = np.random.default_rng([seed, 4])
    frame = b.time("dynamics.signal_frame_s",
                   lambda: dynamics.sample_signal_frame(ss, g["bern"], rng))
    b.time("dynamics.step_s", lambda: dynamics.step(state, g["dense_c"], frame, ss.c, ss.d))


def bench_meanfield(b, cfgs, seed, g):
    from opinionlab import graph, meanfield

    es, theta16 = model_at(cfgs["error_sparse"], 16_000)
    ss, _ = model_at(cfgs["stationary_dense"], 2000)
    census = np.bincount(graph.sample_labels(es, 16_000, (seed, 1)), minlength=es.K)
    model = b.time("meanfield.build_model_s",
                   lambda: meanfield.build_meanfield_model(es, 16_000, theta16, census))
    args = (model.mixing, model.signal_mean, model.initial_mean, es.c, es.d)
    profile = b.time("meanfield.profile_s.21", lambda: meanfield.deterministic_profile(*args, 21))
    b.time("meanfield.profile_s.200", lambda: meanfield.deterministic_profile(*args, 200))
    rng = np.random.default_rng([seed, 5])
    signals = rng.uniform(-0.5, 0.5, size=(21, es.ell))
    start = rng.uniform(-1.0, 1.0, size=es.ell)
    traj = b.time("meanfield.trajectory_s", lambda: meanfield.meanfield_trajectory(
        0, signals, *args[:3], start, es.c, es.d, 21, profile=profile))
    b.check(bool(np.all(np.abs(traj) <= 1.0 + 1e-12)), "mean-field trajectory left [-1, 1]")

    census2k = np.bincount(g["labels2k"], minlength=ss.K)
    smodel = meanfield.build_meanfield_model(ss, 2000, 600.0, census2k)
    # the stationarity experiment samples at burn_tol / 100
    sampler = meanfield.StationarySampler(ss, smodel, 1e-6)
    draws = b.time("meanfield.stationary_sample_s", lambda: sampler.sample(0, rng, size=20_000))
    b.check(bool(np.all(np.abs(draws) <= 1.0 + 1e-12)), "stationary draws left [-1, 1]")
    tracemalloc.start()
    sampler.sample(0, rng, size=20_000)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    b.metrics["meanfield.stationary_sample_peak_mb"] = peak / 2**20


def bench_metrics(b, cfgs, seed):
    from opinionlab import graph, meanfield, metrics
    from opinionlab.distributions import parse_scalar

    es, theta = model_at(cfgs["error_sparse"], 4000)
    labels = graph.sample_labels(es, 4000, (seed, 6))
    census = np.bincount(labels, minlength=es.K)
    model = meanfield.build_meanfield_model(es, 4000, theta, census)
    profile = meanfield.deterministic_profile(
        model.mixing, model.signal_mean, model.initial_mean, es.c, es.d, 21)
    inf_norms, _ = b.time("metrics.coupled_gap_run_s", lambda: metrics.coupled_gap_run(
        es, labels, theta, 21, (seed, 6), profile, census=census))
    b.check(bool(np.all(np.isfinite(inf_norms))), "coupled gap run is not finite")
    rng = np.random.default_rng([seed, 7])
    b.time("metrics.limit_draws_s",
           lambda: metrics.limit_trajectory_draws(es, model, profile, 0, 21, 4000, rng))
    case = metrics.ConcentrationCase(
        count_dists=[("poisson", 50.0)], weight_dist=parse_scalar("point:1"),
        value_dist=parse_scalar("uniform:-1,1"), H=1.0, eps_grid=(0.1, 0.2, 0.5))
    # raises if an empirical tail beats its analytic bound
    b.time("metrics.concentration_check_s",
           lambda: metrics.concentration_check(case, 100_000, (seed, 7)))


def bench_gwtree(b, cfgs, seed):
    from opinionlab import graph, gwtree

    ts, theta = model_at(cfgs["tree_deep"], 2000)
    q = gwtree.offspring_means(ts, ts.pi, theta)
    values = [dist.components[0] for dist in ts.belief_dists]
    trees = 100
    sums = b.time("gwtree.generation_sums_s", lambda: gwtree.generation_sum_samples(
        ts, 0, q, 3, values, trees, (seed, 8)))
    b.check(bool(np.all(np.abs(sums) <= 1.0 + 1e-9)), "generation sums left [-1, 1]")
    nodes = trees * sum(theta**s for s in (1, 2, 3))
    b.metrics["gwtree.nodes_per_s"] = nodes / b.metrics["gwtree.generation_sums_s"]
    labels = graph.sample_labels(ts, 2000, (seed, 9))
    tree_graph = graph.sample_graph(ts, labels, theta, (seed, 9))
    b.time("gwtree.diagnostic_s", lambda: [
        gwtree.neighborhood_diagnostic(tree_graph, v, 3, K=ts.K) for v in range(50)])


def bench_io(b, workload, seed, work_dir):
    from opinionlab import config, harness

    header = ["n", "theta", "k", "norm_type", "estimate", "stderr", "reps", "dense_ok"]
    rows = [(16_000, 33.6, i % 22, "inf", 1.0 / (i + 1), 0.5 / (i + 1), 12, True)
            for i in range(1000)]
    path = os.path.join(work_dir, "write_csv.csv")
    b.time("harness.write_csv_s", lambda: harness.write_csv(path, header, rows))
    text = config_text(workload, seed, 1)
    b.time("config.parse_s", lambda: config.parse_config(text))


def main(argv):
    result_path, work_dir, workload, seed, seconds = argv
    seed, seconds = int(seed), float(seconds)
    import_opinionlab()
    from opinionlab import config

    cfgs = {name: config.parse_config(config_text(name, seed, 1)) for name in WORKLOADS}

    b = Bench(budget=seconds / 100.0)
    g = bench_graph(b, cfgs, seed)
    bench_dynamics(b, cfgs, seed, g)
    skipped = bench_propagate(b, seed)
    bench_meanfield(b, cfgs, seed, g)
    bench_metrics(b, cfgs, seed)
    bench_gwtree(b, cfgs, seed)
    bench_io(b, workload, seed, work_dir)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": b.metrics, "skipped": skipped, "failures": b.failures}, fh)
    for failure in b.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    return 1 if b.failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
