"""The benchmark's workloads: one opinionlab config each, and what its
outputs must look like.

Each workload stresses a different layer (recorded in ``target``, the
traced span it was chosen for) so that a change to one layer has a
workload that exercises it and one that should stay flat.
"""

ERROR_SPARSE = """\
kind = error
seed = {seed}
threads = {threads}
n_grid = 4000 16000
theta = loglog:14.7781121978613
inner_reps = 6
outer_reps = 1
model.K = 2
model.ell = 1
model.pi = 0.5 0.5
model.kappa = 1.5 0.5 ; 0.5 1.5
model.c = 0.3
model.d = 0.2
model.weights = uniform:0.2,1
"""

STATIONARY_DENSE = """\
kind = stationary
seed = {seed}
threads = {threads}
n_grid = 2000
theta = const:600
inner_reps = 4
stationary_reps = 20000
burn_tol = 1e-4
model.K = 1
model.ell = 4
model.c = 0.3
model.d = 0.1
"""

TREE_DEEP = """\
kind = tree
seed = {seed}
threads = {threads}
n_grid = 2000
theta = const:64
depth = 3
tree_reps = 500
vertices_checked = 50
model.K = 1
model.weights = point:1
model.beliefs = uniform:-1,1
"""

ERROR_HEADER = ["n", "theta", "k", "norm_type", "estimate", "stderr", "reps", "dense_ok"]
STATIONARY_HEADER = ["n", "theta", "community", "topic", "moment", "graph_estimate",
                     "graph_stderr", "stationary_estimate", "stationary_stderr", "gap",
                     "combined_stderr"]
TREE_HEADER = ["theta", "root_type", "s", "estimate", "stderr", "replications"]
DIAGNOSTIC_HEADER = ["n", "theta", "depth", "vertex_count_checked", "non_tree_fraction"]

# csv name -> (header, data rows, columns that hold text instead of numbers)
WORKLOADS = {
    "error_sparse": {
        "config": ERROR_SPARSE,
        "target": "graph.sample_graph",
        # 2 sizes x (k = 0..21 for 2 norms + 2 sup rows); 21 = burn-in steps at d = 0.2
        "csv": {"error_curve.csv": (ERROR_HEADER, 2 * (22 * 2 + 2), {"norm_type", "dense_ok"})},
    },
    "stationary_dense": {
        "config": STATIONARY_DENSE,
        "target": "graph.InfluenceMatrix.propagate",
        # K = 1 community x 4 topics x 2 moments
        "csv": {"stationarity.csv": (STATIONARY_HEADER, 8, {"moment"})},
    },
    "tree_deep": {
        "config": TREE_DEEP,
        "target": "gwtree.generation_sum_samples",
        # 1 theta x 1 root type x depth 3; one diagnostic row per n
        "csv": {
            "tree_scaling.csv": (TREE_HEADER, 3, set()),
            "tree_diagnostic.csv": (DIAGNOSTIC_HEADER, 1, set()),
        },
    },
}


def config_text(workload, seed, threads):
    return WORKLOADS[workload]["config"].format(seed=seed, threads=threads)
