"""Golden output digests: one small config per experiment kind.

Each config runs at one and two threads; the sha256 of every file it
writes, except the manifest (which holds a timestamp and wall time),
must match the committed constant.  A change that legitimately alters
output bytes updates these constants and says why in CHANGES.md.
"""

import hashlib

import pytest

from opinionlab.config import parse_config
from opinionlab.graph import normalize_weights, sample_graph, sample_labels
from opinionlab.harness import run

MODEL = """
model.K = 2
model.ell = 2
model.pi = 0.4 0.6
model.kappa = 2 0.5 ; 1 1.5
model.c = 0.3
model.d = 0.25
model.H = 1
model.weights = uniform:0.2,1 point:0.5 ; point:0.7 uniform:0.1,0.9
model.beliefs = uniform:-1,1 point:0.3 | point:-0.2 uniform:-0.5,0.5
model.signals = uniform:-0.4,0.4 point:0.1 | uniform:-0.2,0.6 point:-0.1
model.signal_belief_weight = 0.25
"""

CONFIGS = {
    "simulate": "n_grid = 90\ntheta = const:9\ninner_reps = 2\nk_max = 4\nrecord = 0 7 89",
    "meanfield": "n_grid = 150\ntheta = log:2",
    "error": "n_grid = 80 160\ntheta = const:10\ninner_reps = 3\nouter_reps = 2\nk_max = 5",
    "chaos": (
        "n_grid = 100\ntheta = const:12\ninner_reps = 4\nk = 3\nlimit_reps = 300\n"
        "vertex_sets = 0 1 ; 2 3 4\nfunctions = proj:0,3 proj:1,2 ; prod:0,1,1,3 one poly:0,3,2\n"
        "measure_functions = proj:0,3 prod:0,2,1,2\nmodel.init = beliefs"
    ),
    "stationary": (
        "n_grid = 100\ntheta = const:15\ninner_reps = 3\nburn_tol = 1e-3\nstationary_reps = 400"
    ),
    "concentration": "inner_reps = 500\ncount_means = 20 40\neps_grid = 0.2 0.5",
    "tree": "n_grid = 200\ntheta = const:5\ndepth = 2\ntree_reps = 200\nvertices_checked = 20\nouter_reps = 2",
}

DIGESTS = {
    "chaos": {
        "chaos.csv": "4878e264bfc5c5a0ee37ed1b2a8ebafef52874f1245dd5ecf5dbc4448dd7b55d",
        "summary.json": "0079390ae00ef36b6802f85cb931f12b0e22b69eab0a80e646a3eb8b61138d8e",
    },
    "concentration": {
        "concentration.csv": "a1174adcb73eac7aaae02d082baabe166d4f64c92b508542a33468503b44622c",
        "summary.json": "343e028e617fb2880d4a6ddc0746d2cd64dae1521afc4549b87de818624a9ab5",
    },
    "error": {
        "error_curve.csv": "2ac2c96c0a74cacf6756965c78b37fc6e7d26c4944ab99813b20d7102003d867",
        "summary.json": "2979d61be979865669490e1a90ba251a74d01f27357a73bb6d8567f4bd9c23f4",
    },
    "meanfield": {
        "model_report.json": "c709c0a665c95c8a4616c45542df3d95d313c3725310fb99a29a91843fc6df51",
        "summary.json": "e7e611de9a5cebb53ee4e9d57d93780df61f3dff215a6d12ecb7dc416f27e950",
    },
    "simulate": {
        "summary.json": "983acfd586490251dd50c6f6f1d27e01f650fc8343b0a6e2978442d8c8346960",
        "trajectories.csv": "80e1e9a2ea3f0393c9990607e93f5bc69afed6b70490813ca175046ab8c7308f",
    },
    "stationary": {
        "stationarity.csv": "b16c3af3b9811997db52d33cbccadd266f0d9aabc736ab34f883b332250a7881",
        "summary.json": "8f20df86d2bca29776f9ccce2e98602239a1d73a19bd97867de91b6797c83e72",
    },
    "tree": {
        "summary.json": "22ff0d9b0f2d04025897045867850faeb2650ade73d7e0b6528a99efbaf7a55e",
        "tree_diagnostic.csv": "a88019d078c15a9a7aa54f78e12b1d822fc90600bbc185d7d20ee765e750b13c",
        "tree_scaling.csv": "d075f24af63aca30232352c3de54cf216bb725061fb4426ba31e9618611d8c8e",
    },
}


def output_digests(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name != "manifest.json"
    }


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_golden_digests(kind, tmp_path):
    for threads in (1, 2):
        cfg = parse_config(f"kind = {kind}\nseed = 17\nthreads = {threads}\n{CONFIGS[kind]}\n{MODEL}")
        out = tmp_path / f"t{threads}"
        run(cfg, out)
        assert output_digests(out) == DIGESTS[kind], f"{kind} at threads={threads}"


DENSE_CONFIG = "n_grid = 60\ntheta = const:30\ninner_reps = 3\nburn_tol = 1e-3\nstationary_reps = 400"

DENSE_DIGESTS = {
    "stationarity.csv": "6550cc2cc44ae3140d884db3343eb2edffe9c72c65625f8376f5c5bfc0a2aecd",
    "summary.json": "c87999d6018d35a4b2a2cae58c179560d9475846d66b6e659039b9ce3032066e",
}


def test_golden_digests_dense_influence(tmp_path):
    """A stationary run whose graphs are all stored as dense C."""
    cfg = parse_config(f"kind = stationary\nseed = 17\n{DENSE_CONFIG}\n{MODEL}")
    (n,), (theta,) = cfg.n_grid, cfg.thetas()
    labels = sample_labels(cfg.model, n, (cfg.seed, 0))
    for i in range(cfg.inner_reps):  # seeded as stationarity_experiment seeds them
        assert normalize_weights(sample_graph(cfg.model, labels, theta, (cfg.seed, 0, i))).dense
    for threads in (1, 2):
        cfg.threads = threads
        out = tmp_path / f"t{threads}"
        run(cfg, out)
        assert output_digests(out) == DENSE_DIGESTS, f"dense stationary at threads={threads}"
