"""Golden output digests: one small config per experiment kind.

Each config runs at one and two threads; the sha256 of every file it
writes, except the manifest (which holds a timestamp and wall time),
must match the committed constant.  A change that legitimately alters
output bytes updates these constants and says why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from opinionlab.config import parse_config
from opinionlab.graph import DENSE_P
from opinionlab.harness import run

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
        "chaos.csv": "966c2e019615932ad42fa813f85664aaad439a6b78a207e71b743e79814ba901",
        "summary.json": "33c6828c2ab8fecd8f6e56ba8479dc3594b4d752cb1134b7546814e65777bc73",
    },
    "concentration": {
        "concentration.csv": "a1174adcb73eac7aaae02d082baabe166d4f64c92b508542a33468503b44622c",
        "summary.json": "343e028e617fb2880d4a6ddc0746d2cd64dae1521afc4549b87de818624a9ab5",
    },
    "error": {
        "error_curve.csv": "7617349d6664ed83afb4933c14e53374f1103859b822ce965e106a9e4807c974",
        "summary.json": "eb7ed50a544d5a7b5dcbd193400b6cf20d78f0681256433a6b3a0b9257375fb7",
    },
    "meanfield": {
        "model_report.json": "c709c0a665c95c8a4616c45542df3d95d313c3725310fb99a29a91843fc6df51",
        "summary.json": "e7e611de9a5cebb53ee4e9d57d93780df61f3dff215a6d12ecb7dc416f27e950",
    },
    "simulate": {
        "summary.json": "983acfd586490251dd50c6f6f1d27e01f650fc8343b0a6e2978442d8c8346960",
        "trajectories.csv": "093c58f7611cf2ed0e09f1801e1342be4131dc8b14d9efc83da34d5309cbda56",
    },
    "stationary": {
        "stationarity.csv": "5c11853452f87c1380eb6cf051d1109fd681d3069a94e565967e7eb93305e3dc",
        "summary.json": "06438c1f44f062fced56cf2752de41f6c158e996de84c106c48c55f624453926",
    },
    "tree": {
        "summary.json": "1de4fe1dfa53209f95fa16a716bd08297dc354b8820d7a581f77329982d3d955",
        "tree_diagnostic.csv": "a88019d078c15a9a7aa54f78e12b1d822fc90600bbc185d7d20ee765e750b13c",
        "tree_scaling.csv": "4a5c3f81e88e2db40016a8b0dc6d8e71dbd02f6ab257c39d034e3864f630ee93",
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


HIGH_DEGREE_CONFIG = (
    "n_grid = 60\ntheta = const:30\ninner_reps = 3\nburn_tol = 1e-3\nstationary_reps = 400"
)

HIGH_DEGREE_DIGESTS = {
    "stationarity.csv": "c39f76a8e94776bcfef95ad1db0bcd48139dd2c0dd5875ddf2fbe6fbf4a8912a",
    "summary.json": "34fc1ecb8933156793f47418740956ec85b1a3788f895b7ff8b447a18d6221b4",
}


def test_golden_digests_high_degree_stationary(tmp_path):
    """A stationary run whose edge blocks all take the Bernoulli branch
    (mean in-degree about 0.6 n)."""
    cfg = parse_config(f"kind = stationary\nseed = 17\n{HIGH_DEGREE_CONFIG}\n{MODEL}")
    (n,), (theta,) = cfg.n_grid, cfg.thetas()
    assert cfg.model.kappa.min() * theta / n >= DENSE_P
    for threads in (1, 2):
        cfg.threads = threads
        out = tmp_path / f"t{threads}"
        run(cfg, out)
        assert output_digests(out) == HIGH_DEGREE_DIGESTS, f"high degree at threads={threads}"


BLAS_CONFIG = """\
kind = stationary
seed = 1
n_grid = 2000
theta = const:600
inner_reps = 1
stationary_reps = 200
burn_tol = 1e-4
model.K = 1
model.ell = 4
model.c = 0.3
model.d = 0.1
"""


def test_stationary_bytes_ignore_blas_threads(tmp_path):
    """Mean in-degree 600 of 2000: the densest workload's graph product
    must give the same bytes under one and two BLAS threads."""
    cfg_path = tmp_path / "blas.cfg"
    cfg_path.write_text(BLAS_CONFIG)
    digests = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "opinionlab.cli", "stationary", "--config", str(cfg_path),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(output_digests(out)["stationarity.csv"])
    assert digests[0] == digests[1]
