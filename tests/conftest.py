import numpy as np
import pytest
from hypothesis import settings

from opinionlab.distributions import Mixture, Point, ScaledBeta, Uniform, VectorDist
from opinionlab.model import ModelSpec

settings.register_profile("lab", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("lab")


def random_scalar_dist(rng, lo, hi, allow_mixture=True):
    kind = rng.integers(0, 4 if allow_mixture else 3)
    if kind == 0:
        return Point(float(rng.uniform(lo, hi)))
    if kind == 1:
        a = float(rng.uniform(lo, hi))
        b = float(rng.uniform(a, hi))
        return Uniform(a, b)
    if kind == 2:
        return ScaledBeta(float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3)), lo, hi)
    comps = tuple(random_scalar_dist(rng, lo, hi, allow_mixture=False) for _ in range(2))
    w = float(rng.uniform(0.2, 0.8))
    return Mixture((w, 1.0 - w), comps)


def random_vector_dist(rng, ell):
    return VectorDist(tuple(random_scalar_dist(rng, -1.0, 1.0) for _ in range(ell)))


def random_spec(seed, K=None, ell=None, allow_zero_rows=False, fixed_composition=False):
    """A valid random ModelSpec drawn from the closed distribution family."""
    rng = np.random.default_rng(seed)
    K = K if K is not None else int(rng.integers(1, 4))
    ell = ell if ell is not None else int(rng.integers(1, 4))
    pi = rng.dirichlet(np.ones(K) * 5)
    kappa = rng.uniform(0.2, 2.0, size=(K, K))
    if allow_zero_rows and K > 1 and rng.random() < 0.5:
        kappa[:, 0] = 0.0  # community 0 gets no inbound edges
    d = float(rng.uniform(0.15, 0.6))
    c = float(rng.uniform(0.0, 1.0 - d))
    H = float(rng.uniform(0.5, 2.0))
    weight_dists = [[random_scalar_dist(rng, 0.0, H) for _ in range(K)] for _ in range(K)]
    belief_dists = [random_vector_dist(rng, ell) for _ in range(K)]
    signal_dists = [random_vector_dist(rng, ell) for _ in range(K)]
    init_dists = "beliefs" if rng.random() < 0.2 else [random_vector_dist(rng, ell) for _ in range(K)]
    return ModelSpec(
        K=K, ell=ell, pi=pi, kappa=kappa, c=c, d=d, H=H,
        weight_dists=weight_dists, belief_dists=belief_dists,
        signal_dists=signal_dists,
        signal_belief_weight=float(rng.uniform(0, 0.5)) if rng.random() < 0.3 else 0.0,
        init_dists=init_dists, fixed_composition=fixed_composition,
    )


@pytest.fixture
def two_community_spec():
    return ModelSpec(
        K=2, ell=2, pi=[0.5, 0.5], kappa=[[2.0, 1.0], [1.0, 2.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Uniform(0.2, 1.0), Point(0.5)], [Point(0.7), Uniform(0.1, 0.9)]],
        belief_dists=[
            VectorDist((Uniform(-1, 1), Point(0.3))),
            VectorDist((Point(-0.2), Uniform(-0.5, 0.5))),
        ],
        signal_dists=[
            VectorDist((Uniform(0, 0.5), Point(0.1))),
            VectorDist((Uniform(-0.5, 0), Point(-0.1))),
        ],
    )
