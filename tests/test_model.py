import numpy as np
import pytest

from opinionlab.distributions import Point, Uniform, VectorDist
from opinionlab.dynamics import assemble_frame, frame_terms
from opinionlab.model import ModelSpec

from conftest import random_spec


def valid_kwargs():
    return dict(
        K=2, ell=1, pi=[0.5, 0.5], kappa=[[1.0, 1.0], [1.0, 1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(0.5), Point(0.5)], [Point(0.5), Point(0.5)]],
        belief_dists=[VectorDist((Uniform(-1, 1),))] * 2,
        signal_dists=[VectorDist((Point(0.1),))] * 2,
    )


def test_moment_matrices_shapes():
    spec = random_spec(42, K=3, ell=2)
    assert spec.weight_mean_matrix().shape == (3, 3)
    v = spec.weight_second_moment_matrix()
    beta = spec.weight_mean_matrix()
    assert np.all(v >= beta**2 - 1e-12)
    assert np.all(beta >= 0) and np.all(beta <= spec.H + 1e-12)
    assert spec.signal_mean_matrix().shape == (3, 2)
    assert np.all(np.abs(spec.signal_mean_matrix()) <= 1 + 1e-12)


def test_init_beliefs_mode():
    kw = valid_kwargs()
    kw["init_dists"] = "beliefs"
    spec = ModelSpec(**kw)
    labels = np.array([0, 1, 0])
    beliefs = np.array([[0.1], [0.2], [0.3]])
    out = spec.sample_initial(labels, beliefs, np.random.default_rng(0))
    assert np.array_equal(out, beliefs)
    assert out is not beliefs
    assert np.array_equal(spec.init_mean_matrix(), spec.belief_mean_matrix())


def test_signal_belief_mixing_mean_and_samples():
    kw = valid_kwargs()
    kw["signal_belief_weight"] = 0.5
    kw["belief_dists"] = [VectorDist((Point(0.8),)), VectorDist((Point(-0.4),))]
    kw["signal_dists"] = [VectorDist((Point(0.2),)), VectorDist((Point(0.2),))]
    spec = ModelSpec(**kw)
    assert spec.signal_mean_matrix()[:, 0] == pytest.approx([0.5, -0.1])
    beliefs = np.array([[0.8], [-0.4]])
    terms = frame_terms(spec, beliefs, np.array([False, True]))
    W = assemble_frame(spec, np.full((2, 1), 0.2), terms)
    assert W[:, 0] == pytest.approx([spec.d * 0.5, spec.d * -0.1 + spec.c * -0.4])
