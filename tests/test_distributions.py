import numpy as np
import pytest
from hypothesis import given, strategies as st

from opinionlab.distributions import (
    DistributionError, Mixture, Point, ScaledBeta, Uniform, VectorDist,
    parse_scalar, parse_vector, sample_by_label, supported_in,
)

from conftest import random_scalar_dist


def test_point_moments_and_samples():
    d = Point(0.4)
    assert d.mean() == 0.4
    assert d.second_moment() == pytest.approx(0.16)
    assert np.all(d.sample(np.random.default_rng(0), size=5) == 0.4)


def test_uniform_moments():
    d = Uniform(-1.0, 1.0)
    assert d.mean() == 0.0
    assert d.second_moment() == pytest.approx(1.0 / 3.0)


def test_scaled_beta_moments_match_monte_carlo():
    d = ScaledBeta(2.0, 3.0, -1.0, 1.0)
    rng = np.random.default_rng(1)
    draws = d.sample(rng, size=200_000)
    assert d.mean() == pytest.approx(draws.mean(), abs=5e-3)
    assert d.second_moment() == pytest.approx((draws**2).mean(), abs=5e-3)
    lo, hi = d.support()
    assert draws.min() >= lo and draws.max() <= hi


def test_mixture_moments():
    d = Mixture((0.25, 0.75), (Point(1.0), Uniform(0.0, 1.0)))
    assert d.mean() == pytest.approx(0.25 + 0.75 * 0.5)
    assert d.second_moment() == pytest.approx(0.25 + 0.75 / 3.0)


def test_mixture_rejects_bad_weights():
    with pytest.raises(DistributionError):
        Mixture((0.5, 0.6), (Point(0.0), Point(1.0)))


def test_vector_dist_shapes():
    v = VectorDist((Point(0.1), Uniform(-1, 1)))
    rng = np.random.default_rng(2)
    out = v.sample(rng, size=7)
    assert out.shape == (7, 2)
    assert np.all(out[:, 0] == 0.1)
    assert v.mean() == pytest.approx([0.1, 0.0])


def test_sample_by_label_draws_label_by_label():
    dists = [VectorDist((Uniform(0, 1), Point(0.5))), VectorDist((Uniform(2, 3), Point(-0.5))),
             VectorDist((Uniform(4, 5), Point(0.0)))]  # label 2 never occurs
    labels = np.array([1, 0, 1, 1, 0])
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    out = sample_by_label(dists, labels, rng, (2,))
    assert out.shape == (5, 2)
    assert np.array_equal(out[[1, 4]], dists[0].sample(ref_rng, size=2))
    assert np.array_equal(out[[0, 2, 3]], dists[1].sample(ref_rng, size=3))
    assert rng.random() == ref_rng.random()  # an absent label draws nothing
    assert sample_by_label(dists[:2], np.zeros(0, np.int64), rng).shape == (0,)


@pytest.mark.parametrize(
    "token",
    ["point:0.5", "uniform:-1,1", "beta:2,3", "beta:2,3,-1,1",
     "mix:0.25*point:1+0.75*uniform:0,1"],
)
def test_token_round_trip(token):
    dist = parse_scalar(token)
    again = parse_scalar(dist.token())
    assert again == dist


@given(st.integers(min_value=0, max_value=10_000))
def test_random_dists_round_trip_and_moment_consistency(seed):
    rng = np.random.default_rng(seed)
    dist = random_scalar_dist(rng, -1.0, 1.0)
    assert parse_scalar(dist.token()) == dist
    # second moment dominates squared mean
    assert dist.second_moment() >= dist.mean() ** 2 - 1e-12
    assert supported_in(dist, -1.0, 1.0)


def test_parse_vector_broadcast():
    v = parse_vector("uniform:-1,1", 3)
    assert len(v) == 3
    with pytest.raises(DistributionError):
        parse_vector("point:0 point:1", 3)


@pytest.mark.parametrize("bad", ["gauss:0,1", "uniform:1", "point:x", "beta:1", "mix:0.5*point:1"])
def test_malformed_tokens_rejected(bad):
    with pytest.raises(DistributionError):
        parse_scalar(bad)
