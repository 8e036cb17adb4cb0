import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import opinionlab

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
     "mix:0.2*point:0.1+0.5*uniform:-1,0.5+0.3*beta:2,3,-1,1"],
)
def test_draws_do_not_depend_on_call_size(token):
    # the stream contract: sample(rng, n + m) is sample(rng, n) then sample(rng, m)
    dist = parse_scalar(token)
    whole = dist.sample(np.random.default_rng(5), size=1000)
    rng = np.random.default_rng(5)
    parts = np.concatenate([dist.sample(rng, size=300), dist.sample(rng, size=700)])
    assert whole.tobytes() == parts.tobytes()
    one = dist.sample(np.random.default_rng(5))
    assert type(one) is float and one == whole[0]


def test_mixture_maps_each_uniform_through_its_component():
    # u < 0.25 picks the point, the empty interval of weight 0 is never hit, and
    # u >= 0.25 is rescaled into the uniform's quantile
    d = Mixture((0.25, 0.0, 0.75), (Point(2.0), Point(9.0), Uniform(-1.0, 1.0)))
    u = np.random.default_rng(6).random(10_000)
    want = np.where(u < 0.25, 2.0, -1.0 + 2.0 * (u - 0.25) / 0.75)
    assert np.allclose(d.sample(np.random.default_rng(6), size=10_000), want, rtol=0, atol=1e-12)
    beta = ScaledBeta(2.0, 3.0, -1.0, 1.0)
    assert beta.quantile(0.5) == pytest.approx(float(np.median(
        beta.sample(np.random.default_rng(0), size=200_000))), abs=0.01)


def test_import_leaves_scipy_special_unloaded():
    # betaincinv is imported on first use: loading scipy.special (and with it scipy's
    # array-API layer) would cost every run about 0.15 s and 16 MB of RSS
    code = "import sys, opinionlab; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(opinionlab.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "token, expected",
    [
        ("point:0.5", Point(0.5)),
        ("uniform:-1,1", Uniform(-1.0, 1.0)),
        ("beta:2,3", ScaledBeta(2.0, 3.0, 0.0, 1.0)),
        ("beta:2,3,-1,1", ScaledBeta(2.0, 3.0, -1.0, 1.0)),
        ("mix:0.25*point:1+0.75*uniform:0,1", Mixture((0.25, 0.75), (Point(1.0), Uniform(0.0, 1.0)))),
    ],
)
def test_token_parses(token, expected):
    assert parse_scalar(token) == expected


@given(st.integers(min_value=0, max_value=10_000))
def test_random_dists_moment_consistency(seed):
    rng = np.random.default_rng(seed)
    dist = random_scalar_dist(rng, -1.0, 1.0)
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
