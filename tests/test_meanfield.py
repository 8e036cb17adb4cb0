import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opinionlab as ol
from opinionlab import meanfield
from opinionlab.distributions import Mixture, Point, ScaledBeta, Uniform, VectorDist
from opinionlab.dynamics import frame_terms
from opinionlab.meanfield import (
    build_meanfield_model, deterministic_profile, meanfield_trajectory, mixing_matrix,
    no_inbound_prob, share_mismatch, stationary_horizon, StationarySampler,
)
from opinionlab.model import ModelSpec

from conftest import random_spec
from oracles import expand_rows, vertex_mixing_matrix


def test_mixing_single_community_is_one():
    M = mixing_matrix([1.0], np.array([[1.5]]), np.array([[0.7]]))
    assert M.tolist() == [[1.0]]


def test_mixing_zero_row_for_bot_community():
    kappa = np.array([[0.0, 1.0], [0.0, 2.0]])  # nothing points into community 0
    M = mixing_matrix([0.5, 0.5], kappa, np.ones((2, 2)))
    assert np.all(M[0] == 0.0)
    assert M[1].sum() == pytest.approx(1.0)


def test_mixing_hand_case():
    M = mixing_matrix([0.5, 0.5], np.array([[2.0, 1.0], [1.0, 2.0]]), np.ones((2, 2)))
    assert np.allclose(M, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]])


def test_empirical_equals_limit_when_shares_match():
    spec = random_spec(5, K=3)
    beta = spec.weight_mean_matrix()
    assert np.allclose(
        mixing_matrix(spec.pi, spec.kappa, beta),
        mixing_matrix(spec.pi.copy(), spec.kappa, beta),
    )


def test_share_mismatch_cases():
    assert share_mismatch([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert share_mismatch([0.5, 0.5], [0.6, 0.4]) == pytest.approx(0.5)
    assert share_mismatch([0.5, 0.5], [1.0, 0.0]) == math.inf


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20)
def test_matrix_power_mismatch_bounds(seed):
    spec = random_spec(seed)
    rng = np.random.default_rng(seed)
    pi_hat = rng.dirichlet(np.ones(spec.K) * 8)
    beta = spec.weight_mean_matrix()
    M = mixing_matrix(spec.pi, spec.kappa, beta)
    Mb = mixing_matrix(pi_hat, spec.kappa, beta)
    mism = share_mismatch(spec.pi, pi_hat)
    gap = np.abs(Mb - M).sum(axis=1).max()
    assert gap <= mism + 1e-12
    P, Q = M.copy(), Mb.copy()
    for s in range(2, 5):
        P, Q = P @ M, Q @ Mb
        assert np.abs(Q - P).sum(axis=1).max() <= s * gap + 1e-10
        sums = P.sum(axis=1)
        assert np.all((np.abs(sums - 1) < 1e-10) | (np.abs(sums) < 1e-10))


def test_vertex_matrix_reduction_identity():
    # dense small-n oracle: powers act on community-constant matrices by label lookup
    rng = np.random.default_rng(3)
    labels = np.array([0, 1, 0, 1, 1, 0])
    pi_hat = np.array([0.5, 0.5])
    kappa = np.array([[2.0, 1.0], [1.0, 2.0]])
    beta = rng.uniform(0.2, 1.0, size=(2, 2))
    Mt = vertex_mixing_matrix(labels, pi_hat, kappa, beta)
    Mb = mixing_matrix(pi_hat, kappa, beta)
    X_bar = rng.uniform(-1, 1, size=(2, 3))
    X_full = expand_rows(X_bar, labels)
    P_vertex = np.eye(6)
    P_comm = np.eye(2)
    for s in range(1, 5):
        P_vertex = P_vertex @ Mt
        P_comm = P_comm @ Mb
        assert np.abs(P_vertex @ X_full - expand_rows(P_comm @ X_bar, labels)).max() < 1e-12


def test_vertex_matrix_rejects_large_n():
    with pytest.raises(ValueError):
        vertex_mixing_matrix(np.zeros(100_000, dtype=int), [1.0], np.ones((1, 1)), np.ones((1, 1)))


def test_no_inbound_prob_exact_product():
    spec = random_spec(9, K=1)
    spec.kappa = np.array([[1.0]])
    n, theta = 100, math.log(100)
    p0 = no_inbound_prob(spec, n, theta, np.array([100]))
    assert p0[0] == pytest.approx((1 - theta / n) ** 99, rel=1e-12)


def test_no_inbound_prob_saturated_and_empty():
    spec = random_spec(10, K=1)
    spec.kappa = np.array([[0.0]])
    assert no_inbound_prob(spec, 50, 5.0, np.array([50]))[0] == 1.0
    spec.kappa = np.array([[50.0]])
    assert no_inbound_prob(spec, 50, 1.0, np.array([50]))[0] == 0.0


def test_no_inbound_prob_singleton_and_empty_communities_warn_nothing():
    # a community of one vertex (exponent 0 for itself) or of none must not
    # make a -inf * 0 NaN, even in a masked-out branch
    spec = random_spec(11, K=3)
    spec.kappa = np.array([[1.0, 2.0, 0.5], [2.0, 60.0, 1.0], [0.5, 1.0, 1.0]])
    n, theta = 3, 1.5
    census = np.array([1, 2, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p0 = no_inbound_prob(spec, n, theta, census)
    for r in range(3):
        p = np.minimum(spec.kappa[:, r] * theta / n, 1.0)
        sources = census - (np.arange(3) == r)
        assert p0[r] == pytest.approx(np.prod((1 - p) ** np.maximum(sources, 0)), rel=1e-12)
    assert p0[1] == 0.0  # saturated p = 1 from community 1 onto itself


def test_signal_mean_assembly():
    z = 0.4
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[30.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(1.0)]],
        belief_dists=[VectorDist((Point(0.8),))],
        signal_dists=[VectorDist((Point(z),))],
    )
    # dense: isolation probability vanishes, only the media term remains
    model = build_meanfield_model(spec, 100, 100.0, np.array([100]))
    assert model.signal_mean[0, 0] == pytest.approx(spec.d * z)
    # empty graph: belief fallback contributes fully
    spec.kappa = np.array([[0.0]])
    model = build_meanfield_model(spec, 100, 100.0, np.array([100]))
    assert model.signal_mean[0, 0] == pytest.approx(spec.d * z + spec.c * 0.8)


def test_profile_k0_and_k1():
    spec = random_spec(12, K=2, ell=2)
    model = build_meanfield_model(spec, 200, 10.0, np.array([100, 100]))
    prof = deterministic_profile(
        model.mixing, model.signal_mean, model.initial_mean, spec.c, spec.d, 3
    )
    assert np.all(prof[0] == 0.0)
    assert np.allclose(prof[1], spec.c * model.mixing @ model.initial_mean)


def test_trajectory_k0_is_initial_row():
    spec = random_spec(13, K=2)
    model = build_meanfield_model(spec, 100, 8.0, np.array([50, 50]))
    R0 = np.full(spec.ell, 0.25)
    sig = np.zeros((4, spec.ell))
    out = meanfield_trajectory(0, sig, model.mixing, model.signal_mean,
                               model.initial_mean, R0, spec.c, spec.d, 4)
    assert np.array_equal(out[0], R0)
    # k=1 case: own signal + c * (M @ initial_mean) + decayed initial row
    expect = sig[0] + spec.c * (model.mixing @ model.initial_mean)[0] + (1 - spec.c - spec.d) * R0
    assert np.allclose(out[1], expect)


def test_trajectory_c_zero_matches_decayed_signal_sum():
    spec = random_spec(14)
    spec.c = 0.0
    model = build_meanfield_model(spec, 100, 8.0, np.bincount(
        ol.sample_labels(spec, 100, 1), minlength=spec.K))
    rng = np.random.default_rng(2)
    sig = rng.uniform(-0.4, 0.4, size=(6, spec.ell))
    R0 = rng.uniform(-1, 1, size=spec.ell)
    out = meanfield_trajectory(0, sig, model.mixing, model.signal_mean,
                               model.initial_mean, R0, spec.c, spec.d, 6)
    expect = (1 - spec.d) ** 6 * R0
    for t in range(6):
        expect = expect + (1 - spec.d) ** t * sig[6 - t - 1]
    assert np.allclose(out[6], expect)


def test_trajectory_matches_literal_double_sum():
    # independent oracle: evaluate the explicit formula term by term
    from opinionlab.dynamics import hop_weight

    for seed in range(4):
        spec = random_spec(seed + 600)
        n = 120
        labels = ol.sample_labels(spec, n, seed)
        census = np.bincount(labels, minlength=spec.K)
        model = build_meanfield_model(spec, n, 9.0, census)
        rng = np.random.default_rng(seed)
        k_max = 7
        sig = rng.uniform(-0.4, 0.4, size=(k_max, spec.ell))
        R0 = rng.uniform(-1, 1, size=spec.ell)
        r = int(rng.integers(0, spec.K))
        out = meanfield_trajectory(r, sig, model.mixing, model.signal_mean,
                                   model.initial_mean, R0, spec.c, spec.d, k_max)
        a = 1 - spec.c - spec.d
        powers = [np.eye(spec.K)]
        for _ in range(k_max):
            powers.append(model.mixing @ powers[-1])
        for k in range(1, k_max + 1):
            expect = a**k * R0
            for t in range(k):
                expect = expect + a**t * sig[k - t - 1]
            if k >= 2:
                for t in range(1, k):
                    for s in range(1, t + 1):
                        expect = expect + hop_weight(s, t, spec.c, spec.d) * (
                            powers[s] @ model.signal_mean
                        )[r]
            for s in range(1, k + 1):
                expect = expect + hop_weight(s, k, spec.c, spec.d) * (
                    powers[s] @ model.initial_mean
                )[r]
            assert np.abs(out[k] - expect).max() < 1e-12


def unrolled_profile(mixing, signal_mean, initial_mean, c, d, k_max):
    """The profile from its binomial expansion: entry k sums hop_weight(s, t)
    mixing^s signal_mean over 1 <= s <= t < k, plus hop_weight(s, k)
    mixing^s initial_mean over 1 <= s <= k."""
    from opinionlab.dynamics import hop_weight_table

    table = hop_weight_table(k_max, c, d)
    powers_W, powers_R = [signal_mean], [initial_mean]
    for _ in range(k_max):
        powers_W.append(mixing @ powers_W[-1])
        powers_R.append(mixing @ powers_R[-1])
    powers_W, powers_R = np.array(powers_W), np.array(powers_R)
    out = np.zeros((k_max + 1,) + signal_mean.shape)
    signal_sum = np.zeros(signal_mean.shape)
    for k in range(1, k_max + 1):
        out[k] = signal_sum + np.tensordot(table[k, 1:k + 1], powers_R[1:k + 1], axes=(0, 0))
        signal_sum += np.tensordot(table[k, 1:k + 1], powers_W[1:k + 1], axes=(0, 0))
    return out


PROFILE_CASES = [
    # (seed, K, ell, c, d, zero mixing row)
    *[(seed, 1 + seed % 4, 1 + seed % 3, None, None, False) for seed in range(8)],
    (20, 3, 2, 0.0, 0.4, False),     # c = 0: no network pull
    (21, 2, 3, 0.75, 0.25, False),   # c + d = 1 exactly: a = 0
    (22, 4, 1, 0.7, 0.3, False),     # c + d = 1 up to rounding: a = 5.6e-17
    (23, 3, 3, 0.4, 0.1, True),      # a community with no inbound mass
    (24, 1, 2, 0.3, 0.01, False),    # slow decay: a^250 still 0.08
]


@pytest.mark.parametrize("seed, K, ell, c, d, zero_row", PROFILE_CASES)
def test_profile_matches_hop_weight_sums(seed, K, ell, c, d, zero_row):
    # the community-mean recursion against its binomial expansion, past the
    # log-space hop weights (t > 200)
    rng = np.random.default_rng(seed)
    if c is None:
        c, d = rng.uniform(0.05, 0.5), rng.uniform(0.05, 0.45)
    mixing = rng.dirichlet(np.ones(K), size=K)
    if zero_row:
        mixing[0] = 0.0
    signal_mean = d * rng.uniform(-1, 1, size=(K, ell))
    initial_mean = rng.uniform(-1, 1, size=(K, ell))
    k_max = 250
    prof = deterministic_profile(mixing, signal_mean, initial_mean, c, d, k_max)
    assert prof.shape == (k_max + 1, K, ell)
    expect = unrolled_profile(mixing, signal_mean, initial_mean, c, d, k_max)
    assert np.abs(prof - expect).max() < 1e-12
    if zero_row:
        assert np.all(prof[:, 0] == 0.0)


def test_stationary_setup_memory_is_bounded():
    # horizon 1833: the profile holds (T + 2) K x ell entries, never a T x T table
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.01, H=1.0,
        weight_dists=[[Point(1.0)]], belief_dists=[VectorDist((Uniform(-1.0, 1.0),))],
        signal_dists=[VectorDist((Uniform(-0.5, 0.5),))],
    )
    model = build_meanfield_model(spec, 2000, 600.0, np.array([2000]))
    tracemalloc.start()
    try:
        sampler = StationarySampler(spec, model, 1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler.horizon == 1833
    assert peak < 2**20


def test_stationary_matches_time_reversed_trajectory():
    # the stationary functional is the long-horizon trajectory with the
    # signal sequence consumed in reverse order
    spec = random_spec(77, K=2)
    n = 200
    labels = ol.sample_labels(spec, n, 7)
    census = np.bincount(labels, minlength=spec.K)
    model = build_meanfield_model(spec, n, 12.0, census)
    tol = 1e-9
    sampler = StationarySampler(spec, model, tol)
    T = sampler.horizon
    rng = np.random.default_rng(5)
    for r in range(spec.K):
        q = spec.belief_dists[r].sample(rng)
        flag = rng.random() < model.no_inbound_prob[r]
        z = spec.signal_dists[r].sample(rng, size=T + 1)
        if spec.signal_belief_weight:
            z = (1 - spec.signal_belief_weight) * z + spec.signal_belief_weight * q
        W = spec.d * z + spec.c * q * flag
        decay = (1 - spec.c - spec.d) ** np.arange(T + 1)
        direct = decay @ W + sampler.det[r]
        # running the trajectory one step past the horizon on the reversed
        # signal sequence reproduces the stationary functional exactly, up
        # to the initial-mean block the stationary law drops
        traj = meanfield_trajectory(r, W[::-1], model.mixing, model.signal_mean,
                                    model.initial_mean, np.zeros(spec.ell),
                                    spec.c, spec.d, T + 1)
        from opinionlab.dynamics import hop_weight_table

        tab = hop_weight_table(T + 1, spec.c, spec.d)
        powers = np.eye(spec.K)
        init_block = np.zeros(spec.ell)
        for s in range(1, T + 2):
            powers = model.mixing @ powers
            init_block = init_block + tab[T + 1, s] * (powers @ model.initial_mean)[r]
        assert np.abs(traj[T + 1] - init_block - direct).max() < 1e-12


def test_influence_block_sums_concentrate_on_mixing_rows():
    # bridge between the sampled graph and the averaged matrix: community
    # block sums of the normalized rows concentrate on the mixing entries
    spec = random_spec(88, K=2, ell=1)
    spec.kappa = np.array([[2.0, 1.0], [1.0, 2.0]])
    n, theta, reps = 300, 60.0, 40
    labels = ol.sample_labels(spec, n, 1)
    census = np.bincount(labels, minlength=2)
    target = mixing_matrix(census / n, spec.kappa, spec.weight_mean_matrix())
    sums = np.zeros((2, 2))
    count = np.zeros((2, 1))
    for rep in range(reps):
        g = ol.sample_graph(spec, labels, theta, (1, rep))
        C = ol.normalize_weights(g).matrix.toarray()
        for r in range(2):
            rows = C[labels == r]
            for s in range(2):
                sums[r, s] += rows[:, labels == s].sum(axis=1).mean()
            count[r] += 1
    block_means = sums / count
    # bias is O(1/theta), fluctuation averaged over reps and vertices
    assert np.abs(block_means - target).max() < 0.03
    spec = random_spec(15, K=2)
    spec.pi = np.array([0.5, 0.5])
    model = build_meanfield_model(spec, 100, 8.0, np.array([50, 50]))
    rng = np.random.default_rng(4)
    sig = rng.uniform(-0.3, 0.3, size=(5, spec.ell))
    R0 = rng.uniform(-1, 1, size=spec.ell)
    mf = meanfield_trajectory(1, sig, model.mixing, model.signal_mean,
                              model.initial_mean, R0, spec.c, spec.d, 5)
    im = meanfield_trajectory(1, sig, model.mixing_emp, model.signal_mean,
                              model.initial_mean, R0, spec.c, spec.d, 5)
    assert np.allclose(mf, im)


def test_intermediate_meanfield_sup_bound():
    # deterministic bound: the shared-signal gap is at most ell*c/d^2 * mismatch
    for seed in range(10):
        spec = random_spec(seed + 300)
        n = 150
        labels = ol.sample_labels(spec, n, seed)
        census = np.bincount(labels, minlength=spec.K)
        model = build_meanfield_model(spec, n, 10.0, census)
        mism = share_mismatch(spec.pi, census / n)
        rng = np.random.default_rng(seed)
        k_max = 30
        bound = spec.ell * spec.c / spec.d**2 * mism
        for r in range(spec.K):
            sig = rng.uniform(-0.3, 0.3, size=(k_max, spec.ell))
            R0 = rng.uniform(-1, 1, size=spec.ell)
            mf = meanfield_trajectory(r, sig, model.mixing, model.signal_mean,
                                      model.initial_mean, R0, spec.c, spec.d, k_max)
            im = meanfield_trajectory(r, sig, model.mixing_emp, model.signal_mean,
                                      model.initial_mean, R0, spec.c, spec.d, k_max)
            sup = np.abs(mf - im).sum(axis=1).max()
            assert sup <= bound + 1e-12


def test_trajectory_entries_bounded():
    spec = random_spec(16)
    n = 60
    labels = ol.sample_labels(spec, n, 5)
    graph = ol.sample_graph(spec, labels, 6.0, 5)
    model = build_meanfield_model(spec, n, 6.0, np.bincount(graph.labels, minlength=spec.K))
    rng = np.random.default_rng(6)
    for r in range(spec.K):
        q = spec.belief_dists[r].sample(rng)
        flag = rng.random() < model.no_inbound_prob[r]
        z = spec.signal_dists[r].sample(rng, size=10)
        sig = spec.d * z + spec.c * q * flag
        R0 = spec.init_dists[r].sample(rng) if spec.init_dists != "beliefs" else q
        out = meanfield_trajectory(r, sig, model.mixing, model.signal_mean,
                                   model.initial_mean, R0, spec.c, spec.d, 10)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def test_stationary_horizon_formula():
    tol, c, d = 1e-10, 0.3, 0.2
    T = stationary_horizon(tol, d, 1)
    assert T == math.ceil(math.log(tol * d / 1) / math.log(1 - d))
    assert 1 * (1 - d) ** (T + 1) / d <= tol
    with pytest.raises(ValueError):
        stationary_horizon(0.0, d, 1)


def test_stationary_geometric_series_case():
    # c = 0 and a constant media draw collapse to the plain geometric series
    z = 0.5
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.0, d=0.3, H=1.0,
        weight_dists=[[Point(1.0)]], belief_dists=[VectorDist((Point(0.0),))],
        signal_dists=[VectorDist((Point(z),))],
    )
    model = build_meanfield_model(spec, 100, 50.0, np.array([100]))
    out = StationarySampler(spec, model, 1e-8).sample(0, np.random.default_rng(1), size=4)
    assert np.allclose(out, z, atol=1e-8)


def test_stationary_matches_long_simulation_deterministic():
    # constant signals: the long-run dynamics and the stationary draw agree
    w = 0.3
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[30.0]], c=0.35, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.3, 1.0)]], belief_dists=[VectorDist((Point(0.0),))],
        signal_dists=[VectorDist((Point(w),))],
    )
    n = 150
    labels = ol.sample_labels(spec, n, 2)
    graph = ol.sample_graph(spec, labels, 60.0, 2)
    C = ol.normalize_weights(graph)
    _, state = ol.simulate(spec, graph, C, 200, 2)
    model = build_meanfield_model(spec, n, 60.0, np.bincount(graph.labels, minlength=spec.K))
    draw = StationarySampler(spec, model, 1e-10).sample(0, np.random.default_rng(3))
    assert np.abs(state.R - draw).max() < 1e-6


def test_stationary_samples_bounded_and_seeded():
    spec = random_spec(17)
    model = build_meanfield_model(spec, 200, 12.0, np.bincount(
        ol.sample_labels(spec, 200, 3), minlength=spec.K))
    sampler = StationarySampler(spec, model, 1e-6)
    a = sampler.sample(0, np.random.default_rng(9), size=50)
    b = sampler.sample(0, np.random.default_rng(9), size=50)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0 + 1e-9)


SIGNAL_LAWS = {
    "uniform": lambda r, j: Uniform(-0.4 + 0.1 * r, 0.2 + 0.1 * j),
    "beta": lambda r, j: ScaledBeta(1.5 + j, 2.0 + r, -0.5, 0.5),
    "point": lambda r, j: Point(0.1 * (j - r)),
    "mix": lambda r, j: Mixture((0.3, 0.5, 0.2), (Point(0.1 * (j - r)), Uniform(-0.4, 0.2 + 0.1 * j),
                                                  ScaledBeta(1.5 + j, 2.0 + r, -0.5, 0.5))),
}


def law_spec(law):
    """K = 2, ell = 3, signal_belief_weight = 0.25, one signal law family."""
    return ModelSpec(
        K=2, ell=3, pi=[0.4, 0.6], kappa=[[2.0, 0.5], [1.0, 1.5]], c=0.3, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.2, 1.0), Point(0.5)], [Point(0.7), Uniform(0.1, 0.9)]],
        belief_dists=[VectorDist((Uniform(-1.0, 1.0), Point(0.3), Uniform(-0.5, 0.5)))] * 2,
        signal_dists=[VectorDist(tuple(SIGNAL_LAWS[law](r, j) for j in range(3))) for r in range(2)],
        signal_belief_weight=0.25,
    )


def law_sampler(law, theta=12.0, tol=1e-6):
    spec = law_spec(law)
    return StationarySampler(spec, build_meanfield_model(spec, 100, theta, np.array([40, 60])), tol)


@pytest.mark.parametrize("law", sorted(SIGNAL_LAWS))
def test_stationary_stream_is_one_frame_per_step(law):
    # a call draws the beliefs, then the flags, then horizon + 1 frames,
    # each the community's law once for all draws with the topics in
    # order; the last frame gets decay a^0
    sampler = law_sampler(law)
    spec, T = sampler.spec, sampler.horizon
    a, w = 1.0 - spec.c - spec.d, spec.signal_belief_weight
    size = 401
    for r in range(2):
        ref_rng = np.random.default_rng(11)
        q = spec.belief_dists[r].sample(ref_rng, size=size)
        flag = ref_rng.random(size) < sampler.model.no_inbound_prob[r]
        frames = np.stack([spec.signal_dists[r].sample(ref_rng, size=size) for _ in range(T + 1)])
        W = spec.d * ((1.0 - w) * frames + w * q) + spec.c * q * flag[:, None]
        ref = np.tensordot(a ** np.arange(T, -1, -1), W, axes=(0, 0)) + sampler.det[r]
        rng = np.random.default_rng(11)
        out = sampler.sample(r, rng, size=size)
        assert np.allclose(out, ref, rtol=0.0, atol=1e-14), (law, r)
        assert rng.random() == ref_rng.random(), (law, r)


def test_limit_frame_is_the_graph_frame():
    # one community: the limit frame of the graph's own beliefs and flags
    # is the graph frame, byte for byte, from the same generator state
    spec = ModelSpec(
        K=1, ell=3, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.2, 1.0)]],
        belief_dists=[VectorDist((Uniform(-1.0, 1.0), Point(0.3), Uniform(-0.5, 0.5)))],
        signal_dists=[VectorDist(tuple(SIGNAL_LAWS["mix"](0, j) for j in range(3)))],
        signal_belief_weight=0.25,
    )
    graph = ol.sample_graph(spec, ol.sample_labels(spec, 200, 1), 2.0, 1)
    assert graph.no_inbound.any() and not graph.no_inbound.all()
    graph_W = ol.sample_signal_frame(spec, graph, np.random.default_rng(8)).W
    terms = frame_terms(spec, graph.beliefs, graph.no_inbound)
    limit_W = meanfield.limit_frame(spec, 0, terms, np.random.default_rng(8))
    assert graph_W.tobytes() == limit_W.tobytes()


@pytest.mark.parametrize("law", sorted(SIGNAL_LAWS))
def test_stationary_draws_match_closed_form_moments(law):
    # X = det + sum_{t<=T} a^t W_t with W_t = d(1-w) z_t + q (dw + c flag):
    # E X = det + S1 (d((1-w) Ez + w Eq) + c p0 Eq) and
    # Var X = d^2 (1-w)^2 Var z S2 + S1^2 Var(q (dw + c flag))
    sampler = law_sampler(law, theta=2.0, tol=1e-3)
    spec, T = sampler.spec, sampler.horizon
    c, d, w = spec.c, spec.d, spec.signal_belief_weight
    powers = (1.0 - c - d) ** np.arange(T + 1)
    S1, S2 = powers.sum(), (powers**2).sum()
    size = 20000
    for r in range(2):
        p0 = sampler.model.no_inbound_prob[r]
        assert p0 > 0.01
        Ez, Ez2 = spec.signal_dists[r].mean(), spec.signal_dists[r].second_moment()
        Eq, Eq2 = spec.belief_dists[r].mean(), spec.belief_dists[r].second_moment()
        mean = sampler.det[r] + S1 * (d * ((1.0 - w) * Ez + w * Eq) + c * p0 * Eq)
        coef2 = (d * w) ** 2 + 2.0 * d * w * c * p0 + c**2 * p0
        var_q = Eq2 * coef2 - (Eq * (d * w + c * p0)) ** 2
        var = d**2 * (1.0 - w) ** 2 * (Ez2 - Ez**2) * S2 + S1**2 * var_q
        X = sampler.sample(r, np.random.default_rng(31 + r), size=size)
        dev = X - X.mean(axis=0)
        sample_var = (dev**2).mean(axis=0)
        var_se = np.sqrt(np.maximum((dev**4).mean(axis=0) - sample_var**2, 0.0) / size)
        assert np.all(np.abs(X.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / size) + 1e-12), (law, r)
        assert np.all(np.abs(sample_var - var) <= 4.0 * var_se + 1e-12), (law, r)


def test_streamed_stationary_memory_is_bounded():
    spec = ModelSpec(
        K=1, ell=4, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.1, H=1.0,
        weight_dists=[[Point(1.0)]], belief_dists=[VectorDist((Uniform(-1.0, 1.0),) * 4)],
        signal_dists=[VectorDist((Uniform(-0.5, 0.5),) * 4)],
    )
    sampler = StationarySampler(spec, build_meanfield_model(spec, 2000, 600.0, np.array([2000])), 1e-6)
    assert sampler.horizon == 167
    tracemalloc.start()
    try:
        sampler.sample(0, np.random.default_rng(1), size=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole signal tensor would be 20000 * 168 * 4 * 8 B = 107.5 MB
    assert peak < 32 * 2**20


def test_regime_stats_point_mass_weights():
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[2.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(1.0)]], belief_dists=[VectorDist((Point(0.0),))],
        signal_dists=[VectorDist((Point(0.0),))],
    )
    stats = ol.regime_stats(spec, np.array([1.0]), 1000, 50.0)
    assert stats.mu[0] == pytest.approx(2.0)
    assert stats.nu[0] == pytest.approx(2.0)
    assert stats.delta == pytest.approx(1 / 2.0)
    assert stats.lam == pytest.approx(1.0)
    assert stats.share_mismatch == 0.0
    # theta >= (6 H Lambda)^2 Delta log n = 36 * 0.5 * log(1000) = 124.3
    assert not stats.dense_ok
    assert ol.regime_stats(spec, np.array([1.0]), 1000, 130.0).dense_ok


def test_regime_stats_hand_mismatch():
    spec = random_spec(18, K=2)
    spec.pi = np.array([0.5, 0.5])
    stats = ol.regime_stats(spec, np.array([0.6, 0.4]), 500, 10.0)
    assert stats.share_mismatch == pytest.approx(0.5)


def test_regime_stats_all_zero_rows_absent():
    spec = random_spec(19, K=2)
    spec.kappa = np.zeros((2, 2))
    stats = ol.regime_stats(spec, spec.pi, 100, 5.0)
    assert stats.delta is None and stats.lam is None
    assert not stats.dense_ok


def test_edge_prob_clipping_flagged():
    spec = random_spec(20, K=1)
    spec.kappa = np.array([[3.0]])
    assert ol.regime_stats(spec, np.array([1.0]), 100, 50.0).edge_prob_clipped
    assert not ol.regime_stats(spec, np.array([1.0]), 100, 20.0).edge_prob_clipped
