"""Averaged matrices and the explicit mean-field opinion process.

The K x K mixing matrix row-normalizes expected listening weight by
source community,

    mixing[r, s] = shares[s] * beta[r, s] * kappa[s, r] / (row total),

built either from the limit shares or from the realized empirical
shares.  The per-vertex n x n averaged matrix is never materialized:
multiplying it into a community-constant matrix equals looking up the
corresponding K x K product row by label, so everything here works at
K x K size.

The mean-field trajectory of a vertex combines its own decayed signal
stream with deterministic community terms.  Those terms come from the
community means, which run the opinion recursion with the mixing
matrix in place of C, so both are short recursions: ExplicitProcess
per vertex, deterministic_profile per community.

Limit-side draws (chaos limit trajectories, the stationary sampler) run
that process on graph-free vertices.  A call draws all beliefs, then
the no-inbound flags, then any initial opinions not taken from the
beliefs, then one signal frame per step with the topics in order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ExplicitProcess, assemble_frame, frame_terms


def _listening_mass(moment, shares, kappa):
    """Expected listening mass by (listener r, source s):
    ``shares[s] * moment[r, s] * kappa[s, r]``."""
    return np.asarray(shares, dtype=float) * moment * np.asarray(kappa).T


def mixing_matrix(shares, kappa, beta):
    """Row-normalized expected-influence matrix; rows with zero total
    stay identically zero (legal: communities with no inbound mass)."""
    raw = _listening_mass(beta, shares, kappa)
    totals = raw.sum(axis=1)
    out = np.zeros_like(raw)
    pos = totals > 0.0
    out[pos] = raw[pos] / totals[pos, None]
    return out


def share_mismatch(pi, pi_hat):
    """Worst relative cross-moment gap between limit and realized shares."""
    pi = np.asarray(pi, dtype=float)
    pi_hat = np.asarray(pi_hat, dtype=float)
    num = np.abs(np.outer(pi, pi_hat) - np.outer(pi_hat, pi))  # [r, s]
    den = np.outer(pi_hat, pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0, num / den, np.where(num > 0, np.inf, 0.0))
    return float(ratio.max())


def no_inbound_prob(spec, n, theta, census):
    """Exact probability that a community-r vertex has no in-edges,
    given the label census (finite-n product, not the Poisson limit)."""
    census = np.asarray(census)
    out = np.empty(spec.K)
    for r in range(spec.K):
        p = np.minimum(spec.kappa[:, r] * theta / n, 1.0)
        exponents = census.astype(float).copy()
        exponents[r] = max(exponents[r] - 1.0, 0.0)  # no self-loops
        # only communities holding possible sources enter: a zero count times
        # log1p(-1) = -inf would be NaN
        live = exponents > 0
        log_terms = np.zeros(spec.K)
        with np.errstate(divide="ignore"):
            log_terms[live] = np.log1p(-p[live]) * exponents[live]
        out[r] = math.exp(float(np.sum(log_terms)))
    return out


@dataclass
class MeanFieldModel:
    """Everything the explicit approximation needs, at K x K size."""

    mixing: np.ndarray          # limit-share matrix
    mixing_emp: np.ndarray      # empirical-share matrix
    signal_mean: np.ndarray     # K x ell, E[external signal | community]
    initial_mean: np.ndarray    # K x ell, E[initial opinion | community]
    no_inbound_prob: np.ndarray  # K,


def build_meanfield_model(spec, n, theta, census):
    beta = spec.weight_mean_matrix()
    pi_hat = np.asarray(census, dtype=float) / n
    M = mixing_matrix(spec.pi, spec.kappa, beta)
    M_emp = mixing_matrix(pi_hat, spec.kappa, beta)
    p0 = no_inbound_prob(spec, n, theta, census)
    W_bar = spec.d * spec.signal_mean_matrix() + spec.c * spec.belief_mean_matrix() * p0[:, None]
    R_bar = spec.init_mean_matrix()
    return MeanFieldModel(
        mixing=M, mixing_emp=M_emp, signal_mean=W_bar, initial_mean=R_bar,
        no_inbound_prob=p0,
    )


def deterministic_profile(mixing, signal_mean, initial_mean, c, d, k_max):
    """Community-level deterministic terms of the trajectory, (k_max+1, K, ell).

    The community means follow the opinion recursion with the mixing
    matrix in place of C: m_0 = initial_mean and, with a = 1-c-d,
    m_k = a * m_{k-1} + c * mixing @ m_{k-1} + signal_mean.  Entry k is
    m_k minus a vertex's own part a^k * initial_mean + sum_j a^(k-j) *
    signal_mean, so det_0 = 0 and det_k = a * det_{k-1} + c * mixing @ m_{k-1}.
    """
    a = 1.0 - c - d
    mean = np.array(initial_mean, dtype=float)
    det = np.zeros((k_max + 1,) + mean.shape)
    for k in range(1, k_max + 1):
        pull = c * (mixing @ mean)
        det[k] = a * det[k - 1] + pull
        mean = a * mean + pull + signal_mean
    return det


def meanfield_trajectory(community, signal_draws, mixing, signal_mean, initial_mean,
                         initial_row, c, d, k_max, profile=None):
    """Trajectory of one vertex under the explicit approximation.

    signal_draws holds the vertex's own external signals for steps
    1..k_max (shared with the coupled graph run when coupling is on).
    Passing the empirical-share matrix as `mixing` yields the
    intermediate (finite-n) construction instead.
    """
    signal_draws = np.asarray(signal_draws, dtype=float)
    initial_row = np.asarray(initial_row, dtype=float)
    if signal_draws.shape[0] < k_max:
        raise ValueError(f"need {k_max} signal rows, got {signal_draws.shape[0]}")
    if profile is None:
        profile = deterministic_profile(mixing, signal_mean, initial_mean, c, d, k_max)
    process = ExplicitProcess(initial_row, c, d)
    steps = [process.advance(signal_draws[k - 1], profile[k, community]) for k in range(1, k_max + 1)]
    return np.array([initial_row] + steps)


@dataclass
class RegimeStats:
    """Edge-density regime functionals for one (n, theta) point."""

    mu: np.ndarray
    nu: np.ndarray
    delta: float | None
    lam: float | None
    share_mismatch: float
    dense_ok: bool
    edge_prob_clipped: bool
    nonzero_rows: np.ndarray


def regime_stats(spec, pi_hat, n, theta):
    beta = spec.weight_mean_matrix()
    v = spec.weight_second_moment_matrix()
    pi_hat = np.asarray(pi_hat, dtype=float)
    mu = _listening_mass(beta, pi_hat, spec.kappa).sum(axis=1)
    nu = _listening_mass(v, pi_hat, spec.kappa).sum(axis=1)
    limit_totals = _listening_mass(beta, spec.pi, spec.kappa).sum(axis=1)
    nonzero = limit_totals > 0.0
    mismatch = share_mismatch(spec.pi, pi_hat)
    if not nonzero.any():
        delta = lam = None
        dense_ok = False
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = float(np.max(np.where(mu[nonzero] > 0, nu[nonzero] / mu[nonzero] ** 2, np.inf)))
            lam = float(np.max(np.where(nu[nonzero] > 0, mu[nonzero] / nu[nonzero], np.inf)))
        dense_ok = bool(
            np.isfinite(delta) and np.isfinite(lam)
            and theta >= (6.0 * spec.H * lam) ** 2 * delta * math.log(max(n, 2))
        )
    clipped = bool(np.max(spec.kappa) * theta / n > 1.0)
    return RegimeStats(
        mu=mu, nu=nu, delta=delta, lam=lam, share_mismatch=mismatch,
        dense_ok=dense_ok, edge_prob_clipped=clipped, nonzero_rows=nonzero,
    )


def stationary_horizon(tol, d, ell):
    """Smallest truncation depth whose discarded geometric tail is
    below tol in sup norm (tail <= ell * (1-d)^(T+1) / d)."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if d >= 1.0:
        return 0
    return max(int(math.ceil(math.log(tol * d / ell) / math.log(1.0 - d))), 0)


class StationarySampler:
    """Draws from the truncated stationary opinion law of one community.

    A draw is the explicit process started from zero and run one step
    past the horizon, plus the signal-only community term (the profile
    run from a zero initial mean, at that step); only its last state is
    read.  The horizon comes from the explicit geometric tail bound,
    never a fixed constant.  sample() draws the beliefs, then the no-inbound flags,
    then one signal frame per step with the topics in order, so its
    working memory is a few (size, ell) arrays whatever the horizon.
    """

    def __init__(self, spec, model, tol):
        self.spec = spec
        self.model = model
        self.tol = float(tol)
        self.horizon = T = stationary_horizon(tol, spec.d, spec.ell)
        # signal-only deterministic part: the community means run from zero
        no_init = np.zeros_like(model.signal_mean)
        self.det = deterministic_profile(model.mixing, model.signal_mean, no_init,
                                         spec.c, spec.d, T + 1)[T + 1]

    def sample(self, community, rng, size=1):
        spec = self.spec
        terms = frame_terms(spec, *limit_attributes(spec, self.model, community, rng, size))
        process = ExplicitProcess(np.zeros((size, spec.ell)), spec.c, spec.d)
        for _ in range(self.horizon + 1):
            process.update(limit_frame(spec, community, terms, rng))
        return process.read(self.det[community])


def limit_attributes(spec, model, community, rng, size):
    """Belief vectors, then no-inbound flags, of size limit-side vertices."""
    q = spec.belief_dists[community].sample(rng, size=size)
    flag = rng.random(size) < model.no_inbound_prob[community]
    return q, flag


def limit_frame(spec, community, terms, rng):
    """One step's frame of limit-side vertices with the given
    frame_terms: the community's signal law drawn once for all."""
    Z = spec.signal_dists[community].sample(rng, size=len(terms[1]))
    return assemble_frame(spec, Z, terms)
