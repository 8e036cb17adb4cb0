"""Error norms, chaos statistics and concentration checks.

Every graph experiment is label_point (one label draw, held fixed),
then parallel_map over run_graph replicas, which estimates
label-conditional expectations, then mean_se over the stacked replica
results.  The error kind's outer loop over label draws probes the
remaining convergence-in-probability layer.

The chaos and stationarity experiments compare a graph estimate with a
limit estimate, and _compare_row builds every such row: product
moments of vertex sets and pooled pairs, community empirical-measure
functionals (single-factor rows scaled by the community's share), and
stationary moments.  Each row holds graph_estimate, graph_se,
limit_estimate, limit_se (first order), gap and combined_se.

Coupling is always on: the graph run and its explicit approximation
consume the identical per-vertex signal frames and initial opinions.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import rng as rngmod
from .rng import substream
from .graph import sample_labels
from .dynamics import ExplicitProcess, frame_terms, run_graph
from .meanfield import (
    StationarySampler, build_meanfield_model, deterministic_profile, limit_attributes,
    limit_frame, regime_stats,
)
from .parallel import parallel_map


# ---------------------------------------------------------------------------
# shared pieces: one label draw, one standard-error estimator


def label_point(spec, n, theta, seed, k_max=None):
    """One grid point's label draw: (labels, census, model, profile),
    the profile running to step k_max, or None when k_max is not given."""
    labels = sample_labels(spec, n, seed)
    census = np.bincount(labels, minlength=spec.K)
    model = build_meanfield_model(spec, n, theta, census)
    profile = None if k_max is None else deterministic_profile(
        model.mixing, model.signal_mean, model.initial_mean, spec.c, spec.d, k_max)
    return labels, census, model, profile


def mean_se(samples):
    """Mean over axis 0 (one entry per replica) and its standard error,
    std(ddof=1) / sqrt(reps); the error is zero for a single replica."""
    samples = np.asarray(samples, dtype=float)
    reps = samples.shape[0]
    se = samples.std(axis=0, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(samples.shape[1:])
    return samples.mean(axis=0), se


def burn_in_steps(d, frac=0.01):
    """Steps until the memory of the initial condition is below frac."""
    if d >= 1.0:
        return 1
    return max(int(math.ceil(math.log(frac) / math.log(1.0 - d))), 1)


def check_burned_in(d, k_long, tol):
    """Raise ValueError unless k_long steps burn in to tol: the memory
    (1-d)^k_long of the initial condition must be below it."""
    memory = (1.0 - d) ** k_long
    if memory >= tol:
        raise ValueError(f"{k_long} steps do not burn in to burn_tol={tol}: "
                         f"(1-d)^k = {memory:.3g}")


# ---------------------------------------------------------------------------
# coupled graph / approximation runs


def coupled_gap_run(spec, labels, theta, k_max, seed, profile, census):
    """One inner replication of the coupled pair of processes.

    Returns (inf_norms, community_gaps): the per-step sup-norm gap, and
    the per-step community averages of the l1 row gaps between the graph
    process and the explicit approximation built from the same signal
    frames.  Vertices sharing a label are exchangeable given the labels,
    so the community average is an unbiased estimate of any single
    vertex's expected row gap (hence of the max over vertices), without
    the upward bias of maxing noisy per-vertex means.
    """
    labels = np.asarray(labels)
    inf_norms = np.zeros(k_max + 1)
    community_gaps = np.zeros((k_max + 1, spec.K))
    denom = np.maximum(census, 1)
    explicit = None

    def observe(state, frame):
        nonlocal explicit
        if frame is None:
            explicit = ExplicitProcess(state.R, spec.c, spec.d)
            return
        approx = explicit.advance(frame.W, profile[state.k, labels])
        gap = np.abs(state.R - approx).sum(axis=1)
        community_gaps[state.k] = np.bincount(labels, weights=gap, minlength=spec.K) / denom
        inf_norms[state.k] = gap.max()

    run_graph(spec, labels, theta, k_max, seed, observe)
    return inf_norms, community_gaps


@dataclass
class ErrorPoint:
    """Estimates for one (n, theta, outer label draw) grid point."""

    n: int
    theta: float
    outer: int
    reps: int
    k_max: int
    inf_estimate: np.ndarray      # per step
    inf_se: np.ndarray
    row_estimate: np.ndarray      # per step, max over vertices of mean row gap
    row_se: np.ndarray            # se at the maximizing vertex
    sup_inf: float
    sup_inf_se: float
    sup_row: float
    sup_row_se: float
    dense_ok: bool
    edge_prob_clipped: bool
    share_mismatch: float


@dataclass
class ErrorCurve:
    k_max: int
    points: list

    def by_n(self):
        """The points of each n reduced over their outer label draws.

        Keyed by n: theta, the total replications, dense_ok on every
        draw, per-step (estimate, stderr) lists under "inf" and
        "row_l1", and the sup estimates sup_inf, sup_row with their
        stderrs.  An estimate is the mean over draws and its stderr the
        root mean square of theirs over sqrt(draws)."""
        groups = {}
        for pt in self.points:
            groups.setdefault(pt.n, []).append(pt)
        out = {}
        for n, pts in groups.items():
            row = {
                "theta": pts[0].theta,
                "reps": sum(p.reps for p in pts),
                "dense_ok": all(p.dense_ok for p in pts),
                "inf": [_outer_mean([p.inf_estimate[k] for p in pts], [p.inf_se[k] for p in pts])
                        for k in range(self.k_max + 1)],
                "row_l1": [_outer_mean([p.row_estimate[k] for p in pts], [p.row_se[k] for p in pts])
                           for k in range(self.k_max + 1)],
            }
            for key in ("sup_inf", "sup_row"):
                row[key], row[key + "_se"] = _outer_mean(
                    [getattr(p, key) for p in pts], [getattr(p, key + "_se") for p in pts])
            out[n] = row
        return out


def _outer_mean(estimates, ses):
    """Mean of per-draw estimates and its stderr from the draws' own."""
    return (float(np.mean(estimates)),
            float(np.sqrt(np.mean([se**2 for se in ses]) / len(ses))))


def error_experiment(spec, n_list, theta_rule, k_max, inner, outer, seed, threads=1):
    """Monte Carlo estimates of both approximation norms on an
    (n, theta) grid, theta = theta_rule(n), with the deterministic
    truncation at k_max reported through the returned curve rather than
    hidden."""
    inner_counts = list(inner) if isinstance(inner, (list, tuple, np.ndarray)) else [inner] * len(n_list)
    if any(int(r) < 1 for r in inner_counts):
        raise ValueError("replication budget must be at least 1")
    steps = np.arange(k_max + 1)
    points = []
    for point_idx, n in enumerate(n_list):
        theta = float(theta_rule(n))
        reps = int(inner_counts[point_idx])
        for o in range(outer):
            labels, census, _, profile = label_point(spec, n, theta, (seed, point_idx, o), k_max)
            stats = regime_stats(spec, census / n, n, theta)

            def unit(i):
                return coupled_gap_run(spec, labels, theta, k_max, (seed, point_idx, o, i),
                                       profile, census=census)

            results = parallel_map(unit, range(reps), threads=threads)
            inf_mean, inf_se = mean_se([inf_norms for inf_norms, _ in results])
            row_mean, row_se_all = mean_se([gaps for _, gaps in results])
            row_arg = row_mean.argmax(axis=1)
            row_est = row_mean[steps, row_arg]
            row_se = row_se_all[steps, row_arg]
            k_inf = int(inf_mean.argmax())
            k_row = int(row_est.argmax())
            points.append(
                ErrorPoint(
                    n=n, theta=theta, outer=o, reps=reps, k_max=k_max,
                    inf_estimate=inf_mean, inf_se=inf_se,
                    row_estimate=row_est, row_se=row_se,
                    sup_inf=float(inf_mean[k_inf]), sup_inf_se=float(inf_se[k_inf]),
                    sup_row=float(row_est[k_row]), sup_row_se=float(row_se[k_row]),
                    dense_ok=stats.dense_ok, edge_prob_clipped=stats.edge_prob_clipped,
                    share_mismatch=stats.share_mismatch,
                )
            )
    return ErrorCurve(k_max=k_max, points=points)


# ---------------------------------------------------------------------------
# bounded test functions on trajectory matrices


@dataclass(frozen=True)
class TestFunction:
    fid: str
    _fn: object

    def __call__(self, V):
        """V has shape (..., ell, k+1): column j is the opinion at time j."""
        return self._fn(np.asarray(V, dtype=float))


def parse_function(fid, ell, k):
    """Built-in family: coordinate projections, products of coordinates,
    clipped monomials, and the constant one."""
    parts = fid.split(":")
    kind = parts[0]
    try:
        args = [int(tok) for tok in parts[1].split(",")] if len(parts) > 1 else []
    except ValueError:
        raise ValueError(f"malformed test function id {fid!r}") from None
    def check(topic, time):
        if not (0 <= topic < ell and 0 <= time <= k):
            raise ValueError(f"function {fid!r} indexes outside ell={ell}, k={k}")
    if kind == "proj" and len(args) == 2:
        topic, time = args
        check(topic, time)
        return TestFunction(fid, lambda V: V[..., topic, time])
    if kind == "prod" and len(args) == 4:
        t1, m1, t2, m2 = args
        check(t1, m1)
        check(t2, m2)
        return TestFunction(fid, lambda V: V[..., t1, m1] * V[..., t2, m2])
    if kind == "poly" and len(args) == 3:
        topic, time, degree = args
        check(topic, time)
        if degree < 1:
            raise ValueError(f"function {fid!r} needs degree >= 1")
        return TestFunction(fid, lambda V: np.clip(V[..., topic, time] ** degree, -1.0, 1.0))
    if kind == "one":
        return TestFunction(fid, lambda V: np.ones(V.shape[:-2]))
    raise ValueError(f"unknown test function id {fid!r}")


def limit_trajectory_draws(spec, model, profile, community, k, reps, rng):
    """Replicas of the explicit limit trajectory for one community,
    shaped (reps, ell, k+1), every step recorded."""
    q, flag = limit_attributes(spec, model, community, rng, reps)
    R0 = q if spec.init_dists == "beliefs" else spec.init_dists[community].sample(rng, size=reps)
    terms = frame_terms(spec, q, flag)
    process = ExplicitProcess(R0, spec.c, spec.d)
    steps = [process.advance(limit_frame(spec, community, terms, rng), profile[m, community])
             for m in range(1, k + 1)]
    return np.stack([R0] + steps, axis=2)


def _compare_row(graph_samples, limit_factors, limit_scale=1.0):
    """One graph-versus-limit row: the graph estimate of a moment against
    limit_scale times the product of the limit factor means.  The limit
    stderr is first order: each factor's stderr times the product of the
    other factors' means, added in quadrature, times limit_scale."""
    graph_est, graph_se = map(float, mean_se(graph_samples))
    means, ses = zip(*(mean_se(samples) for samples in limit_factors))
    var = 0.0
    for j, s_j in enumerate(ses):
        partial = np.prod([m for jj, m in enumerate(means) if jj != j])
        var += (partial * s_j) ** 2
    limit_est = float(limit_scale * np.prod(means))
    limit_se = float(limit_scale * math.sqrt(var))
    return {"graph_estimate": graph_est, "graph_se": graph_se,
            "limit_estimate": limit_est, "limit_se": limit_se,
            "gap": abs(graph_est - limit_est),
            "combined_se": math.sqrt(graph_se**2 + limit_se**2)}


def chaos_experiment(spec, n, theta, k, vertex_sets, set_functions, inner, seed,
                     measure_functions=(), limit_reps=4000, threads=1,
                     pooled_pairs=(), pooled_functions=()):
    """Estimate both sides of the trajectory factorization for vertex
    sets, and the per-community empirical-measure functionals; returns
    the row dicts: product rows per vertex set and pooled pair, then
    measure rows.

    Every row is a pool: equal-length vertex columns, one per factor,
    whose sample is the mean over the pool's rows of the product of the
    factors.  A fixed vertex set is a pool of one row.  pooled_pairs
    lists community pairs (r1, r2); each pools disjoint fixed
    (community-r1, community-r2) vertex pairs.  Vertices sharing a label
    are exchangeable given the labels, so every such pair has the same
    joint moment and the pooled average estimates the identical quantity
    with far less Monte Carlo noise.  A measure function gives one
    single-factor row per community r, pooled over all of r's vertices:
    its graph sample is scaled by r's empirical share (0.0 when r has no
    vertices) and its limit by pi[r].
    """
    labels, _, model, profile = label_point(spec, n, theta, (seed, 0), max(k, 1))
    if len(vertex_sets) != len(set_functions) or any(
            len(vs) != len(fids) for vs, fids in zip(vertex_sets, set_functions)):
        raise ValueError("each vertex set needs one test function per vertex")

    def funcs(fids):
        return [parse_function(fid, spec.ell, k) for fid in fids]

    pools = []  # (row fields, vertex columns, functions, graph scale, limit scale)

    def pool(statistic, vertices, comms, cols, fs, graph_scale=1.0, limit_scale=1.0):
        fields = {"statistic": statistic, "vertices": vertices, "communities": comms,
                  "functions": tuple(f.fid for f in fs)}
        pools.append((fields, cols, fs, graph_scale, limit_scale))

    for vs, fids in zip(vertex_sets, set_functions):
        pool("product", tuple(int(v) for v in vs), tuple(int(labels[v]) for v in vs),
             [np.array([v], dtype=np.int64) for v in vs], funcs(fids))
    for (r1, r2), fids in zip(pooled_pairs, pooled_functions):
        left = np.flatnonzero(labels == r1)
        right = np.flatnonzero(labels == r2)
        m = min(left.size, right.size)
        if m == 0:
            raise ValueError(f"no vertices available for community pair ({r1}, {r2})")
        pool("product", "pooled", (int(r1), int(r2)), [left[:m], right[:m]], funcs(fids))
    members = [np.flatnonzero(labels == r) for r in range(spec.K)]
    for f in funcs(measure_functions):
        for r in range(spec.K):
            pool("measure", (), (r,), [members[r]], [f], members[r].size / n, spec.pi[r])

    def unit(i):
        traj = np.empty((n, spec.ell, k + 1))

        def observe(state, frame):
            traj[:, :, state.k] = state.R

        run_graph(spec, labels, theta, k, (seed, 0, i), observe)
        return [float(np.mean(reduce(np.multiply, [f(traj[col]) for col, f in zip(cols, fs)])))
                * scale if cols[0].size else 0.0  # 0.0: a community without vertices
                for _, cols, fs, scale, _ in pools]

    samples = np.array(parallel_map(unit, range(inner), threads=threads))  # (inner, rows)

    # limit side per community
    limit_rng = substream(seed, rngmod.STATIONARY, 1)
    limit_draws = [limit_trajectory_draws(spec, model, profile, r, k, limit_reps, limit_rng)
                   for r in range(spec.K)]
    return [{**fields, **_compare_row(
                samples[:, idx], [f(limit_draws[r]) for r, f in zip(fields["communities"], fs)],
                limit_scale)}
            for idx, (fields, _, fs, _, limit_scale) in enumerate(pools)]


# ---------------------------------------------------------------------------
# stationarity / limit exchange


def stationarity_experiment(spec, n, theta, k_long, inner, tol, seed,
                            stationary_reps=20000, threads=1):
    """Compare long-run per-community moments of the graph process with
    Monte Carlo moments of the truncated stationary law; returns the row
    dicts per (community, topic, moment) and the sampler's horizon.

    tol gates the burn-in ((1-d)^k_long must be below it); the stationary
    sampler truncates at the tighter tol / 100 so its truncation bias is
    negligible next to the burn-in one.  A community without vertices
    has no moments to compare and raises ValueError before any replica.
    """
    check_burned_in(spec.d, k_long, tol)
    labels, census, model, _ = label_point(spec, n, theta, (seed, 0))
    if not census.all():
        raise ValueError(f"no vertices in community {int(np.argmin(census))} at n={n}")

    def unit(i):
        R = run_graph(spec, labels, theta, k_long, (seed, 0, i), lambda state, frame: None).R
        return [[(R[labels == r] ** p).mean(axis=0) for r in range(spec.K)] for p in (1, 2)]

    moments = np.array(parallel_map(unit, range(inner), threads=threads))  # (inner, 2, K, ell)

    sampler = StationarySampler(spec, model, tol * 1e-2)
    stat_rng = substream(seed, rngmod.STATIONARY)
    rows = []
    for r in range(spec.K):
        draws = sampler.sample(r, stat_rng, size=stationary_reps)
        for m, (moment, stat_vals) in enumerate((("mean", draws), ("second", draws**2))):
            rows.extend({"community": r, "topic": topic, "moment": moment,
                         **_compare_row(moments[:, m, r, topic], [stat_vals[:, topic]])}
                        for topic in range(spec.ell))
    return rows, sampler.horizon


# ---------------------------------------------------------------------------
# concentration-bound Monte Carlo checks


@dataclass
class ConcentrationCase:
    """Random-sum test case: per-type counts, one weight law on [0, H]
    and one value law on [-1, 1]."""

    count_dists: list       # entries ("poisson", mean) or ("binomial", trials, p)
    weight_dist: object
    value_dist: object
    H: float
    eps_grid: tuple

    def count_mean(self, r):
        kind = self.count_dists[r][0]
        if kind == "poisson":
            return float(self.count_dists[r][1])
        if kind == "binomial":
            _, m, p = self.count_dists[r]
            return float(m) * float(p)
        raise ValueError(f"count law {kind!r} rejected: needs the Poisson mgf bound")

    def mu_nu(self):
        eb = self.weight_dist.mean()
        eb2 = self.weight_dist.second_moment()
        mu = sum(self.count_mean(r) for r in range(len(self.count_dists))) * eb
        nu = sum(self.count_mean(r) for r in range(len(self.count_dists))) * eb2
        return mu, nu


def sum_deviation_bound(eps, mu, nu, H):
    """One-sided tail bound for the centered random sum at level eps*mu."""
    if nu <= 0:
        return float("inf")
    x = eps * mu
    return math.exp(-(x**2) / (2.0 * nu) + H * x**3 / (2.0 * nu**2))


def ratio_deviation_bound(eps, mu, nu, H):
    """Two-sided tail bound for the normalized-ratio deviation at level eps."""
    if nu <= 0:
        return float("inf")
    x = (eps / 2.0) * mu
    return 4.0 * math.exp(-(x**2) / (2.0 * nu) + H * x**3 / (2.0 * nu**2))


@dataclass
class ConcentrationReport:
    mu: float
    nu: float
    rows: list


def concentration_check(case, replications, seed):
    """Empirical exceedance frequencies against the analytic bounds.

    Raises if any empirical tail beats its bound by more than three
    binomial standard errors in the regime where the bound is
    informative (<= 1).
    """
    rng = substream(seed, rngmod.CONCENTRATION)
    K = len(case.count_dists)
    mu, nu = case.mu_nu()
    eb = case.weight_dist.mean()
    ex = case.value_dist.mean()
    S_tot = np.zeros(replications)
    T_tot = np.zeros(replications)
    mean_S = 0.0
    mean_T = 0.0
    for r in range(K):
        kind = case.count_dists[r][0]
        if kind == "poisson":
            counts = rng.poisson(case.count_dists[r][1], size=replications)
        elif kind == "binomial":
            _, m, p = case.count_dists[r]
            counts = rng.binomial(int(m), float(p), size=replications)
        else:
            raise ValueError(f"count law {kind!r} rejected: needs the Poisson mgf bound")
        total = int(counts.sum())
        rep_ids = np.repeat(np.arange(replications), counts)
        b = case.weight_dist.sample(rng, size=total)
        x = case.value_dist.sample(rng, size=total)
        S_tot += np.bincount(rep_ids, weights=b, minlength=replications)
        T_tot += np.bincount(rep_ids, weights=b * x, minlength=replications)
        mean_S += case.count_mean(r) * eb
        mean_T += case.count_mean(r) * eb * ex

    sum_dev = S_tot - mean_S
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(S_tot > 0, T_tot / np.where(S_tot > 0, S_tot, 1.0), 0.0)
    ratio_target = mean_T / mean_S if mean_S > 0 else 0.0
    ratio_dev = np.abs(ratio - ratio_target)

    rows = []
    for eps in case.eps_grid:
        sum_tail = float(np.mean(sum_dev > eps * mu)) if mu > 0 else float(np.mean(sum_dev > 0))
        ratio_tail = float(np.mean(ratio_dev > eps))
        for stat, emp, bound in (
            ("sum", sum_tail, sum_deviation_bound(eps, mu, nu, case.H)),
            ("ratio", ratio_tail, ratio_deviation_bound(eps, mu, nu, case.H)),
        ):
            se = math.sqrt(max(emp * (1.0 - emp), 0.0) / replications)
            rows.append(
                {
                    "epsilon": float(eps), "statistic": stat,
                    "empirical_tail": emp, "stderr": se, "bound": float(min(bound, np.inf)),
                }
            )
            if bound <= 1.0 and emp > bound + 3.0 * se:
                raise RuntimeError(
                    f"{stat} tail {emp:.4g} exceeds bound {bound:.4g} + 3 se at eps={eps}"
                )
    return ConcentrationReport(mu=mu, nu=nu, rows=rows)
