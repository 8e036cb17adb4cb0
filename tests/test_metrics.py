import dataclasses
import math
import warnings

import numpy as np
import pytest

import opinionlab as ol
from opinionlab.distributions import Point, Uniform, VectorDist
from opinionlab import rng as rngmod
from opinionlab.metrics import (
    ConcentrationCase, burn_in_steps, coupled_gap_run, label_point, limit_trajectory_draws,
    mean_se, parse_function, ratio_deviation_bound, sum_deviation_bound,
)
from opinionlab.meanfield import build_meanfield_model, deterministic_profile
from opinionlab.model import ModelSpec

from conftest import random_spec


def test_burn_in_steps():
    k = burn_in_steps(0.2)
    assert (1 - 0.2) ** k < 0.01 <= (1 - 0.2) ** (k - 1)


def test_error_experiment_rejects_zero_reps():
    spec = random_spec(0)
    with pytest.raises(ValueError):
        ol.error_experiment(spec, [50], lambda n: 5.0, 3, 0, 1, 1)


def test_coupling_c_zero_gives_identical_processes():
    # no network term: the processes coincide pathwise (up to fp association)
    spec = random_spec(1)
    spec.c = 0.0
    curve = ol.error_experiment(spec, [60], lambda n: 6.0, 8, 4, 2, 5)
    for pt in curve.points:
        assert pt.sup_inf < 1e-14
        assert pt.sup_row < 1e-14


def test_coupled_run_starts_at_zero_gap():
    spec = random_spec(2)
    labels = ol.sample_labels(spec, 50, 3)
    census = np.bincount(labels, minlength=spec.K)
    model = build_meanfield_model(spec, 50, 5.0, census)
    profile = deterministic_profile(
        model.mixing, model.signal_mean, model.initial_mean, spec.c, spec.d, 6
    )
    inf_norms, comm = coupled_gap_run(spec, labels, 5.0, 6, (3, 0), profile, census=census)
    assert inf_norms[0] == 0.0
    assert np.all(comm[0] == 0.0)
    assert np.all(inf_norms >= 0.0)


def test_coupled_run_matches_per_vertex_trajectories():
    # replay the coupled run's streams by hand and rebuild each vertex's
    # approximation through the trajectory op; the gaps must coincide
    import opinionlab.rng as rngmod
    from opinionlab.rng import substream
    from opinionlab.dynamics import OpinionState, sample_signal_frame, step as dstep
    from opinionlab.graph import normalize_weights, sample_graph

    spec = random_spec(901, K=2)
    n, theta, k_max = 60, 6.0, 5
    labels = ol.sample_labels(spec, n, 3)
    census = np.bincount(labels, minlength=spec.K)
    model = build_meanfield_model(spec, n, theta, census)
    profile = deterministic_profile(
        model.mixing, model.signal_mean, model.initial_mean, spec.c, spec.d, k_max
    )
    seed_key = (3, 0)
    inf_norms, comm_gaps = coupled_gap_run(spec, labels, theta, k_max, seed_key, profile,
                                           census=census)

    graph = sample_graph(spec, labels, theta, seed_key)
    influence = normalize_weights(graph)
    R0 = spec.sample_initial(labels, graph.beliefs, substream(seed_key, rngmod.INIT))
    signal_rng = substream(seed_key, rngmod.SIGNALS)
    frames = [sample_signal_frame(spec, graph, signal_rng) for _ in range(k_max)]
    state = OpinionState(R=R0, k=0)
    states = [R0]
    for frame in frames:
        state = dstep(state, influence, frame, spec.c, spec.d)
        states.append(state.R)
    manual = np.zeros((k_max + 1, n))
    for v in range(n):
        sig = np.array([frame.W[v] for frame in frames])
        approx = ol.meanfield_trajectory(
            int(labels[v]), sig, model.mixing, model.signal_mean,
            model.initial_mean, R0[v], spec.c, spec.d, k_max, profile=profile,
        )
        for k in range(k_max + 1):
            manual[k, v] = np.abs(states[k][v] - approx[k]).sum()
    assert np.abs(manual.max(axis=1) - inf_norms).max() < 1e-12
    for r in range(spec.K):
        assert np.abs(manual[:, labels == r].mean(axis=1) - comm_gaps[:, r]).max() < 1e-12


def test_error_estimates_internally_consistent():
    spec = random_spec(3, K=2)
    curve = ol.error_experiment(spec, [120], lambda n: 12.0, 10, 12, 1, 9)
    pt = curve.points[0]
    # row-average estimate never exceeds the max-row estimate beyond noise
    for k in range(curve.k_max + 1):
        assert pt.row_estimate[k] <= pt.inf_estimate[k] + 2 * (pt.row_se[k] + pt.inf_se[k]) + 1e-12
    # sup summaries dominate the per-step values
    assert pt.sup_inf >= pt.inf_estimate.max() - 1e-15
    assert pt.sup_row >= pt.row_estimate.max() - 1e-15


def test_error_curve_by_n_aggregates():
    spec = random_spec(4)
    curve = ol.error_experiment(spec, [40, 80], lambda n: 5.0, 5, 3, 2, 11)
    agg = curve.by_n()
    assert set(agg) == {40, 80}
    for n, row in agg.items():
        pts = [pt for pt in curve.points if pt.n == n]
        assert row["reps"] == 3 * 2
        assert len(row["inf"]) == len(row["row_l1"]) == curve.k_max + 1
        assert row["inf"][2][0] == pytest.approx(np.mean([pt.inf_estimate[2] for pt in pts]))
        assert row["sup_row"] == pytest.approx(np.mean([pt.sup_row for pt in pts]))
        assert row["sup_inf_se"] == pytest.approx(
            np.sqrt(np.mean([pt.sup_inf_se**2 for pt in pts]) / 2))


def test_mean_se_single_sample_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = mean_se(np.array([[0.25, -1.5, 3.0]]))
        scalar_mean, scalar_se = mean_se([0.7])
    assert mean.tolist() == [0.25, -1.5, 3.0]
    assert se.tolist() == [0.0, 0.0, 0.0]
    assert (float(scalar_mean), float(scalar_se)) == (0.7, 0.0)


def test_mean_se_matches_column_formula():
    samples = np.random.default_rng(3).normal(size=(7, 4, 2))
    mean, se = mean_se(samples)
    assert mean.shape == se.shape == (4, 2)
    for i in range(4):
        for j in range(2):
            col = samples[:, i, j]
            assert mean[i, j] == pytest.approx(col.mean(), rel=1e-14)
            assert se[i, j] == pytest.approx(col.std(ddof=1) / math.sqrt(7), rel=1e-14)


def test_error_experiment_single_inner_rep_has_zero_stderr():
    spec = random_spec(6, K=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = ol.error_experiment(spec, [60], lambda n: 6.0, 4, 1, 1, 21)
    pt = curve.points[0]
    assert pt.inf_se.tolist() == pt.row_se.tolist() == [0.0] * 5
    assert (pt.sup_inf_se, pt.sup_row_se) == (0.0, 0.0)
    assert pt.inf_estimate.max() > 0.0


def test_error_experiment_threads_do_not_change_results():
    spec = random_spec(5)
    a = ol.error_experiment(spec, [50], lambda n: 6.0, 6, 6, 1, 13, threads=1)
    b = ol.error_experiment(spec, [50], lambda n: 6.0, 6, 6, 1, 13, threads=4)
    assert np.array_equal(a.points[0].inf_estimate, b.points[0].inf_estimate)
    assert np.array_equal(a.points[0].row_estimate, b.points[0].row_estimate)


def test_parse_function_family():
    f = parse_function("proj:0,2", 2, 3)
    V = np.zeros((2, 4))
    V[0, 2] = 0.5
    assert f(V) == 0.5
    g = parse_function("prod:0,1,1,3", 2, 3)
    V[0, 1], V[1, 3] = -0.5, 0.4
    assert g(V) == pytest.approx(-0.2)
    h = parse_function("poly:0,2,3", 2, 3)
    assert h(V) == pytest.approx(0.125)
    one = parse_function("one", 2, 3)
    assert one(V) == 1.0
    for bad in ("proj:0,9", "proj:5,0", "nope:1", "poly:0,0,0"):
        with pytest.raises(ValueError):
            parse_function(bad, 2, 3)


def chaos_spec():
    return ModelSpec(
        K=2, ell=1, pi=[0.5, 0.5], kappa=[[2.0, 1.0], [1.0, 2.0]], c=0.35, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.2, 1.0)] * 2] * 2,
        belief_dists=[VectorDist((Point(0.8),)), VectorDist((Point(-0.6),))],
        signal_dists=[VectorDist((Point(0.5),)), VectorDist((Point(-0.5),))],
        init_dists="beliefs",
        fixed_composition=True,
    )


def test_chaos_single_vertex_gap_is_noise():
    spec = chaos_spec()
    rows = ol.chaos_experiment(
        spec, 300, 60.0, 2, [[0]], [["proj:0,2"]], 60, 17, limit_reps=2000
    )
    row = rows[0]
    # m = 1: factorization is an identity, the gap is Monte Carlo noise
    assert row["gap"] <= 4 * (row["graph_se"] + row["limit_se"]) + 0.01


def test_chaos_constant_function_recovers_shares():
    spec = chaos_spec()
    rows = ol.chaos_experiment(
        spec, 200, 40.0, 1, [[0]], [["one"]], 5, 19,
        measure_functions=["one"], limit_reps=500,
    )
    labels = ol.sample_labels(spec, 200, (19, 0))
    shares = np.bincount(labels, minlength=2) / 200
    for row in (r for r in rows if r["statistic"] == "measure"):
        (community,) = row["communities"]
        assert row["graph_estimate"] == pytest.approx(shares[community])
        assert row["graph_se"] == pytest.approx(0.0, abs=1e-15)
        assert row["limit_estimate"] == pytest.approx(spec.pi[community])


def test_chaos_single_limit_draw_has_zero_stderr():
    # one limit draw: its standard errors are 0.0, as for one graph replication
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = ol.chaos_experiment(
            chaos_spec(), 100, 20.0, 1, [[0]], [["proj:0,1"]], 3, 29,
            measure_functions=["proj:0,1"], limit_reps=1,
        )
    assert [row["limit_se"] for row in rows if row["statistic"] == "measure"] == [0.0, 0.0]
    assert rows[0]["limit_se"] == 0.0


def test_chaos_fixed_set_is_a_pool_of_one_row():
    # n = 2 with fixed composition: one vertex per community, so the
    # pooled (0, 1) pair is the fixed set of those two vertices
    spec = chaos_spec()
    labels = ol.sample_labels(spec, 2, (37, 0))
    pair = [int(np.flatnonzero(labels == r)[0]) for r in (0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = ol.chaos_experiment(
            spec, 2, 1.0, 2, [pair], [["proj:0,2", "proj:0,1"]], 6, 37, limit_reps=50,
            pooled_pairs=[(0, 1)], pooled_functions=[["proj:0,2", "proj:0,1"]],
        )
    fixed, pooled = rows
    assert fixed["vertices"] == tuple(pair) and pooled["vertices"] == "pooled"
    assert fixed["communities"] == pooled["communities"] == (0, 1)
    assert {k: v for k, v in fixed.items() if k != "vertices"} == \
        {k: v for k, v in pooled.items() if k != "vertices"}


def test_chaos_factorization_gap_shrinks_with_n():
    spec = chaos_spec()
    gaps = {}
    for n in (80, 640):
        labels = ol.sample_labels(spec, n, (23, 0))
        i1 = int(np.flatnonzero(labels == 0)[0])
        i2 = int(np.flatnonzero(labels == 1)[0])
        rows = ol.chaos_experiment(
            spec, n, float(n) ** 0.8, 2, [[i1, i2]], [["proj:0,2", "proj:0,2"]],
            400, 23, limit_reps=2000,
        )
        gaps[n] = rows[0]
    assert gaps[640]["gap"] < gaps[80]["gap"]


def test_chaos_measure_row_of_an_empty_community():
    # n = 2 with fixed composition and pi = (0.9, 0.1): community 1 gets no vertices
    spec = dataclasses.replace(chaos_spec(), pi=np.array([0.9, 0.1]))
    assert np.bincount(ol.sample_labels(spec, 2, (41, 0)), minlength=2).tolist() == [2, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = ol.chaos_experiment(spec, 2, 1.0, 1, [[0]], [["proj:0,1"]], 4, 41,
                                   measure_functions=["proj:0,1"], limit_reps=50)
    row = rows[-1]
    assert row["statistic"] == "measure" and row["communities"] == (1,)
    assert row["graph_estimate"] == row["graph_se"] == 0.0
    # the limit side as chaos_experiment draws it: every community, in order
    _, _, model, profile = label_point(spec, 2, 1.0, (41, 0), 1)
    limit_rng = rngmod.substream(41, rngmod.STATIONARY, 1)
    draws = [limit_trajectory_draws(spec, model, profile, r, 1, 50, limit_rng) for r in (0, 1)]
    limit_mean, limit_se = mean_se(draws[1][:, 0, 1])
    assert row["limit_estimate"] == spec.pi[1] * limit_mean
    assert row["limit_se"] == spec.pi[1] * limit_se
    assert row["gap"] == abs(row["limit_estimate"])


ESTIMATOR_KEYS = {"graph_estimate", "graph_se", "limit_estimate", "limit_se", "gap", "combined_se"}


def test_every_comparison_row_has_the_estimator_keys():
    chaos = ol.chaos_experiment(
        chaos_spec(), 60, 12.0, 2, [[0, 1]], [["proj:0,2", "prod:0,1,0,2"]], 3, 43,
        measure_functions=["proj:0,2", "one"], limit_reps=20,
        pooled_pairs=[(0, 1)], pooled_functions=[["proj:0,1", "proj:0,1"]],
    )
    spec = random_spec(6)
    stationary, _ = ol.stationarity_experiment(spec, 50, 5.0, burn_in_steps(spec.d, 1e-3), 2,
                                               1e-3, 1, stationary_reps=30)
    assert [row["statistic"] for row in chaos] == ["product"] * 2 + ["measure"] * 4
    for rows, fields in ((chaos, {"statistic", "vertices", "communities", "functions"}),
                         (stationary, {"community", "topic", "moment"})):
        for row in rows:
            assert set(row) == ESTIMATOR_KEYS | fields
            assert row["gap"] == abs(row["graph_estimate"] - row["limit_estimate"])
            assert row["combined_se"] == math.sqrt(row["graph_se"]**2 + row["limit_se"]**2)


def test_stationarity_requires_burned_in_horizon():
    spec = random_spec(6)
    with pytest.raises(ValueError):
        ol.stationarity_experiment(spec, 50, 5.0, 2, 2, 1e-6, 1)


def test_stationarity_deterministic_signals_match_exactly():
    z = 0.4
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[40.0]], c=0.3, d=0.25, H=1.0,
        weight_dists=[[Uniform(0.3, 1.0)]],
        belief_dists=[VectorDist((Point(0.0),))],
        signal_dists=[VectorDist((Point(z),))],
    )
    k_long = burn_in_steps(spec.d, 1e-5)
    rows, _ = ol.stationarity_experiment(
        spec, 120, 80.0, k_long, 3, 1e-5, 3, stationary_reps=200
    )
    mean_row = next(r for r in rows if r["moment"] == "mean")
    assert mean_row["gap"] < 1e-3
    assert mean_row["limit_estimate"] == pytest.approx(z, abs=1e-4)


def test_stationarity_bot_community_geometric_series():
    # no in-edges: stationary mean is the decayed-signal series with belief fallback
    z, q = 0.2, 0.6
    spec = ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[0.0]], c=0.3, d=0.25, H=1.0,
        weight_dists=[[Point(1.0)]],
        belief_dists=[VectorDist((Point(q),))],
        signal_dists=[VectorDist((Point(z),))],
    )
    k_long = burn_in_steps(spec.d, 1e-6)
    rows, _ = ol.stationarity_experiment(spec, 60, 5.0, k_long, 2, 1e-6, 5, stationary_reps=100)
    w = spec.d * z + spec.c * q
    expected = w / (spec.c + spec.d)  # sum over t of (1-c-d)^t * w
    mean_row = next(r for r in rows if r["moment"] == "mean")
    assert mean_row["limit_estimate"] == pytest.approx(expected, abs=1e-4)
    assert mean_row["gap"] < 1e-3


def test_concentration_bounds_formulas():
    # mu = nu = 50 at B = 1: exponent reproduces the closed form
    b = ratio_deviation_bound(0.5, 50.0, 50.0, 1.0)
    assert b == pytest.approx(4 * math.exp(-(0.25**2) * 50 / 2 + (0.25**3) * 50 / 2))
    assert sum_deviation_bound(0.1, 50.0, 50.0, 1.0) == pytest.approx(
        math.exp(-(5.0**2) / 100 + 5.0**3 / 5000)
    )


def test_concentration_poisson_case_passes_and_reports():
    case = ConcentrationCase(
        count_dists=[("poisson", 50.0)], weight_dist=Point(1.0),
        value_dist=Uniform(-1.0, 1.0), H=1.0, eps_grid=(0.1, 0.3, 0.5, 1.5),
    )
    report = ol.concentration_check(case, 30_000, 7)
    assert report.mu == pytest.approx(50.0)
    assert report.nu == pytest.approx(50.0)
    for row in report.rows:
        assert 0.0 <= row["empirical_tail"] <= 1.0
        assert row["bound"] >= 0.0
        if row["bound"] <= 1.0:
            assert row["empirical_tail"] <= row["bound"] + 3 * row["stderr"] + 1e-12


def test_concentration_two_type_case():
    case = ConcentrationCase(
        count_dists=[("poisson", 20.0), ("binomial", 100, 0.3)],
        weight_dist=Uniform(0.2, 1.0), value_dist=Uniform(-1.0, 1.0),
        H=1.0, eps_grid=(0.2, 0.5),
    )
    report = ol.concentration_check(case, 20_000, 11)
    assert report.mu == pytest.approx(50.0 * 0.6)
    assert len(report.rows) == 4


def test_concentration_zero_values_have_zero_tail():
    case = ConcentrationCase(
        count_dists=[("poisson", 30.0)], weight_dist=Point(0.0),
        value_dist=Uniform(-1.0, 1.0), H=1.0, eps_grid=(0.1, 0.5),
    )
    report = ol.concentration_check(case, 5_000, 13)
    for row in report.rows:
        assert row["empirical_tail"] == 0.0


def test_concentration_rejects_unknown_count_law():
    case = ConcentrationCase(
        count_dists=[("geometric", 5.0)], weight_dist=Point(1.0),
        value_dist=Point(0.0), H=1.0, eps_grid=(0.5,),
    )
    with pytest.raises(ValueError):
        ol.concentration_check(case, 100, 1)
