import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import opinionlab as ol
from opinionlab.dynamics import (
    OpinionState, SignalFrame, hop_weight, hop_weight_table, iterate, run_graph,
)
from opinionlab.distributions import Point, Uniform, VectorDist
from opinionlab.graph import InfluenceMatrix
from opinionlab.model import ModelSpec
from opinionlab.rng import INIT, SIGNALS, substream

from conftest import random_spec
from oracles import closed_form_state


def csr_influence(mat):
    mat = sp.csr_matrix(np.asarray(mat, dtype=float))
    return InfluenceMatrix(matrix=mat, zero_rows=np.asarray(mat.sum(axis=1)).ravel() == 0)


cd_pairs = st.tuples(
    st.floats(min_value=0.0, max_value=0.9),
    st.floats(min_value=0.05, max_value=0.9),
).filter(lambda cd: cd[0] + cd[1] <= 1.0)


def test_hop_weight_base_cases():
    assert hop_weight(1, 1, 0.3, 0.2) == pytest.approx(0.3)
    assert hop_weight(0, 0, 0.3, 0.2) == 1.0
    with pytest.raises(ValueError):
        hop_weight(3, 2, 0.3, 0.2)


def test_hop_weight_hand_sums():
    # t=2, c=0.3, d=0.2: one-or-more-hop mass 0.64 - 0.25, hop-count mean 0.48
    tab = hop_weight_table(2, 0.3, 0.2)
    assert tab[2, 1] + tab[2, 2] == pytest.approx(0.39, abs=1e-12)
    assert tab[2, 1] + 2 * tab[2, 2] == pytest.approx(0.48, abs=1e-12)


@given(cd_pairs)
def test_hop_weight_identities(cd):
    c, d = cd
    t_max = 60
    tab = hop_weight_table(t_max, c, d)
    for t in (1, 7, 33, 60):
        s_idx = np.arange(1, t + 1)
        total = tab[t, : t + 1].sum()
        assert math.isclose(total, (1 - d) ** t, rel_tol=1e-12, abs_tol=1e-12)
        partial = tab[t, 1 : t + 1].sum()
        assert math.isclose(
            partial, (1 - d) ** t - (1 - c - d) ** t, rel_tol=1e-12, abs_tol=1e-12
        )
        weighted = (tab[t, 1 : t + 1] * s_idx).sum()
        assert math.isclose(weighted, c * t * (1 - d) ** (t - 1), rel_tol=1e-12, abs_tol=1e-12)


def test_hop_weight_log_space_consistent():
    c, d = 0.3, 0.2
    for t in (150, 201, 400):
        direct = math.comb(t, t // 2) * (1 - c - d) ** (t - t // 2) * c ** (t // 2)
        assert hop_weight(t // 2, t, c, d) == pytest.approx(direct, rel=1e-10)


def test_signal_frame_zero_and_belief_cases():
    spec = ModelSpec(
        K=1, ell=2, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(1.0)]],
        belief_dists=[VectorDist((Point(0.5), Point(-0.5)))],
        signal_dists=[VectorDist((Point(0.0), Point(0.0)))],
    )
    labels = np.zeros(4, dtype=np.int64)
    g = ol.sample_graph(spec, labels, 2.0, 1)
    g.no_inbound[:] = [False, False, True, True]
    frame = ol.sample_signal_frame(spec, g, 3)
    # inbound vertices with zero media draw hear nothing
    assert np.all(frame.W[:2] == 0.0)
    # isolated vertices fall back to c * belief
    assert frame.W[2].tolist() == [0.15, -0.15]


def test_signal_frame_direct_evaluation():
    spec = ModelSpec(
        K=1, ell=2, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Point(1.0)]],
        belief_dists=[VectorDist((Point(0.0), Point(0.0)))],
        signal_dists=[VectorDist((Point(1.0), Point(-1.0)))],
    )
    labels = np.zeros(3, dtype=np.int64)
    g = ol.sample_graph(spec, labels, 3.0, 1)
    g.no_inbound[:] = False
    frame = ol.sample_signal_frame(spec, g, 5)
    assert np.allclose(frame.W, [[0.2, -0.2]] * 3)
    assert np.all(np.abs(frame.W).max() <= spec.c + spec.d + 1e-12)


def test_signal_frame_seed_and_running_generator():
    spec = random_spec(40)
    labels = ol.sample_labels(spec, 20, 4)
    g = ol.sample_graph(spec, labels, 4.0, 4)
    # an int seed draws the first frame of the (seed, SIGNALS) stream
    first = ol.sample_signal_frame(spec, g, 9)
    assert np.array_equal(first.W, ol.sample_signal_frame(spec, g, substream(9, SIGNALS)).W)
    # a running generator yields the frames iterate applies, in step order
    rng = substream(9, SIGNALS)
    drawn = [ol.sample_signal_frame(spec, g, rng).W for _ in range(3)]
    seen = []
    iterate(spec, g, ol.normalize_weights(g), 3, 9,
            lambda state, frame: frame is not None and seen.append(frame.W))
    assert np.array_equal(drawn[0], first.W)
    assert all(np.array_equal(a, b) for a, b in zip(drawn, seen, strict=True))
    assert not np.array_equal(drawn[0], drawn[1])


def test_step_hand_case():
    C = csr_influence([[0.0, 1.0], [1.0, 0.0]])
    state = OpinionState(R=np.array([[1.0], [-1.0]]), k=0)
    frame = SignalFrame(W=np.zeros((2, 1)))
    out = ol.step(state, C, frame, 0.5, 0.5)
    assert out.R.ravel().tolist() == [-0.5, 0.5]
    assert out.k == 1


def test_step_no_network_when_c_zero():
    C = csr_influence(np.eye(3))
    R = np.array([[0.5], [-0.25], [0.0]])
    frame = SignalFrame(W=np.full((3, 1), 0.1))
    out = ol.step(OpinionState(R=R, k=0), C, frame, 0.0, 0.2)
    assert np.allclose(out.R, 0.1 + 0.8 * R)


def test_step_fixed_point_under_consensus():
    r = 0.37
    C = csr_influence([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    R = np.full((3, 2), r)
    # signals consistent with the consensus value: Z = r, no isolated vertices
    frame = SignalFrame(W=np.full((3, 2), 0.2 * r))
    out = ol.step(OpinionState(R=R, k=0), C, frame, 0.3, 0.2)
    assert np.allclose(out.R, r)


def test_step_shape_errors():
    C = csr_influence(np.eye(2))
    state = OpinionState(R=np.zeros((2, 1)), k=0)
    with pytest.raises(ValueError):
        ol.step(state, C, SignalFrame(W=np.zeros((3, 1))), 0.3, 0.2)
    state3 = OpinionState(R=np.zeros((3, 1)), k=0)
    with pytest.raises(ValueError):
        ol.step(state3, C, SignalFrame(W=np.zeros((3, 1))), 0.3, 0.2)


def test_step_bound_escape_raises():
    C = csr_influence(np.eye(1))
    state = OpinionState(R=np.array([[1.0]]), k=0)
    bad = SignalFrame(W=np.array([[1.0]]))  # inconsistent with the model ranges
    with pytest.raises(RuntimeError):
        ol.step(state, C, bad, 0.5, 0.5)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=15)
def test_simulate_stays_bounded(seed):
    spec = random_spec(seed)
    labels = ol.sample_labels(spec, 30, seed)
    g = ol.sample_graph(spec, labels, 4.0, seed)
    C = ol.normalize_weights(g)
    _, state = ol.simulate(spec, g, C, 12, seed)
    assert np.all(np.abs(state.R) <= 1.0 + 1e-12)
    assert state.k == 12


def test_simulate_zero_steps_returns_initial():
    spec = random_spec(3)
    labels = ol.sample_labels(spec, 10, 3)
    g = ol.sample_graph(spec, labels, 3.0, 3)
    C = ol.normalize_weights(g)
    _, state = ol.simulate(spec, g, C, 0, 3)
    R0 = spec.sample_initial(labels, g.beliefs, substream(3, INIT))
    assert np.array_equal(state.R, R0)


def test_trajectory_record_shape_and_values():
    spec = random_spec(8, ell=2)
    labels = ol.sample_labels(spec, 15, 8)
    g = ol.sample_graph(spec, labels, 4.0, 8)
    C = ol.normalize_weights(g)
    rec, state = ol.simulate(spec, g, C, 5, 8, record=[0, 3, 7])
    assert rec.values.shape == (3, 2, 6)
    assert np.array_equal(rec.communities, labels[[0, 3, 7]])
    assert np.allclose(rec.values[:, :, -1], state.R[[0, 3, 7]])
    assert np.all(np.abs(rec.values) <= 1.0 + 1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_closed_form_matches_iterated_step(seed):
    spec = random_spec(seed + 100)
    n = int(np.random.default_rng(seed).integers(4, 11))
    labels = ol.sample_labels(spec, n, seed)
    g = ol.sample_graph(spec, labels, 3.0, seed)
    C = ol.normalize_weights(g)
    k = 5
    frames = []
    state = iterate(spec, g, C, k, seed, lambda state, frame: frames.append(frame))
    R0 = spec.sample_initial(labels, g.beliefs, substream(seed, INIT))
    oracle = closed_form_state(C, frames[1:], R0, spec.c, spec.d, k)
    assert np.abs(oracle.R - state.R).max() < 1e-10


def test_closed_form_c_zero_reduces_to_decayed_signals():
    spec = random_spec(7)
    spec.c = 0.0
    labels = ol.sample_labels(spec, 8, 7)
    g = ol.sample_graph(spec, labels, 3.0, 7)
    C = ol.normalize_weights(g)
    k = 4
    frames = []
    state = iterate(spec, g, C, k, 7, lambda state, frame: frames.append(frame))
    R0 = spec.sample_initial(labels, g.beliefs, substream(7, INIT))
    expected = (1 - spec.d) ** k * R0
    for t in range(k):
        expected = expected + (1 - spec.d) ** t * frames[k - t].W
    assert np.abs(expected - state.R).max() < 1e-12


def test_contraction_of_initial_condition():
    spec = random_spec(15)
    labels = ol.sample_labels(spec, 40, 15)
    g = ol.sample_graph(spec, labels, 5.0, 15)
    C = ol.normalize_weights(g)
    rng = np.random.default_rng(0)
    R0a = rng.uniform(-1, 1, size=(40, spec.ell))
    R0b = rng.uniform(-1, 1, size=(40, spec.ell))
    sa, sb = OpinionState(R0a, 0), OpinionState(R0b, 0)
    base = np.abs(R0a - R0b).sum(axis=1).max()
    signal_rng = substream(99, 5)
    for k in range(1, 8):
        frame = ol.sample_signal_frame(spec, g, signal_rng)
        sa = ol.step(sa, C, frame, spec.c, spec.d)
        sb = ol.step(sb, C, frame, spec.c, spec.d)
        gap = np.abs(sa.R - sb.R).sum(axis=1).max()
        assert gap <= (1 - spec.d) ** k * base + 1e-12


def test_dynamics_never_build_c(monkeypatch):
    # C is only ever applied as (B @ X) / row totals: building it would raise
    def refuse(self):
        raise AssertionError("the dynamics built C")

    monkeypatch.setattr(InfluenceMatrix, "matrix", property(refuse))
    spec = random_spec(5, K=2, allow_zero_rows=True)
    labels = ol.sample_labels(spec, 40, 5)
    run_graph(spec, labels, 6.0, 4, 5, lambda state, frame: None)
    g = ol.sample_graph(spec, labels, 6.0, 5)
    C = ol.normalize_weights(g)
    frames = []
    state = iterate(spec, g, C, 4, 5, lambda state, frame: frames.append(frame))
    R0 = spec.sample_initial(labels, g.beliefs, substream(5, INIT))
    oracle = closed_form_state(C, frames[1:], R0, spec.c, spec.d, 4)
    assert np.abs(oracle.R - state.R).max() < 1e-10
