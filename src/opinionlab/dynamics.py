"""Synchronous opinion recursion and its binomial hop weights.

One step of the process is

    R_new = c * C @ R + W + (1 - c - d) * R,

with W the external-signal frame.  Unrolling the recursion expands the
k-step state into powers of C with binomial hop weights

    hop_weight(s, t) = binom(t, s) * (1 - c - d)^(t - s) * c^s,

which is the coefficient of C^s after t steps.  No run evaluates the
unrolled form: the mean-field profile runs the recursion itself on the
community means (meanfield.deterministic_profile), and the tests check
it against these coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .distributions import sample_by_label
from .graph import normalize_weights, sample_graph
from .rng import substream

BOUND_TOL = 1e-12
_LOG_SPACE_T = 200  # direct binomials stay exact well past the identity checks


@dataclass
class OpinionState:
    R: np.ndarray   # n x ell, entries in [-1, 1]
    k: int


@dataclass
class SignalFrame:
    W: np.ndarray   # assembled external signals, n x ell


@dataclass
class TrajectoryRecord:
    """Per-vertex trajectories: values[v] is ell x (k+1), column j holding
    the transposed opinion at time j."""

    vertices: np.ndarray
    communities: np.ndarray
    values: np.ndarray  # (len(vertices), ell, k+1)


def hop_weight(s, t, c, d):
    """Weight of the s-hop network term after t steps."""
    if s > t or s < 0:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    a = 1.0 - c - d
    if c == 0.0:
        return a**t if s == 0 else 0.0
    if a == 0.0:
        return c**t if s == t else 0.0
    if t <= _LOG_SPACE_T:
        return math.comb(t, s) * a ** (t - s) * c**s
    logv = (
        math.lgamma(t + 1) - math.lgamma(s + 1) - math.lgamma(t - s + 1)
        + (t - s) * math.log(a) + s * math.log(c)
    )
    return math.exp(logv)


def hop_weight_table(k_max, c, d):
    """(k_max+1) x (k_max+1) array with table[t, s] = hop_weight(s, t)."""
    table = np.zeros((k_max + 1, k_max + 1))
    for t in range(k_max + 1):
        for s in range(t + 1):
            table[t, s] = hop_weight(s, t, c, d)
    return table


def sample_signal_frame(spec, graph, seed):
    """Draw one round of media signals Z and assemble the external frame
    from them with assemble_frame.

    seed is either a running Generator (signals are consumed in step
    order, as iterate does) or a seed of the (seed, SIGNALS) stream.
    """
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, rngmod.SIGNALS)
    Z = sample_by_label(spec.signal_dists, graph.labels, rng, (spec.ell,))
    terms = frame_terms(spec, graph.beliefs, graph.no_inbound)
    return SignalFrame(W=assemble_frame(spec, Z, terms))


def frame_terms(spec, beliefs, no_inbound):
    """The step-invariant parts w * q and c * q * 1(no inbound neighbors)
    of the frames of rows with beliefs q (w = signal_belief_weight)."""
    return spec.signal_belief_weight * beliefs, spec.c * beliefs * no_inbound[:, None]


def assemble_frame(spec, Z, terms):
    """The external frame W = d * ((1-w) * Z + w * q) + c * q * 1(no
    inbound neighbors), in place on the media draws Z, from the rows'
    frame_terms; the graph and the limit side both assemble here."""
    pull, offset = terms
    w = spec.signal_belief_weight
    if w:
        Z *= 1.0 - w
        Z += pull
    Z *= spec.d
    Z += offset
    return Z


def step(state, influence, frame, c, d):
    """Advance the opinion matrix one step; raises on any bound escape."""
    R = state.R
    if frame.W.shape != R.shape:
        raise ValueError(f"signal frame shape {frame.W.shape} != state shape {R.shape}")
    if influence.n != R.shape[0]:
        raise ValueError(f"influence matrix has {influence.n} rows, state has {R.shape[0]}")
    # c * C R + W + (1 - c - d) * R, in place on the fresh product
    R_new = influence.propagate(R)
    R_new *= c
    R_new += frame.W
    R_new += (1.0 - c - d) * R
    _check_bounds(R_new, state.k + 1)
    return OpinionState(R=R_new, k=state.k + 1)


def _check_bounds(R, k):
    worst = float(np.abs(R).max(initial=0.0))
    if worst > 1.0 + BOUND_TOL:
        raise RuntimeError(f"opinion bound escaped at step {k}: max |entry| = {worst}")


def initial_state(spec, graph, seed):
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, rngmod.INIT)
    R0 = spec.sample_initial(graph.labels, graph.beliefs, rng)
    _check_bounds(R0, 0)
    return OpinionState(R=R0, k=0)


def run_graph(spec, labels, theta, k, seed, observe):
    """Sample one graph realization and its weights from seed, then run
    k steps on it with iterate; returns the final state."""
    graph = sample_graph(spec, labels, theta, seed)
    return iterate(spec, graph, normalize_weights(graph), k, seed, observe)


def iterate(spec, graph, influence, k, seed, observe):
    """The step loop, from the (seed, INIT) initial state with (seed, SIGNALS)
    frames in step order; observe(state, frame) sees each state and the
    frame that produced it (None for the initial one).  Returns the last."""
    state = initial_state(spec, graph, seed)
    signal_rng = substream(seed, rngmod.SIGNALS)
    observe(state, None)
    for _ in range(k):
        frame = sample_signal_frame(spec, graph, signal_rng)
        state = step(state, influence, frame, spec.c, spec.d)
        observe(state, frame)
    return state


def simulate(spec, graph, influence, k_max, seed, record=None):
    """Iterate the recursion for k_max steps; returns (record, state).

    record selects vertex ids whose trajectories are retained.
    """
    sel = np.asarray(record if record is not None else [], dtype=np.int64)
    traj = np.empty((sel.size, spec.ell, k_max + 1))

    def observe(state, frame):
        traj[:, :, state.k] = state.R[sel]

    state = iterate(spec, graph, influence, k_max, seed, observe)
    record_out = None if record is None else TrajectoryRecord(sel, graph.labels[sel], traj)
    return record_out, state


class ExplicitProcess:
    """The explicit approximation over rows: with a = 1-c-d, update(W)
    takes stream_k = a * stream_{k-1} + W_k, read(base) gives the state
    stream_k + base_k + a^k * R0, a^k kept as a running product, and
    advance is one update and its read."""

    def __init__(self, R0, c, d):
        self.R0 = R0
        self.a = 1.0 - c - d
        self.stream = np.zeros_like(R0)
        self.decay = 1.0

    def update(self, W):
        self.stream *= self.a
        self.stream += W
        self.decay *= self.a

    def read(self, base):
        out = self.stream + base
        out += self.decay * self.R0
        return out

    def advance(self, W, base):
        self.update(W)
        return self.read(base)
