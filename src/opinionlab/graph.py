"""Directed stochastic block model sampling and influence-matrix assembly.

Edges point source -> listener; edge (j, i) is present independently
with probability min(kappa[J_j, J_i] * theta / n, 1).  Present edges
carry a weight drawn from the listener/source pair's weight law, and the
listener-normalized weights form the row-stochastic influence matrix.

Edge sampling is blocked by (listener community, source community).
Blocks with edge probability >= DENSE_P run vectorized Bernoulli draws
over the whole candidate grid; sparser blocks skip through the
flattened grid with geometric gaps, for O(#edges) expected cost.
"""

from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp

from . import rng as rngmod
from .rng import substream

DENSE_P = 0.25          # per-block sampler switch
ROW_SUM_TOL = 1e-12


@dataclass
class GraphSample:
    """One realized dSBM with vertex marks and in-edge lists.

    In-edges are stored CSR-style: the sources of listener i are
    ``sources[indptr[i]:indptr[i+1]]``, in ascending order, with parallel
    raw weights ``weights[indptr[i]:indptr[i+1]]``.
    """

    n: int
    theta: float
    labels: np.ndarray
    census: np.ndarray
    pi_hat: np.ndarray
    indptr: np.ndarray
    sources: np.ndarray
    weights: np.ndarray
    beliefs: np.ndarray
    no_inbound: np.ndarray

    def in_degrees(self):
        return np.diff(self.indptr)

    def edge_count(self):
        return int(self.indptr[-1])


@dataclass
class InfluenceMatrix:
    """Row-stochastic listening weights; rows with no positive weight are zero.

    ``normalize_weights`` always stores ``matrix`` as scipy CSR: its
    product with a dense block is a serial loop, so the output bytes do
    not depend on the BLAS thread count.  ``dense`` is accepted and
    ignored, for callers that still pass a hand-built ndarray.
    """

    matrix: object          # scipy CSR (or a caller's ndarray)
    zero_rows: np.ndarray   # bool per listener
    dense: InitVar[bool] = False

    @property
    def n(self):
        return self.matrix.shape[0]

    def propagate(self, X):
        """C @ X as a dense array."""
        return np.asarray(self.matrix @ X)

    def row_sums(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()


def empirical_shares(labels, K):
    """Exact label census divided by n."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empirical shares need at least one vertex")
    census = np.bincount(labels, minlength=K).astype(float)
    return census / labels.size


def sample_labels(spec, n, seed):
    """Community labels for n vertices: i.i.d. from pi, or an exact
    composition (uniformly permuted) when the spec requests it."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = substream(seed, rngmod.LABELS) if not isinstance(seed, np.random.Generator) else seed
    if spec.fixed_composition:
        counts = _apportion(spec.pi, n)
        labels = np.repeat(np.arange(spec.K), counts)
        rng.shuffle(labels)
    else:
        labels = rng.choice(spec.K, size=n, p=spec.pi)
    return labels.astype(np.int64)


def _apportion(pi, n):
    """Integer counts summing to n, proportional to pi (largest remainder)."""
    raw = pi * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts))
        counts[order[:short]] += 1
    return counts


def _block_pairs(rng, n_rows, n_cols, p):
    """Indices of Bernoulli(p) hits on an n_rows x n_cols grid."""
    if p <= 0.0 or n_rows == 0 or n_cols == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    total = n_rows * n_cols
    if p >= 1.0:
        flat = np.arange(total, dtype=np.int64)
    elif p >= DENSE_P:
        flat = np.flatnonzero(rng.random(total) < p).astype(np.int64)
    else:
        # geometric skipping over the flattened grid
        hits = []
        pos = -1
        expect = p * total
        batch = max(int(expect + 6.0 * np.sqrt(expect) + 16), 16)
        while True:
            gaps = rng.geometric(p, size=batch)
            pts = pos + np.cumsum(gaps)
            inside = pts < total
            if not inside.all():
                hits.append(pts[inside])
                break
            hits.append(pts)
            pos = int(pts[-1])
            batch = max(batch // 4, 16)
        flat = np.concatenate(hits)
    return flat // n_cols, flat % n_cols


def sample_graph(spec, labels, theta, seed):
    """Sample edges, weights and beliefs for one graph realization."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    census = np.bincount(labels, minlength=spec.K)
    pi_hat = census.astype(float) / n
    edge_rng = substream(seed, rngmod.EDGES)
    weight_rng = substream(seed, rngmod.WEIGHTS)
    belief_rng = substream(seed, rngmod.BELIEFS)

    idx_by_label = [np.flatnonzero(labels == r) for r in range(spec.K)]
    tgt_parts, src_parts, w_parts = [], [], []
    for r, tgt_idx in enumerate(idx_by_label):      # listener community
        for s, src_idx in enumerate(idx_by_label):  # source community
            p = min(spec.kappa[s, r] * theta / n, 1.0)
            rows, cols = _block_pairs(edge_rng, tgt_idx.size, src_idx.size, p)
            tgt = tgt_idx[rows]
            src = src_idx[cols]
            if r == s:
                keep = tgt != src
                tgt, src = tgt[keep], src[keep]
            tgt_parts.append(tgt)
            src_parts.append(src)
            # an empty block draws nothing from the weight stream
            w_parts.append(spec.weight_dists[r][s].sample(weight_rng, size=tgt.size))

    # COO -> CSR sorts each listener's sources ascending; every
    # (listener, source) cell is drawn at most once, so nothing is summed
    in_edges = sp.csr_matrix(
        (np.concatenate(w_parts), (np.concatenate(tgt_parts), np.concatenate(src_parts))),
        shape=(n, n),
    )
    beliefs = spec.sample_beliefs(labels, belief_rng)
    return GraphSample(
        n=n, theta=float(theta), labels=labels, census=census, pi_hat=pi_hat,
        indptr=in_edges.indptr, sources=in_edges.indices, weights=in_edges.data,
        beliefs=beliefs, no_inbound=np.diff(in_edges.indptr) == 0,
    )


def normalize_weights(graph):
    """Listener-normalize raw weights into the row-stochastic matrix."""
    n = graph.n
    rows = _row_index(graph)
    row_tot = np.bincount(rows, weights=graph.weights, minlength=n)
    positive = row_tot > 0.0
    values = np.zeros_like(graph.weights)
    mask = positive[rows]
    values[mask] = graph.weights[mask] / row_tot[rows[mask]]

    # copy: eliminate_zeros works in place and must not reach the graph's arrays
    mat = sp.csr_matrix((values, graph.sources, graph.indptr), shape=(n, n), copy=True)
    mat.eliminate_zeros()
    return InfluenceMatrix(matrix=mat, zero_rows=~positive)


def _row_index(graph):
    return np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))


def write_graph(graph, path):
    """Text dump: header ``n K``, one vertex line ``i J_i q_1 ... q_ell``
    per vertex, then one edge line ``i j B_ij`` per stored in-edge."""
    K = graph.pi_hat.size
    rows = _row_index(graph)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{graph.n} {K}\n")
        for i in range(graph.n):
            comps = " ".join(repr(float(v)) for v in graph.beliefs[i])
            fh.write(f"{i} {graph.labels[i]} {comps}\n")
        for i, j, w in zip(rows, graph.sources, graph.weights):
            fh.write(f"{i} {j} {repr(float(w))}\n")


def read_graph(path):
    """Inverse of write_graph; returns (labels, beliefs, edges) with
    edges as an (m, 2) int array of (listener, source) plus weights."""
    with open(path, encoding="utf-8") as fh:
        n, K = (int(tok) for tok in fh.readline().split())
        labels = np.empty(n, dtype=np.int64)
        beliefs = None
        for _ in range(n):
            parts = fh.readline().split()
            i = int(parts[0])
            labels[i] = int(parts[1])
            vals = [float(v) for v in parts[2:]]
            if beliefs is None:
                beliefs = np.empty((n, len(vals)), dtype=float)
            beliefs[i] = vals
        tgt, src, wts = [], [], []
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            tgt.append(int(parts[0]))
            src.append(int(parts[1]))
            wts.append(float(parts[2]))
    edges = np.column_stack([tgt, src]).astype(np.int64) if tgt else np.empty((0, 2), np.int64)
    return labels, beliefs, edges, np.asarray(wts, dtype=float), K
