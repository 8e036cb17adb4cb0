"""Directed stochastic block model sampling and influence-matrix assembly.

Edges point source -> listener; edge (j, i) is present independently
with probability min(kappa[J_j, J_i] * theta / n, 1).  Present edges
carry a weight drawn from the listener/source pair's weight law, and the
listener-normalized weights form the row-stochastic influence matrix.

Edge sampling is blocked by (listener community, source community).
Blocks with edge probability >= DENSE_P run vectorized Bernoulli draws
over the candidate grid; sparser blocks skip through the flattened grid
with geometric gaps (Batagelj & Brandes, Phys. Rev. E 71, 2005), for
O(#edges) expected cost.  A block is kept as per-listener hit counts and
int32 sources.  The in-degrees then fix the CSR layout, and each block
is scattered into place: a row holds its source blocks in community
order, each block's sources ascending.  C is kept as the graph's raw
weights over their row totals, so graph plus C hold 12 bytes per edge.
The raw weights B are a ``CSRView`` on the graph's own arrays, applied
with scipy's compiled CSR loops; ``scipy.sparse`` itself is not
imported, since with its array-API layer it costs every process about
0.15 s and 14 MB of RSS before the first draw.

Every pass over cells, draws or edges works on pieces of about CHUNK
(row-aligned runs from ``_row_runs``, or sub-draws of one geometric
batch), so no temporary grows with the edge count.  Weights are drawn
per row run too; every law's stream continues across calls, so the
bytes do not depend on CHUNK.  Building the graph and C peaks at about
17 B per edge above what was allocated before (tracemalloc, n = 2e5:
17.3 at equal shares, 7.4 M edges, and 17.2 at shares 0.95/0.05,
10.4 M edges; placing holds the final arrays and the int32 sources of
the runs not yet placed) and about 13 B per edge with one community
(n = 2e5 geometric, or n = 2000 Bernoulli).
"""

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy

from . import rng as rngmod
from .rng import substream

DENSE_P = 0.25          # per-block sampler switch
CHUNK = 1 << 16         # grid cells per Bernoulli draw, edges per CSR scatter step


def _load_sparsetools():
    """scipy's compiled sparse kernels, loaded from scipy's install folder
    so that ``scipy/sparse/__init__.py`` never runs."""
    name = "scipy.sparse._sparsetools"
    folder = os.path.join(os.path.dirname(scipy.__file__), "sparse")
    paths = [os.path.join(folder, "_sparsetools" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in paths:
        if os.path.isfile(path):
            loader = importlib.machinery.ExtensionFileLoader(name, path)
            module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
            loader.exec_module(module)
            return module
    raise ImportError(f"scipy's compiled sparse kernels are missing: no file {paths[0]}")


_sparsetools = _load_sparsetools()


@dataclass
class GraphSample:
    """One realized dSBM with vertex marks and in-edge lists.

    In-edges are stored CSR-style: the sources of listener i are
    ``sources[indptr[i]:indptr[i+1]]``, with parallel raw weights
    ``weights[indptr[i]:indptr[i+1]]``.  They are grouped by source
    community in label order and ascend within each community.
    """

    n: int
    labels: np.ndarray
    indptr: np.ndarray
    sources: np.ndarray
    weights: np.ndarray
    beliefs: np.ndarray
    no_inbound: np.ndarray

    def in_degrees(self):
        return np.diff(self.indptr)

    def edge_count(self):
        return int(self.indptr[-1])


class CSRView:
    """A CSR matrix on given arrays, applied with the loops that scipy's
    ``csr_matrix @`` dispatches to: ``csr_matvec`` for a vector or one
    column, ``csr_matvecs`` for several, so the bytes are scipy's.
    ``indptr`` and ``indices`` share one integer dtype, or the kernels
    cast a copy on every call."""

    def __init__(self, data, indices, indptr, shape):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = shape

    def __matmul__(self, X):
        X = np.ascontiguousarray(X, dtype=np.float64)
        M, N = self.shape
        if X.ndim not in (1, 2) or X.shape[0] != N:
            raise ValueError(f"cannot apply a {M} x {N} matrix to an array of shape {X.shape}")
        if X.ndim == 1 or X.shape[1] == 1:
            Y = np.zeros(M)
            _sparsetools.csr_matvec(M, N, self.indptr, self.indices, self.data, X.ravel(), Y)
            return Y if X.ndim == 1 else Y.reshape(M, 1)
        Y = np.zeros((M, X.shape[1]))
        _sparsetools.csr_matvecs(M, N, X.shape[1], self.indptr, self.indices, self.data,
                                 X.ravel(), Y.ravel())
        return Y


class InfluenceMatrix:
    """Row-stochastic listening weights C; rows with no positive weight are zero.

    ``normalize_weights`` keeps C factored: ``weights`` is the raw weight
    matrix B as a ``CSRView`` on the graph's own ``weights``, ``sources``
    and ``indptr`` (not copies: neither side may change them in place), and
    ``divisor`` holds each row's total, inf where it is not positive.  No
    value of C is stored, and ``propagate`` is a serial CSR loop, so its
    bytes do not depend on the BLAS thread count.  Given no ``divisor``,
    ``matrix`` is C itself (CSR or ndarray); ``dense`` is ignored.
    """

    def __init__(self, matrix, zero_rows, dense=False, divisor=None):
        self.weights = matrix       # B, or C when divisor is None
        self.zero_rows = zero_rows  # bool per listener
        self.divisor = divisor

    @property
    def n(self):
        return self.weights.shape[0]

    @property
    def matrix(self):
        """C as scipy CSR, built from the factors on each access, on the
        graph's index arrays unless a value is 0; for tests and inspection
        only, so scipy.sparse is imported here."""
        import scipy.sparse as sp

        B = self.weights
        if self.divisor is None:
            return B
        values = B.data / np.repeat(self.divisor, np.diff(B.indptr))
        mat = sp.csr_matrix((values, B.indices, B.indptr), shape=B.shape)
        if not values.all():  # eliminate_zeros works in place, so on a copy
            mat = mat.copy()
            mat.eliminate_zeros()
        return mat

    def propagate(self, X):
        """C @ X as a dense array."""
        Y = np.asarray(self.weights @ X)
        if self.divisor is not None:
            Y /= self.divisor[:, None] if Y.ndim == 2 else self.divisor
        return Y

    def row_sums(self):
        return np.asarray(self.matrix.sum(axis=1)).ravel()


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


def _row_runs(bounds):
    """Split rows into consecutive runs of about CHUNK items.

    ``bounds`` holds the cumulative item count per row (length rows + 1).
    Yields (r0, r1, a, b): rows r0..r1-1 hold items a..b-1.  A row with
    more than CHUNK items is a run of its own.
    """
    r0 = 0
    while r0 < bounds.size - 1:
        a = int(bounds[r0])
        r1 = max(int(np.searchsorted(bounds, a + CHUNK, side="right")) - 1, r0 + 1)
        yield r0, r1, a, int(bounds[r1])
        r0 = r1


def _block_pieces(rng, n_rows, n_cols, p):
    """Bernoulli(p) hits on an n_rows x n_cols grid as (rows, cols) in
    row-major order, one piece per row run of about CHUNK cells or per
    sub-draw of at most CHUNK geometric gaps."""
    if p <= 0.0 or n_rows == 0 or n_cols == 0:
        return
    total = n_rows * n_cols
    if p >= DENSE_P:
        # the stream of one rng.random(total), drawn a few whole rows at a time
        for _, _, a, b in _row_runs(np.arange(n_rows + 1, dtype=np.int64) * n_cols):
            flat = np.arange(a, b) if p >= 1.0 else np.flatnonzero(rng.random(b - a) < p) + a
            yield _grid_cells(flat, n_cols)
    else:
        # geometric skipping over the flattened grid; each batch is drawn in
        # pieces of at most CHUNK, which leaves the stream where one draw would.
        # A gap longer than total + 1 leaves the grid all the same, so gaps are
        # clipped there: a sub-draw's cumsum stays below CHUNK * (total + 1),
        # within int64 for any p on blocks of up to 1e14 cells.
        pos, done = -1, False
        expect = p * total
        batch = max(int(expect + 6.0 * np.sqrt(expect) + 16), 16)
        while not done:
            for a in range(0, batch, CHUNK):
                pts = _geometric_gaps(rng, p, min(CHUNK, batch - a), total + 1)
                if done:  # past the grid: the rest of the batch is drawn and dropped
                    continue
                np.cumsum(pts, out=pts)
                pts += pos
                cut = int(np.searchsorted(pts, total))
                yield _grid_cells(pts[:cut], n_cols)
                done = cut < pts.size
                pos = int(pts[-1])
            batch = max(batch // 4, 16)


def _geometric_gaps(rng, p, size, cap):
    """size Geometric(p) draws, clipped at cap, as int64.

    ceil(E / -log1p(-p)) for a standard exponential E is how numpy draws
    rng.geometric(p) for p < 1/3, so for such p these are its values and
    its stream, at about half the cost per draw.
    """
    gaps = rng.standard_exponential(size)
    with np.errstate(over="ignore"):  # a subnormal p gives inf, clipped below
        gaps /= -math.log1p(-p)
    np.ceil(gaps, out=gaps)
    np.minimum(gaps, cap, out=gaps)
    return gaps.astype(np.int64)


def _grid_cells(flat, n_cols):
    """Row-major flat indices as (rows, cols)."""
    # numpy divides by a scalar much faster than it takes % or divmod
    rows = flat // n_cols
    cols = rows * n_cols
    np.subtract(flat, cols, out=cols)
    return rows, cols


def _block_pairs(rng, n_rows, n_cols, p):
    """Indices of Bernoulli(p) hits on an n_rows x n_cols grid, in
    row-major order."""
    pieces = list(_block_pieces(rng, n_rows, n_cols, p))
    if not pieces:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return tuple(np.concatenate(part) for part in zip(*pieces))


def _block_run(rng, tgt_idx, src_idx, p, diagonal):
    """One block's hits as per-listener counts and int32 global sources."""
    counts = np.zeros(tgt_idx.size, dtype=np.int64)
    sources = [np.empty(0, np.int32)]
    for rows, cols in _block_pieces(rng, tgt_idx.size, src_idx.size, p):
        if diagonal:  # tgt_idx[i] == src_idx[j] iff i == j
            keep = rows != cols
            rows = rows[keep]
            cols = cols[keep]
        if rows.size:  # rows ascend
            counts[rows[0]:rows[-1] + 1] += np.bincount(rows - rows[0])
        sources.append(src_idx[cols])
    return counts, np.concatenate(sources)


def sample_graph(spec, labels, theta, seed):
    """Sample edges, weights and beliefs for one graph realization."""
    if theta <= 0:
        raise ValueError("theta must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    edge_rng = substream(seed, rngmod.EDGES)
    weight_rng = substream(seed, rngmod.WEIGHTS)
    belief_rng = substream(seed, rngmod.BELIEFS)

    idx_by_label = [np.flatnonzero(labels == r).astype(np.int32) for r in range(spec.K)]
    runs = [[] for _ in range(spec.K)]  # per listener community: (hits per listener, sources)
    degree = np.zeros(n, dtype=np.int64)
    for r, tgt_idx in enumerate(idx_by_label):      # listener community
        for s, src_idx in enumerate(idx_by_label):  # source community
            p = min(spec.kappa[s, r] * theta / n, 1.0)
            counts, src = _block_run(edge_rng, tgt_idx, src_idx, p, r == s)
            degree[tgt_idx] += counts
            runs[r].append((counts, src))

    m = int(degree.sum())
    indptr = np.concatenate(([0], np.cumsum(degree))).astype(np.int32 if m < 2**31 else np.int64)
    if spec.K == 1:  # the one run is in CSR order already
        sources = runs[0][0][1]
        weights = np.empty(m)
        for _, _, a, b in _row_runs(indptr):
            weights[a:b] = spec.weight_dists[0][0].sample(weight_rng, size=b - a)
    else:
        sources = np.empty(m, dtype=np.int32)
        weights = np.empty(m)
        for r, tgt_idx in enumerate(idx_by_label):
            _place_community(runs[r], spec.weight_dists[r], weight_rng, tgt_idx, indptr,
                             sources, weights)
    beliefs = spec.sample_beliefs(labels, belief_rng)
    return GraphSample(
        n=n, labels=labels,
        indptr=indptr, sources=sources, weights=weights,
        beliefs=beliefs, no_inbound=degree == 0,
    )


def _place_community(blocks, weight_dists, weight_rng, tgt_idx, indptr, sources, weights):
    """Place one listener community's runs, with their weights, into the
    graph's CSR slots; empties ``blocks``.

    Within a row, source block s follows block s - 1.  A run lists its
    edges by listener already, so an edge's slot is its listener's next
    free slot plus its rank among that listener's edges in the run.
    Each row run's weights are drawn as it is placed, in edge order, so
    placing holds no weight array besides the graph's own: its peak is
    the final arrays plus the int32 sources of the runs not yet placed,
    about 17 B per edge at any shares.
    """
    fill = indptr[tgt_idx]  # each local listener's next free slot
    for (counts, src), dist in zip(blocks, weight_dists):
        starts = np.concatenate(([0], np.cumsum(counts)))
        for r0, r1, a, b in _row_runs(starts):
            slot = np.repeat(fill[r0:r1] - starts[r0:r1], counts[r0:r1]) + np.arange(a, b)
            sources[slot] = src[a:b]
            weights[slot] = dist.sample(weight_rng, size=b - a)
        fill += counts
    blocks.clear()


def normalize_weights(graph):
    """The influence matrix as the graph's raw weights over their row totals."""
    n = graph.n
    divisor = np.empty(n)
    degrees = graph.in_degrees()
    for r0, r1, a, b in _row_runs(graph.indptr):
        # bincount adds each row's weights in edge order, as it would over the whole graph
        divisor[r0:r1] = np.bincount(np.repeat(np.arange(r1 - r0), degrees[r0:r1]),
                                     weights=graph.weights[a:b], minlength=r1 - r0)
    zero_rows = divisor <= 0.0  # weights are >= 0, so such a row holds only zeros
    divisor[zero_rows] = np.inf
    # the kernels take one index dtype: an int64 indptr (m >= 2**31) gets int64 sources
    B = CSRView(graph.weights, graph.sources.astype(graph.indptr.dtype, copy=False),
                graph.indptr, (n, n))
    return InfluenceMatrix(matrix=B, zero_rows=zero_rows, divisor=divisor)

