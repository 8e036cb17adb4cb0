import dataclasses
import math
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import opinionlab as ol
from opinionlab import dynamics, graph
from opinionlab import rng as rngmod
from opinionlab.distributions import Point, Uniform, VectorDist
from opinionlab.graph import CHUNK, DENSE_P, _block_pairs
from opinionlab.model import ModelSpec
from opinionlab.rng import substream

from conftest import random_spec


def one_community_spec(weight=Point(1.0)):
    return ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[weight]],
        belief_dists=[VectorDist((Uniform(-1, 1),))],
        signal_dists=[VectorDist((Uniform(-0.5, 0.5),))],
    )


def test_single_community_labels_all_zero():
    spec = one_community_spec()
    labels = ol.sample_labels(spec, 5, 1)
    assert labels.tolist() == [0] * 5
    assert (np.bincount(labels, minlength=1) / labels.size).tolist() == [1.0]


def test_degenerate_share_vector():
    spec = random_spec(0, K=2)
    spec.pi = np.array([1.0 - 1e-12, 1e-12])
    labels = ol.sample_labels(spec, 10, 4)
    assert np.all(labels == 0)


def test_share_concentration_binomial_oracle():
    # |pi_hat - 0.5| < 0.02 for n = 10^4 fails with prob ~6e-5 per seed
    spec = random_spec(1, K=2)
    spec.pi = np.array([0.5, 0.5])
    hits = 0
    for seed in range(1000):
        labels = ol.sample_labels(spec, 10_000, seed)
        if abs(np.bincount(labels, minlength=2)[0] / labels.size - 0.5) < 0.02:
            hits += 1
    assert hits >= 990


def test_fixed_composition_exact_census():
    spec = random_spec(2, K=3, fixed_composition=True)
    spec.pi = np.array([0.2, 0.3, 0.5])
    labels = ol.sample_labels(spec, 1000, 9)
    assert np.bincount(labels, minlength=3).tolist() == [200, 300, 500]


def test_zero_kernel_gives_empty_graph():
    spec = one_community_spec()
    spec.kappa = np.array([[0.0]])
    labels = ol.sample_labels(spec, 50, 3)
    g = ol.sample_graph(spec, labels, 10.0, 3)
    assert g.edge_count() == 0
    assert np.all(g.no_inbound)


def test_saturated_kernel_gives_complete_graph():
    spec = one_community_spec()
    n = 40
    spec.kappa = np.array([[float(n) / 2.0]])  # kappa * theta / n = 1 at theta = 2
    labels = ol.sample_labels(spec, n, 3)
    g = ol.sample_graph(spec, labels, 2.0, 3)
    assert g.edge_count() == n * (n - 1)
    assert np.all(g.in_degrees() == n - 1)


def test_mean_in_degree_matches_binomial_oracle():
    # in-degree ~ Binomial(n-1, theta/n), mean ~= theta
    spec = one_community_spec()
    n, theta, seeds = 1000, 10.0, 200
    total = 0.0
    for seed in range(seeds):
        g = ol.sample_graph(spec, ol.sample_labels(spec, n, seed), theta, seed)
        total += g.in_degrees().mean()
    mean = total / seeds
    var_one = (n - 1) * (theta / n) * (1 - theta / n)
    se = np.sqrt(var_one / n / seeds)  # graph-mean averages n nearly independent degrees
    assert abs(mean - theta * (n - 1) / n) < 3 * max(se, 0.02)


def test_block_pair_frequency_matches_probability():
    rng = np.random.default_rng(5)
    for p in (0.03, DENSE_P / 2, 0.6):
        reps, rows, cols = 300, 40, 41
        count = sum(_block_pairs(rng, rows, cols, p)[0].size for _ in range(reps))
        total = reps * rows * cols
        se = np.sqrt(p * (1 - p) / total)
        assert abs(count / total - p) < 4 * se


@pytest.mark.parametrize("n_rows, n_cols", [
    (3, 7),                       # below one chunk
    (512, CHUNK // 512),          # exactly one chunk
    (700, 600),                   # a few chunks, the last one short
    (3, CHUNK + 5),               # rows wider than a chunk
])
def test_bernoulli_branch_matches_one_shot_draw(n_rows, n_cols):
    p = 0.4
    assert p >= DENSE_P
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    rows, cols = _block_pairs(rng, n_rows, n_cols, p)
    flat = np.flatnonzero(ref_rng.random(n_rows * n_cols) < p)
    assert np.array_equal(rows, flat // n_cols) and np.array_equal(cols, flat % n_cols)
    assert rng.random() == ref_rng.random()  # the same stream, consumed to the same point


def one_shot_geometric(rng, n_rows, n_cols, p):
    """Geometric skipping with each batch drawn by one rng.geometric call."""
    total = n_rows * n_cols
    hits, pos = [], -1
    expect = p * total
    batch = max(int(expect + 6.0 * np.sqrt(expect) + 16), 16)
    while True:
        pts = rng.geometric(p, size=batch)
        np.cumsum(pts, out=pts)
        pts += pos
        cut = int(np.searchsorted(pts, total))
        hits.append(pts[:cut])
        if cut < batch:
            return np.concatenate(hits)
        pos = int(pts[-1])
        batch = max(batch // 4, 16)


@pytest.mark.parametrize("n_rows, n_cols, chunk, short_batches", [
    (3, 7, CHUNK, False),             # below one sub-draw
    (1000, 2000, CHUNK, False),       # a 202 k-draw batch in four sub-draws
    (50, 80, 64, False),              # the grid ends mid-batch: later sub-draws are dropped
    (50, 80, 64, True),               # several batches
    (50, 80, 5, True),                # several batches, each in sub-draws
])
def test_geometric_branch_matches_one_shot_draw(monkeypatch, n_rows, n_cols, chunk,
                                                short_batches):
    p = 0.1
    assert p < DENSE_P
    monkeypatch.setattr(graph, "CHUNK", chunk)
    if short_batches:
        # a batch falls short only some 6 sd out: cut it to its 16-draw floor
        monkeypatch.setattr(np, "sqrt", lambda x: -float(x))
    rng, ref_rng = np.random.default_rng(23), np.random.default_rng(23)
    rows, cols = _block_pairs(rng, n_rows, n_cols, p)
    flat = one_shot_geometric(ref_rng, n_rows, n_cols, p)
    assert flat.size > 0 or n_rows * n_cols < 50
    assert np.array_equal(rows, flat // n_cols) and np.array_equal(cols, flat % n_cols)
    assert rng.random() == ref_rng.random()  # the same stream, consumed to the same point
    # the gaps themselves are rng.geometric's, and leave the stream where it does
    total = n_rows * n_cols
    rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
    gaps = graph._geometric_gaps(rng, p, total, total + 1)
    assert np.array_equal(gaps, np.minimum(ref_rng.geometric(p, size=total), total + 1))
    assert gaps.dtype == np.int64 and rng.random() == ref_rng.random()


@pytest.mark.parametrize("p", [1e-6, 0.001, 0.0031, 0.0118, 0.2, np.nextafter(DENSE_P, 0)])
def test_geometric_gaps_match_numpy_geometric(p):
    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    gaps = graph._geometric_gaps(rng, p, 1 << 16, np.iinfo(np.int64).max)
    assert np.array_equal(gaps, ref_rng.geometric(p, size=1 << 16))
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("p", [1e-19, 1e-300, 5e-324])
def test_tiny_probability_block_has_no_hits(p):
    # numpy clamps such gaps to INT64_MAX, which would overflow the position cumsum
    rng, ref_rng = np.random.default_rng(37), np.random.default_rng(37)
    rows, cols = _block_pairs(rng, 1000, 1000, p)
    assert rows.size == 0 and cols.size == 0
    ref_rng.geometric(p, size=16)  # one batch at its 16-draw floor
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("chunk", [1, 7, 500])
def test_graph_bytes_do_not_depend_on_chunk(monkeypatch, chunk):
    # many pieces per block, placement and normalization against the default one-piece build
    def build(spec, labels, theta, seed):
        g = ol.sample_graph(spec, labels, theta, seed)
        C = ol.normalize_weights(g)
        return [g.indptr, g.sources, g.weights, C.matrix.data, C.matrix.indices, C.matrix.indptr]

    cases = []
    for seed in range(4):
        spec = random_spec(seed, K=1 + seed, allow_zero_rows=bool(seed % 2))
        labels = ol.sample_labels(spec, 150, seed)
        cases += [(spec, labels, theta, seed) for theta in (6.0, 80.0)]
    expected = [build(*case) for case in cases]
    monkeypatch.setattr(graph, "CHUNK", chunk)
    for case, want in zip(cases, expected):
        got = build(*case)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def error_sparse_spec(pi=(0.5, 0.5)):
    return ModelSpec(
        K=2, ell=1, pi=list(pi), kappa=[[1.5, 0.5], [0.5, 1.5]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[Uniform(0.2, 1.0)] * 2] * 2,
        belief_dists=[VectorDist((Uniform(-1, 1),))] * 2,
        signal_dists=[VectorDist((Uniform(-1, 1),))] * 2,
    )


ERROR_SPARSE_THETA = 2.0 * math.e**2 * math.log(math.log(200_000))


@pytest.mark.parametrize("spec, n, theta, peak_bound", [
    # the error_sparse model at n = 2e5, theta = 2 e^2 loglog n: about 7.4 M edges, geometric;
    # its peak is the placement of each listener community's runs (measured 17.3 B)
    (error_sparse_spec(), 200_000, ERROR_SPARSE_THETA, 18.0),
    # the same at unequal shares: about 10.4 M edges, one community holding most (17.2 B)
    (error_sparse_spec((0.95, 0.05)), 200_000, ERROR_SPARSE_THETA, 18.0),
    # one community at p = 0.3 >= DENSE_P: about 1.2 M edges, Bernoulli
    (one_community_spec(Uniform(0.2, 1.0)), 2000, 600.0, 16.0),
], ids=["two_communities_geometric", "unequal_shares_geometric", "one_community_bernoulli"])
def test_build_peak_bytes_per_edge(spec, n, theta, peak_bound):
    # steady state is 12 B per edge for the graph; C adds only its row divisors
    labels = ol.sample_labels(spec, n, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = ol.sample_graph(spec, labels, theta, 1)
        before, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        C = ol.normalize_weights(g)
        held, normalize_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = g.edge_count()
    assert m > 1_000_000
    assert (max(build_peak, normalize_peak) - base) / m <= peak_bound
    assert (normalize_peak - before) / m <= 1.0
    assert (held - base) / m <= 13.0
    assert C.matrix.nnz == m


def test_influence_shares_graph_index_arrays(monkeypatch):
    spec = random_spec(3, K=2)
    spec.weight_dists = [[Uniform(0.2 * spec.H, spec.H)] * 2] * 2  # every weight positive
    labels = ol.sample_labels(spec, 300, 3)
    g = ol.sample_graph(spec, labels, 12.0, 3)
    C = ol.normalize_weights(g)
    assert np.shares_memory(C.weights.data, g.weights)
    assert np.shares_memory(C.weights.indices, g.sources)
    assert np.shares_memory(C.weights.indptr, g.indptr)
    assert np.shares_memory(C.matrix.indices, g.sources)
    assert np.shares_memory(C.matrix.indptr, g.indptr)

    # a full run neither sorts nor prunes the shared arrays
    kept = []

    def sample_and_keep(*args):
        graph = ol.sample_graph(*args)
        kept.append((graph, graph.indptr.copy(), graph.sources.copy(), graph.weights.copy()))
        return graph

    monkeypatch.setattr(dynamics, "sample_graph", sample_and_keep)
    dynamics.run_graph(spec, labels, 12.0, 5, 3, lambda state, frame: None)
    graph, indptr, sources, weights = kept[0]
    assert np.array_equal(graph.indptr, indptr) and np.array_equal(graph.sources, sources)
    assert np.array_equal(graph.weights, weights)


def view_graph(K, int64_indptr=False):
    """A graph with zero rows; with int64_indptr, C's view carries int64
    copies of its sources."""
    spec = random_spec(20 + K, K=K)
    g = ol.sample_graph(spec, ol.sample_labels(spec, 300, K), 3.0, K)
    assert g.no_inbound.any() and g.edge_count() > 0
    return dataclasses.replace(g, indptr=g.indptr.astype(np.int64)) if int64_indptr else g


@pytest.mark.parametrize("K, int64_indptr", [(1, False), (2, False), (2, True)])
def test_view_product_is_scipy_bytes(K, int64_indptr):
    g = view_graph(K, int64_indptr)
    B = ol.normalize_weights(g).weights
    assert B.indices.dtype == B.indptr.dtype == g.indptr.dtype
    assert np.shares_memory(B.indices, g.sources) != int64_indptr
    reference = sp.csr_matrix((B.data, B.indices, B.indptr), shape=B.shape)
    rng = np.random.default_rng(K)
    for shape in ((g.n,), (g.n, 1), (g.n, 4), (g.n, 16)):
        X = rng.uniform(-1.0, 1.0, size=shape)
        for x in (X, np.asfortranarray(X)):
            Y, want = B @ x, reference @ x
            assert Y.shape == want.shape and Y.dtype == want.dtype
            assert Y.tobytes() == want.tobytes()


def test_missing_kernel_module_names_its_path(monkeypatch, tmp_path):
    monkeypatch.setattr(graph, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=str(tmp_path / "sparse" / "_sparsetools")):
        graph._load_sparsetools()


def test_view_single_column_takes_vector_loop(monkeypatch):
    # scipy sends an (n, 1) X through csr_matvec; csr_matvecs gives the same bytes, slower
    class Recorder:
        def __init__(self, kernels):
            self.kernels, self.calls = kernels, []

        def __getattr__(self, name):
            self.calls.append(name)
            return getattr(self.kernels, name)

    recorder = Recorder(graph._sparsetools)
    monkeypatch.setattr(graph, "_sparsetools", recorder)
    g = view_graph(2)
    B = ol.normalize_weights(g).weights
    for shape, loop in (((g.n,), "csr_matvec"), ((g.n, 1), "csr_matvec"), ((g.n, 4), "csr_matvecs")):
        recorder.calls.clear()
        B @ np.ones(shape)
        assert recorder.calls == [loop]
    recorder.calls.clear()
    for shape in ((g.n + 1,), (g.n - 1, 2), (g.n, 1, 1)):
        with pytest.raises(ValueError):
            B @ np.ones(shape)
    assert recorder.calls == []


@pytest.mark.parametrize("seed", range(8))
def test_factored_propagate_matches_built_matrix(seed):
    # (B @ X) / row totals against the product with C built entry by entry
    rng = np.random.default_rng(seed)
    spec = random_spec(seed, K=1 + seed // 2, allow_zero_rows=True)
    if seed % 2:  # a block whose weights are all zero
        r, s = rng.integers(0, spec.K, size=2)
        spec.weight_dists[r][s] = Point(0.0)
    n = 120
    labels = ol.sample_labels(spec, n, seed)
    for theta in (4.0, 60.0):  # geometric-skip blocks, then Bernoulli and complete ones
        C = ol.normalize_weights(ol.sample_graph(spec, labels, theta, seed))
        built = C.matrix
        for shape in ((n,), (n, 1), (n, 4)):
            for X in (rng.uniform(-1.0, 1.0, size=shape), rng.choice([-1.0, 1.0], size=shape)):
                Y = C.propagate(X)
                assert Y.shape == shape
                assert np.abs(Y - built @ X).max() <= 1e-14
                assert np.all(Y[C.zero_rows] == 0.0)
                assert np.abs(Y).max() <= 1.0 + 1e-12


def assert_in_edge_layout(g):
    degrees = np.diff(g.indptr)
    assert g.indptr[0] == 0 and np.all(degrees >= 0)
    assert g.indptr[-1] == g.edge_count() == g.sources.size == g.weights.size
    rows = np.repeat(np.arange(g.n), degrees)
    # each listener's sources strictly increase by (community, id), so no edge is stored twice
    key = g.labels[g.sources] * g.n + g.sources
    assert np.all(np.diff(key)[rows[1:] == rows[:-1]] > 0)
    assert np.all(g.sources != rows)
    assert np.array_equal(g.no_inbound, degrees == 0)


@pytest.mark.parametrize("seed", range(6))
def test_in_edge_layout(seed):
    spec = random_spec(seed, K=2 + seed % 2, allow_zero_rows=True)
    labels = ol.sample_labels(spec, 120, seed)
    for theta in (4.0, 60.0):  # geometric-skip blocks, then Bernoulli and complete ones
        assert_in_edge_layout(ol.sample_graph(spec, labels, theta, seed))


@pytest.mark.parametrize("seed", range(6))
def test_rows_hold_source_blocks_in_stream_order(seed):
    # oracle: redraw each (listener, source) block from the edge stream and read
    # its run out of every row, then its weights, row-major, from the weight stream
    K = 2 + seed % 3
    spec = random_spec(seed, K=K, allow_zero_rows=True)
    n = 150
    labels = ol.sample_labels(spec, n, seed)
    idx = [np.flatnonzero(labels == r) for r in range(K)]
    branches = set()
    for theta in (4.0, 60.0):  # geometric-skip blocks, then mostly Bernoulli ones
        g = ol.sample_graph(spec, labels, theta, seed)
        edge_rng = substream(seed, rngmod.EDGES)
        weight_rng = substream(seed, rngmod.WEIGHTS)
        fill = g.indptr[:-1].astype(np.int64)  # each listener's first unread slot
        for r in range(K):
            for s in range(K):
                p = min(spec.kappa[s, r] * theta / n, 1.0)
                branches.add(p >= DENSE_P)
                rows, cols = _block_pairs(edge_rng, idx[r].size, idx[s].size, p)
                if r == s:
                    keep = rows != cols
                    rows, cols = rows[keep], cols[keep]
                counts = np.bincount(rows, minlength=idx[r].size)
                slots = np.concatenate([np.empty(0, np.int64)] + [
                    np.arange(fill[t], fill[t] + c) for t, c in zip(idx[r], counts)])
                assert np.array_equal(g.sources[slots], idx[s][cols])
                draws = spec.weight_dists[r][s].sample(weight_rng, size=cols.size)
                assert np.array_equal(g.weights[slots], draws)
                fill[idx[r]] += counts
        assert np.array_equal(fill, g.indptr[1:])
    assert branches == {False, True}


def test_in_edge_layout_edgeless_graph():
    spec = one_community_spec()
    spec.kappa = np.array([[0.0]])
    g = ol.sample_graph(spec, ol.sample_labels(spec, 7, 3), 10.0, 3)
    assert_in_edge_layout(g)
    assert g.indptr.tolist() == [0] * 8


def test_normalize_leaves_graph_arrays_alone():
    # zero weights are dropped from C, not from the graph's in-edge lists
    spec = one_community_spec(weight=Point(0.0))
    g = ol.sample_graph(spec, ol.sample_labels(spec, 30, 8), 5.0, 8)
    indptr, sources = g.indptr.copy(), g.sources.copy()
    C = ol.normalize_weights(g)
    assert C.matrix.nnz == 0
    assert np.array_equal(g.indptr, indptr) and np.array_equal(g.sources, sources)


def test_normalize_hand_case():
    spec = one_community_spec(weight=Uniform(0.0, 1.0))
    g = ol.GraphSample(
        n=4, labels=np.zeros(4, dtype=np.int64),
        indptr=np.array([0, 3, 4, 4, 4]), sources=np.array([1, 2, 3, 0]),
        weights=np.array([1.0, 1.0, 2.0, 1.0]), beliefs=np.zeros((4, 1)),
        no_inbound=np.array([False, False, True, True]),
    )
    C = ol.normalize_weights(g)
    dense = C.matrix.toarray()
    assert dense[0].tolist() == [0.0, 0.25, 0.25, 0.5]
    assert dense[1, 0] == 1.0  # single in-neighbor gets weight one
    assert np.all(dense[2] == 0.0) and np.all(dense[3] == 0.0)
    assert C.zero_rows.tolist() == [False, False, True, True]


def test_zero_weight_row_is_zero_not_error():
    spec = one_community_spec(weight=Point(0.0))
    labels = ol.sample_labels(spec, 30, 8)
    g = ol.sample_graph(spec, labels, 5.0, 8)
    C = ol.normalize_weights(g)
    assert np.all(C.row_sums() == 0.0)
    # no-inbound indicator still tracks edges, not weights
    assert g.no_inbound.sum() < 30


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15)
def test_row_sums_and_ranges(seed):
    spec = random_spec(seed)
    labels = ol.sample_labels(spec, 60, seed)
    g = ol.sample_graph(spec, labels, 8.0, seed)
    C = ol.normalize_weights(g)
    sums = C.row_sums()
    assert np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0))
    assert np.abs(C.matrix).sum(axis=1).max() <= 1.0 + 1e-12
    assert np.all(g.weights >= 0.0) and np.all(g.weights <= spec.H + 1e-9)
    assert np.all(np.abs(g.beliefs) <= 1.0 + 1e-12)
    assert np.all(C.matrix.diagonal() == 0.0)


def test_determinism_same_seed_identical_graph():
    spec = random_spec(11)
    labels = ol.sample_labels(spec, 80, 13)
    g1 = ol.sample_graph(spec, labels, 6.0, 13)
    g2 = ol.sample_graph(spec, labels, 6.0, 13)
    assert np.array_equal(g1.sources, g2.sources)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.weights, g2.weights)
    assert np.array_equal(g1.beliefs, g2.beliefs)
    g3 = ol.sample_graph(spec, labels, 6.0, 14)
    assert not (
        np.array_equal(g1.sources, g3.sources) and np.array_equal(g1.weights, g3.weights)
    )


def test_high_degree_influence_is_csr():
    # one storage format at every density: C stays CSR at mean in-degree ~ n/2
    spec = one_community_spec()
    n = 32
    spec.kappa = np.array([[8.0]])  # p = 8 * 2 / 32 = 0.5 -> mean in-degree ~ n/2
    labels = ol.sample_labels(spec, n, 1)
    g = ol.sample_graph(spec, labels, 2.0, 1)
    assert g.edge_count() > n * n / 4
    C = ol.normalize_weights(g)
    assert sp.issparse(C.matrix) and C.matrix.format == "csr"
    assert C.matrix.nnz == g.edge_count()

