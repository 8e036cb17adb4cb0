import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opinionlab as ol
from opinionlab import gwtree
from opinionlab.distributions import Mixture, Point, Uniform, VectorDist, sample_by_label
from opinionlab.gwtree import TreeBudgetError
from opinionlab.model import ModelSpec

from conftest import random_spec
from oracles import GWTree, TreeLevel, path_weight_sum, sample_tree, weighted_generation_sum


def one_type_spec(weight=Point(1.0), belief=Uniform(-1, 1)):
    return ModelSpec(
        K=1, ell=1, pi=[1.0], kappa=[[1.0]], c=0.3, d=0.2, H=1.0,
        weight_dists=[[weight]],
        belief_dists=[VectorDist((belief,))],
        signal_dists=[VectorDist((Uniform(-0.5, 0.5),))],
    )


def test_offspring_means_matrix():
    spec = random_spec(1, K=2)
    spec.kappa = np.array([[2.0, 1.0], [0.5, 3.0]])
    q = ol.offspring_means(spec, [0.25, 0.75], 4.0)
    assert q[0, 1] == pytest.approx(1.0 * 0.25 * 4.0)
    assert q[1, 0] == pytest.approx(0.5 * 0.75 * 4.0)


def test_zero_rate_tree_is_root_only():
    spec = one_type_spec()
    tree = sample_tree(spec, 0, np.array([[0.0]]), 3, 1)
    assert [lv.types.size for lv in tree.levels] == [1, 0, 0, 0]
    for s in range(1, 4):
        assert path_weight_sum(tree, s) == 0.0
    assert path_weight_sum(tree, 0) == 1.0


def test_root_offspring_poisson_mean():
    spec = one_type_spec()
    totals = 0
    reps = 10_000
    rng = np.random.default_rng(3)
    for _ in range(reps):
        tree = sample_tree(spec, 0, np.array([[3.0]]), 1, rng)
        totals += tree.levels[1].types.size
    mean = totals / reps
    se = np.sqrt(3.0 / reps)
    assert abs(mean - 3.0) < 3 * se


def test_offspring_census_bookkeeping():
    spec = random_spec(4, K=2)
    q = ol.offspring_means(spec, spec.pi, 3.0)
    tree = sample_tree(spec, 1, q, 2, 9)
    for level_idx in (0, 1):
        level = tree.levels[level_idx]
        child = tree.levels[level_idx + 1]
        for i in range(level.types.size):
            census = np.bincount(child.types[child.parent == i], minlength=2)
            assert np.array_equal(census, level.offspring[i])


def test_path_weights_multiply_along_branches():
    spec = random_spec(5, K=2)
    q = ol.offspring_means(spec, spec.pi, 2.5)
    tree = sample_tree(spec, 0, q, 3, 11)
    for s in range(1, 4):
        level = tree.levels[s]
        parent_paths = tree.levels[s - 1].path_weight
        assert np.allclose(level.path_weight, parent_paths[level.parent] * level.norm_weight)
        total = path_weight_sum(tree, s)
        assert -1e-12 <= total <= 1.0 + 1e-12


def test_zero_weight_atoms_zero_the_subtree():
    spec = one_type_spec(weight=Point(0.0))
    tree = sample_tree(spec, 0, np.array([[4.0]]), 2, 7)
    if tree.levels[1].types.size:
        assert np.all(tree.levels[1].norm_weight == 0.0)
        assert path_weight_sum(tree, 1) == 0.0


def test_budget_guard_raises_with_expected_size():
    spec = one_type_spec()
    with pytest.raises(TreeBudgetError) as err:
        sample_tree(spec, 0, np.array([[50.0]]), 5, 1, node_budget=10_000)
    assert err.value.expected == pytest.approx(50.0**5)


def test_generation_sum_cases():
    spec = one_type_spec()
    tree = sample_tree(spec, 0, np.array([[3.0]]), 2, 5)
    # constant values: the sum collapses to the total path weight
    total = weighted_generation_sum(tree, 2, np.array([1.0]))
    assert total == pytest.approx(path_weight_sum(tree, 2))
    # generation zero returns the root value
    assert weighted_generation_sum(tree, 0, np.array([0.7])) == pytest.approx(0.7)


def test_generation_sum_single_chain_hand_trace():
    K = 1
    levels = [
        TreeLevel(types=np.array([0]), parent=np.array([-1]), weight=np.array([np.nan]),
                  norm_weight=np.array([1.0]), path_weight=np.array([1.0]),
                  offspring=np.array([[1]])),
        TreeLevel(types=np.array([0]), parent=np.array([0]), weight=np.array([0.4]),
                  norm_weight=np.array([1.0]), path_weight=np.array([1.0]),
                  offspring=np.array([[1]])),
        TreeLevel(types=np.array([0]), parent=np.array([0]), weight=np.array([0.9]),
                  norm_weight=np.array([1.0]), path_weight=np.array([1.0]),
                  offspring=np.array([[0]])),
    ]
    tree = GWTree(root_type=0, depth=2, levels=levels)
    assert weighted_generation_sum(tree, 2, np.array([0.7])) == pytest.approx(0.7)


def test_generation_sum_linear_in_values():
    spec = random_spec(6, K=2)
    q = ol.offspring_means(spec, spec.pi, 2.0)
    tree = sample_tree(spec, 0, q, 2, 3)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=2)
    y = rng.uniform(-1, 1, size=2)
    a, b = 0.3, -0.7
    lhs = weighted_generation_sum(tree, 2, a * x + b * y)
    rhs = a * weighted_generation_sum(tree, 2, x) + b * weighted_generation_sum(tree, 2, y)
    assert lhs == pytest.approx(rhs)


def test_generation_sum_per_node_values():
    spec = one_type_spec()
    tree = sample_tree(spec, 0, np.array([[4.0]]), 1, 13)
    m = tree.levels[1].types.size
    vals = np.linspace(-1, 1, max(m, 1))[:m]
    out = weighted_generation_sum(tree, 1, vals)
    assert out == pytest.approx(float(tree.levels[1].path_weight @ vals))


def test_estimate_a_s_zero_row_community():
    spec = random_spec(7, K=2)
    spec.kappa = np.array([[0.0, 1.0], [0.0, 1.0]])  # community 0 has no inbound mass
    q = ol.offspring_means(spec, spec.pi, 3.0)
    beta = spec.weight_mean_matrix()
    Mb = ol.mixing_matrix(spec.pi, spec.kappa, beta)
    ests, _ = ol.a_s_profile(spec, 0, 1, np.array([0.5, -0.5]), q, Mb, 200, 3)
    assert ests[0] == 0.0


def test_estimate_a_s_constant_values_reduce_to_mass_deficit():
    # deterministic values w: deviation is |w| * (1 - total path weight), that
    # is w for a childless root and 0 otherwise, so est ~ w * Binomial(N, p) / N
    spec = one_type_spec()
    q = np.array([[6.0]])
    w, trees = 0.8, 100_000
    (est,), _ = ol.a_s_profile(spec, 0, 1, np.array([w]), q, np.array([[1.0]]), trees, 5)
    p = np.exp(-6.0)  # no-offspring probability ~ 0.0025
    assert abs(est - w * p) <= 4 * w * np.sqrt(p * (1 - p) / trees)  # about +-25%


def test_estimate_a_s_theta_scaling():
    spec = one_type_spec()
    ests = []
    for theta in (8.0, 32.0):
        est, _ = ol.a_s_profile(
            spec, 0, 1, [Uniform(-1, 1)], np.array([[theta]]), np.array([[1.0]]), 4000, 17
        )
        ests.append(est[0])
    ratio = ests[1] / ests[0]
    assert 0.4 < ratio < 0.62  # expect ~ 1/2 under the theta^(-1/2) law


def test_profile_matches_single_level_estimates():
    spec = one_type_spec()
    q = np.array([[5.0]])
    ests, ses = ol.a_s_profile(spec, 0, 3, [Uniform(-1, 1)], q, np.array([[1.0]]), 3000, 23)
    assert ests.shape == (3,)
    assert np.all(ests > 0)
    assert np.all(np.diff(ests) < 0)  # noise averages shrink with depth at fixed theta
    (est1,), (se1,) = ol.a_s_profile(spec, 0, 1, [Uniform(-1, 1)], q, np.array([[1.0]]), 3000, 29)
    assert abs(ests[0] - est1) < 4 * np.hypot(ses[0], se1)


def test_general_weights_match_point_mass_shortcut_in_distribution():
    # the reduceat fast path and the generic path must agree statistically
    spec_point = one_type_spec(weight=Point(0.7))
    spec_unif = one_type_spec(weight=Uniform(0.69, 0.71))
    q = np.array([[10.0]])
    e1, s1 = ol.a_s_profile(spec_point, 0, 2, [Uniform(-1, 1)], q, np.array([[1.0]]), 4000, 31)
    e2, s2 = ol.a_s_profile(spec_unif, 0, 2, [Uniform(-1, 1)], q, np.array([[1.0]]), 4000, 37)
    assert abs(e1[1] - e2[1]) < 5 * np.hypot(s1[1], s2[1]) + 5e-3


def test_k2_batch_sums_match_materialized_trees_in_distribution():
    # the block-wise batch kernel against sample_tree with per-node values
    spec = random_spec(4, K=2)  # Mixture, beta and point weights
    q = ol.offspring_means(spec, spec.pi, 3.0)
    values = [dist.components[0] for dist in spec.belief_dists]
    batch = gwtree.generation_sum_samples(spec, 1, q, 2, values, 4000, 19)
    rng = np.random.default_rng(23)
    direct = np.empty((1500, 2))
    for i in range(1500):
        tree = sample_tree(spec, 1, q, 2, rng)
        for s in (1, 2):
            node_vals = sample_by_label(values, tree.levels[s].types, rng)
            direct[i, s - 1] = weighted_generation_sum(tree, s, node_vals)
    se = np.hypot(batch.std(0, ddof=1) / np.sqrt(4000), direct.std(0, ddof=1) / np.sqrt(1500))
    assert np.all(np.abs(batch.mean(0) - direct.mean(0)) < 4 * se)


@pytest.mark.parametrize("weight", [Point(1.0), Uniform(0.2, 1.0)])
def test_k1_batch_sums_match_materialized_trees_in_distribution(weight):
    # raw-word Uniform values in the batch kernel against float64 dist.sample
    # values on sample_tree: means and second moments of both generations
    spec = one_type_spec(weight=weight)
    q, values = np.array([[4.0]]), [Uniform(-0.5, 1.0)]
    batch = gwtree.generation_sum_samples(spec, 0, q, 2, values, 4000, 41)
    rng = np.random.default_rng(43)
    direct = np.empty((1500, 2))
    for i in range(1500):
        tree = sample_tree(spec, 0, q, 2, rng)
        for s in (1, 2):
            node_vals = values[0].sample(rng, size=tree.levels[s].types.size)
            direct[i, s - 1] = weighted_generation_sum(tree, s, node_vals)
    for power in (1, 2):
        x, y = batch**power, direct**power
        se = np.hypot(x.std(0, ddof=1) / np.sqrt(4000), y.std(0, ddof=1) / np.sqrt(1500))
        assert np.all(np.abs(x.mean(0) - y.mean(0)) < 4 * se)


def raw_halves(value_rng, n):
    """The next ceil(n / 2) raw words of value_rng as Python integers, cut
    into their first n 32-bit halves, low half first."""
    words = [int(w) for w in value_rng.bit_generator.random_raw(-(-n // 2))]
    return [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)][:n]


def test_uniform_values_take_half_a_word_each():
    dist = Uniform(-1.0, 0.5)
    width = dist.hi - dist.lo
    for size in (1, 6, 7):
        got = gwtree._draw_values(dist, np.random.default_rng(3), size)
        ref = np.random.default_rng(3)
        want = [dist.lo + width * 2.0**-33 + width * 2.0**-32 * k for k in raw_halves(ref, size)]
        assert got.dtype == np.float64 and got.tolist() == want
        assert np.all((dist.lo < got) & (got < dist.hi))


@pytest.mark.parametrize("chunk", [1, 5, 7, gwtree._LEAF_CHUNK])
@pytest.mark.parametrize("weight", [Point(1.0), Uniform(0.2, 1.0)])
def test_uniform_leaf_sums_are_exact_from_raw_words(weight, chunk, monkeypatch):
    """A Uniform leaf block's per-parent sums against a reference from the
    same raw words in Python integers: the block spends ceil(N / 2) words
    whatever the run size, a run's spare high half opens the next run, and
    a parent's value sum is count * a + scale * sum(k) with sum(k) exact.
    Weighted sums go through the kernel's float reduction (reduceat) on
    the reference's w * k."""
    monkeypatch.setattr(gwtree, "_LEAF_CHUNK", chunk)
    dist = Uniform(-1.0, 0.5)
    a = dist.lo + (dist.hi - dist.lo) * 2.0**-33
    scale = (dist.hi - dist.lo) * 2.0**-32
    counts = np.random.default_rng(chunk).poisson(3.0, size=301)
    counts[:5] = [1, 0, 1, 1, 3]  # lone draws on both halves of a word, an empty parent
    counts[-1] += 1 - counts.sum() % 2  # an odd block: the last word's high half is unused
    n = int(counts.sum())
    seg_x = np.zeros(counts.size)
    seg_w = None if isinstance(weight, Point) else np.zeros(counts.size)
    rng, value_rng = np.random.default_rng(5), np.random.default_rng(6)
    gwtree._leaf_segment_sums(weight, dist, counts, rng, value_rng, seg_x, seg_w)

    ref_rng, ref_values = np.random.default_rng(5), np.random.default_rng(6)
    k = raw_halves(ref_values, n)
    starts = (np.cumsum(counts) - counts).tolist()
    if seg_w is None:
        want = [c * a + scale * float(sum(k[s : s + c])) for c, s in zip(counts.tolist(), starts)]
        assert seg_x.tolist() == want
    else:
        w = weight.sample(ref_rng, size=n)
        nz = counts > 0
        want_w, wk = np.zeros(counts.size), np.zeros(counts.size)
        want_w[nz] = np.add.reduceat(w, np.array(starts)[nz])
        wk[nz] = np.add.reduceat(w * np.array(k, dtype=float), np.array(starts)[nz])
        assert np.array_equal(seg_w, want_w)
        assert np.array_equal(seg_x, a * want_w + scale * wk)
    # the block took exactly ceil(N / 2) words
    assert value_rng.bit_generator.random_raw() == ref_values.bit_generator.random_raw()


def batched_case(name):
    """(spec, q, values, batch_cap, batch) with batch_cap small enough that
    40 trees of depth 3 take five batches of `batch` trees."""
    if name == "k1_point":
        spec, q = one_type_spec(), np.array([[6.0]])
    elif name == "k1_uniform":
        spec, q = one_type_spec(weight=Uniform(0.0, 1.0)), np.array([[2.5]])
    elif name == "k1_mix":
        spec = one_type_spec(weight=Mixture((0.25, 0.75), (Point(0.0), Uniform(0.2, 1.0))),
                             belief=Mixture((0.5, 0.5), (Uniform(-1.0, 0.0), Point(0.5))))
        q = np.array([[4.0]])
    else:
        spec = random_spec(4, K=2)
        q = ol.offspring_means(spec, spec.pi, 4.0)
    values = [dist.components[0] for dist in spec.belief_dists]
    leaf = float(q.sum(axis=0).max()) ** 3
    return spec, q, values, 8 * leaf, 8


BATCHED = ["k1_point", "k1_uniform", "k1_mix", "k2"]

# sha256 of the 40 x 3 sums of seed 11 below; the K = 1 output bytes are pinned
K1_DIGESTS = {
    "k1_point": "d9df8078e529c0fd177068b3251c24e50a0992d5e8a88ed05b63fa2f5919b67f",
    "k1_uniform": "c3932f2880e4ab7b48efff74cc608f9eed5c0b1fbe3533b05b1cef5dd43c53d4",
}


@pytest.mark.parametrize("name", BATCHED)
def test_generation_sums_same_bytes_at_any_thread_count(name):
    spec, q, values, cap, _ = batched_case(name)
    one = gwtree.generation_sum_samples(spec, 0, q, 3, values, 40, 11, batch_cap=cap)
    two = gwtree.generation_sum_samples(spec, 0, q, 3, values, 40, 11, batch_cap=cap,
                                        threads=2)
    assert one.shape == (40, 3)
    assert one.tobytes() == two.tobytes()
    if name in K1_DIGESTS:
        assert hashlib.sha256(one.tobytes()).hexdigest() == K1_DIGESTS[name]


@pytest.mark.parametrize("name", BATCHED)
def test_first_batch_is_the_unbatched_stream(name):
    # batch 0 draws from jumped(0), the base tree and value streams
    spec, q, values, cap, batch = batched_case(name)
    many = gwtree.generation_sum_samples(spec, 0, q, 3, values, 40, 12, batch_cap=cap)
    first = gwtree.generation_sum_samples(spec, 0, q, 3, values, batch, 12, batch_cap=cap)
    assert many[:batch].tobytes() == first.tobytes()
    assert not np.array_equal(many[batch : 2 * batch], first)


@pytest.mark.parametrize("name", BATCHED)
def test_leaf_chunk_size_leaves_sums_unchanged(name, monkeypatch):
    spec, q, values, cap, _ = batched_case(name)
    whole = gwtree.generation_sum_samples(spec, 0, q, 3, values, 40, 13, batch_cap=cap)
    monkeypatch.setattr(gwtree, "_LEAF_CHUNK", 5)
    chunked = gwtree.generation_sum_samples(spec, 0, q, 3, values, 40, 13, batch_cap=cap)
    assert whole.tobytes() == chunked.tobytes()


@pytest.mark.parametrize("name, bound", [
    # measured 48.2, 58.7, 63.8 and 79.4 B.  Part of each is one leaf run's draws
    # (2^17 values), since generation 2 is small (64 000 and about 97 000 nodes)
    ("k1_point", 52.0),
    ("k1_uniform", 64.0),
    ("k1_mix", 70.0),
    ("k2", 87.0),
])
def test_tree_batch_peak_bytes_per_node(name, bound):
    # one batch of depth-3 trees at theta = 8.  The deepest generation is reduced per
    # parent, so the peak scales with generation 2, the second-to-last
    if name == "k2":
        spec = random_spec(4, K=2)
        q = ol.offspring_means(spec, spec.pi, 8.0)
        trees = 2000
    else:
        if name == "k1_mix":
            spec = batched_case(name)[0]  # Mixture weight and value laws
        else:
            spec = one_type_spec(weight=Point(1.0) if name == "k1_point" else Uniform(0.2, 1.0))
        q = np.array([[8.0]])
        trees = 4000
    values = [dist.components[0] for dist in spec.belief_dists]
    nodes = trees * float(np.linalg.matrix_power(q, 2)[:, 0].sum())
    assert q.sum(axis=0).max() ** 3 * trees < gwtree._BATCH_NODE_CAP  # one batch
    # a one-tree call first loads what the laws import on first use (a beta
    # component's quantile loads scipy.special, about 1.9 MB), which is not per node
    gwtree.generation_sum_samples(spec, 0, q, 3, values, 1, 5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gwtree.generation_sum_samples(spec, 0, q, 3, values, trees, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / nodes <= bound


def test_profile_needs_a_replication():
    with pytest.raises(ValueError, match="replication"):
        ol.a_s_profile(one_type_spec(), 0, 2, [Uniform(-1, 1)], np.array([[3.0]]),
                       np.array([[1.0]]), 0, 1)


@given(st.integers(min_value=0, max_value=5_000))
@settings(max_examples=12)
def test_path_weight_sums_bounded_random_specs(seed):
    spec = random_spec(seed, allow_zero_rows=True)
    q = ol.offspring_means(spec, spec.pi, 2.0)
    root = int(np.random.default_rng(seed).integers(0, spec.K))
    tree = sample_tree(spec, root, q, 3, seed)
    prev = 1.0
    for s in range(4):
        total = path_weight_sum(tree, s)
        assert -1e-12 <= total <= prev + 1e-12  # generation mass never grows
        prev = total


def test_neighborhood_isolated_vertex():
    spec = one_type_spec()
    spec.kappa = np.array([[0.0]])
    labels = ol.sample_labels(spec, 20, 2)
    graph = ol.sample_graph(spec, labels, 5.0, 2)
    assert ol.neighborhood_diagnostic(graph, 0, 3) == 3


def test_neighborhood_cycle_detected():
    spec = one_type_spec()
    graph = ol.GraphSample(
        n=3, labels=np.zeros(3, dtype=np.int64),
        indptr=np.array([0, 1, 2, 3]),
        sources=np.array([1, 2, 0]),   # 0 <- 1 <- 2 <- 0
        weights=np.ones(3), beliefs=np.zeros((3, 1)),
        no_inbound=np.zeros(3, dtype=bool),
    )
    assert ol.neighborhood_diagnostic(graph, 0, 3) == 2


def test_neighborhood_monotone_tree_flags():
    spec = random_spec(9, K=2)
    labels = ol.sample_labels(spec, 300, 5)
    graph = ol.sample_graph(spec, labels, 4.0, 5)
    for v in range(0, 300, 37):
        tree_depth = ol.neighborhood_diagnostic(graph, v, 3)
        for s in range(1, 4):
            assert ol.neighborhood_diagnostic(graph, v, s) == min(s, tree_depth)


def test_sparse_neighborhoods_mostly_trees():
    # theta = log log n: non-tree fraction small at n=2000 and decreasing in n
    spec = one_type_spec(weight=Uniform(0.2, 1.0))
    fractions = []
    for n, graphs in ((500, 25), (2000, 50)):
        theta = np.log(np.log(n))
        bad = total = 0
        for g_seed in range(graphs):
            labels = ol.sample_labels(spec, n, (7, g_seed))
            graph = ol.sample_graph(spec, labels, theta, (7, g_seed))
            rng = np.random.default_rng(g_seed)
            for v in rng.choice(n, size=40, replace=False):
                total += 1
                bad += ol.neighborhood_diagnostic(graph, int(v), 2) < 2
        fractions.append(bad / total)
    assert fractions[1] < 0.05
    assert fractions[1] <= fractions[0]
