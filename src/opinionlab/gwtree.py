"""Batch generation sums of marked K-type branching trees, and the
graph-side tree-likeness (BFS) diagnostic.

A tree node of type r has independent Poisson numbers of type-s
children with means offspring_means[s, r]; child edges carry weights
from the listener/source weight law, normalized per node into weights
that multiply along branches into path weights (root weight 1).  The
per-generation weighted sums of node values estimate how far a
normalized random sum sits from its community-matrix prediction.  No
tree is materialized: the sums are drawn generation by generation.

Trees are grown under a node budget, since expected generation size
grows geometrically with depth.  Monte Carlo trees are simulated in
batches; batch i draws from jumped(i) of the tree and value
streams, so batches run on worker threads and the output does not
depend on the thread count.  A batch holds each generation as K type
groups of path weights and tree ids, draws children one (parent type,
child type) block at a time and reduces the deepest generation per
parent, in runs of whole parents, so it peaks at about 48 B per
second-to-last-generation node with K = 1 and point weights
(tracemalloc; 59 B with uniform weights) and at about 79 B with K = 2.

Uniform node values come from the value stream's raw 64-bit words: two
32-bit draws k per word, low half first, each the midpoint of one of
2^32 equal cells of [lo, hi].  A block of N values spends ceil(N / 2)
words, and a parent's leaf sum is affine in the exact integer sum of
its k.  Other laws draw through their sample method.
"""

from functools import reduce

import numpy as np

from . import rng as rngmod
from .rng import substream
from .distributions import Point, Uniform
from .metrics import mean_se
from .parallel import parallel_map

NODE_BUDGET = 1_000_000
_BATCH_NODE_CAP = 20_000_000
# leaf values drawn per run of whole parents in the deepest generation.  Each run
# costs about 20 numpy calls, which slow two worker threads at 2^16; at 2^18 a
# run's per-parent temporaries dominate the batch peak when parents are small
_LEAF_CHUNK = 1 << 17


class TreeBudgetError(RuntimeError):
    def __init__(self, expected, budget):
        super().__init__(
            f"expected generation size {expected:.3g} exceeds node budget {budget:g}"
        )
        self.expected = expected
        self.budget = budget


def offspring_means(spec, shares, theta):
    """Matrix q with q[s, r] = kappa[s, r] * shares[s] * theta, the mean
    number of type-s children of a type-r node."""
    shares = np.asarray(shares, dtype=float)
    return spec.kappa * shares[:, None] * float(theta)


def _check_budget(q, depth, budget):
    growth = float(q.sum(axis=0).max(initial=0.0))
    expected = growth**depth if depth else 1.0
    if expected > budget:
        raise TreeBudgetError(expected, budget)


# ---------------------------------------------------------------------------
# Monte Carlo estimation of the generation-sum deviation


def _value_means(value_dists, K):
    if isinstance(value_dists, np.ndarray) or (
        isinstance(value_dists, (list, tuple)) and value_dists and np.isscalar(value_dists[0])
    ):
        arr = np.asarray(value_dists, dtype=float)
        return [Point(float(v)) for v in arr], arr
    means = np.array([dist.mean() for dist in value_dists])
    return list(value_dists), means


def _all_point_weights(spec):
    vals = set()
    for row in spec.weight_dists:
        for dist in row:
            if not isinstance(dist, Point):
                return None
            vals.add(dist.value)
    return vals.pop() if len(vals) == 1 else None


def generation_sum_samples(spec, root_type, q, s_max, value_dists, replications, seed,
                           node_budget=NODE_BUDGET, batch_cap=_BATCH_NODE_CAP, threads=1):
    """Path-weighted value sums for generations 1..s_max over independent
    trees, simulated level-synchronously in batches.

    Values at every generation are drawn fresh from the per-type laws,
    so each column is a set of i.i.d. generation sums.  The batch size
    depends only on batch_cap and the expected leaf count; batch i draws
    from jumped(i) of the tree and value streams of seed, and batches
    run on up to threads workers.  Returns an array (replications, s_max).
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    q = np.asarray(q, dtype=float)
    _check_budget(q, s_max, node_budget)
    tree_bits = substream(seed, rngmod.TREE).bit_generator
    value_bits = substream(seed, rngmod.VALUES).bit_generator
    dists, _ = _value_means(value_dists, spec.K)
    point_weight = _all_point_weights(spec)
    growth = float(q.sum(axis=0).max(initial=0.0))
    expected_leaf = max(growth**s_max, 1.0)
    batch = int(np.clip(batch_cap / expected_leaf, 1, replications))

    def run_batch(i):
        b = min(batch, replications - i * batch)
        return _batch_sums(spec, root_type, q, s_max, dists, b,
                           np.random.Generator(tree_bits.jumped(i)),
                           np.random.Generator(value_bits.jumped(i)), point_weight, batch_cap)

    parts = parallel_map(run_batch, range(-(-replications // batch)), threads)
    return np.concatenate(parts)


def _uniform_affine(dist):
    """(a, scale) such that the 32-bit draw k means the Uniform value
    a + scale * k = lo + (hi - lo) (k + 1/2) 2^-32, the midpoint of the
    k-th of 2^32 equal cells."""
    width = dist.hi - dist.lo
    return dist.lo + width * 2.0**-33, width * 2.0**-32


def _raw_words(value_rng, n):
    # enough raw 64-bit words for n 32-bit draws
    return value_rng.bit_generator.random_raw(-(-n // 2))


def _halves(words):
    # the 32-bit draws of words in stream order, low half first, at either byte order
    return words.astype("<u8", copy=False).view("<u4")


def _draw_values(dist, value_rng, size):
    """size float64 values of dist.  A Uniform block spends ceil(size / 2)
    raw words, one 32-bit draw per value."""
    if type(dist) is not Uniform:
        return dist.sample(value_rng, size=size)
    a, scale = _uniform_affine(dist)
    out = np.multiply(_halves(_raw_words(value_rng, size))[:size], scale)
    out += a
    return out


_LOW = np.uint64(0xFFFFFFFF)


def _half_sums(words, starts):
    """Exact uint64 sums of the 32-bit halves of words (low half first)
    over segments that start at the half offsets starts (starts[0] = 0)
    and run to the next start or the end.  Shifts words in place.

    The halves [a, b) are the words [a // 2, b // 2) less the low half of
    word a // 2 if a is odd, plus that of word b // 2 if b is odd.  A sum
    over the words is the low sum plus 2^32 times the high sum (mod 2^64);
    a second sum over the high halves alone separates the two."""
    first = starts >> 1
    odd_low = np.where(starts & 1, words[first] & _LOW, 0)
    sums = np.add.reduceat(words, first)
    words >>= np.uint64(32)
    sums -= np.add.reduceat(words, first) * _LOW
    sums[:-1][first[1:] == first[:-1]] = 0  # reduceat gives words[first] for no words
    sums -= odd_low
    sums[:-1] += odd_low[1:]
    return sums


def _leaf_segment_sums(weight_dist, dist, counts, rng, value_rng, seg_x, seg_w):
    """Add one (parent type, child type) block of fresh leaves into the
    per-parent sums seg_x (values with point weights, where seg_w is
    None; else weight * value) and seg_w (weights).  counts holds each
    parent's children in the block.  Runs of whole parents of about
    _LEAF_CHUNK values are drawn and each parent's segment is summed alone.

    A Uniform block spends ceil(N / 2) raw words on its N values: a run
    opens with the unused high half of the previous run's last word, so
    neither the draws nor the sums depend on the run size.  With the
    draws k and (a, scale) from _uniform_affine, a parent's value sum is
    count * a + scale * sum(k), with sum(k) exact in integers, and with
    weights a * sum(w) + scale * sum(w * k).  Other laws continue their
    stream across runs."""
    uniform = type(dist) is Uniform
    if uniform:
        a, scale = _uniform_affine(dist)
    spare = None  # the unused high half of a Uniform run's last word
    ends = np.cumsum(counts)
    lo = 0
    while lo < counts.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(ends, base + _LEAF_CHUNK, side="right")), lo + 1)
        size = int(ends[hi - 1]) - base
        run, lo = slice(lo, hi), hi
        if size == 0:
            continue
        c = counts[run]
        nz = c > 0
        starts = (ends[run] - c - base)[nz]
        weight = None if seg_w is None else weight_dist.sample(rng, size=size)
        if weight is not None:
            weight_sums = np.add.reduceat(weight, starts)
            seg_w[run][nz] += weight_sums
        if not uniform:
            draws = dist.sample(value_rng, size=size)
            if weight is not None:
                draws *= weight
            seg_x[run][nz] += np.add.reduceat(draws, starts)
        else:
            carry, fresh = spare, size - (spare is not None)
            draws = _raw_words(value_rng, fresh)
            spare = None
            if fresh % 2:
                spare = int(draws[-1] >> np.uint64(32))
                draws[-1] &= _LOW
            if weight is not None:
                weight[size - fresh :] *= _halves(draws)[:fresh]
                if carry is not None:
                    weight[0] *= carry
                seg_x[run][nz] += a * weight_sums + scale * np.add.reduceat(weight, starts)
            elif carry is None:
                seg_x[run][nz] += c[nz] * a + scale * _half_sums(draws, starts)
            else:  # the carried half opens the first segment
                k = _half_sums(draws, np.maximum(starts - 1, 0)) if fresh else np.zeros(1, np.uint64)
                k[0] += np.uint64(carry)
                seg_x[run][nz] += c[nz] * a + scale * k
        del weight, draws  # before the next run's draws


def _join(pieces):
    # a single piece is kept as it is, not copied
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _batch_sums(spec, root_type, q, s_max, dists, b, rng, value_rng, point_weight, cap):
    """Generation sums of b trees, one generation at a time.

    A generation is K type groups, each holding only its nodes' tree ids
    and path weights.  Children are drawn one (parent type r, child type
    t) block at a time: Poisson(q[t, r]) counts for every block, then
    each block's edge weights, normalized by per-parent totals over t,
    then each new group's values.  Parent indices, weights and values
    are dropped once used, and the deepest generation is reduced per
    parent, block by block.  Point weights need no parent index: a
    child's normalized weight is 1 / its parent's child count, so path
    weights and tree ids are repeated from the parents.
    """
    K = spec.K
    groups = [(np.empty(0, np.int64), np.empty(0)) for _ in range(K)]
    groups[root_type] = (np.arange(b), np.ones(b))
    sums = np.zeros((b, s_max))
    for s in range(1, s_max + 1):
        counts = [[rng.poisson(q[t, r], size=ids.size) for t in range(K)]
                  for r, (ids, _) in enumerate(groups)]
        total = sum(int(block.sum()) for row in counts for block in row)
        if total > 4 * cap:
            raise TreeBudgetError(total, 4 * cap)
        if total == 0:
            break
        if s == s_max:
            # deepest generation: per-parent reductions, no child arrays
            if point_weight is not None and point_weight <= 0.0:
                break
            for r, (ids, path) in enumerate(groups):
                seg_x = np.zeros(ids.size)
                seg_w = None if point_weight is not None else np.zeros(ids.size)
                for wdist, dist, block in zip(spec.weight_dists[r], dists, counts[r]):
                    _leaf_segment_sums(wdist, dist, block, rng, value_rng, seg_x, seg_w)
                seg_x *= path
                if seg_w is None:
                    seg_x /= np.maximum(reduce(np.add, counts[r]), 1)
                else:
                    empty = seg_w <= 0.0  # a parent with no weight adds nothing
                    seg_w[empty] = 1.0
                    seg_x /= seg_w
                    seg_x[empty] = 0.0
                sums[:, s - 1] += np.bincount(ids, weights=seg_x, minlength=b)
            break
        pieces = [([], []) for _ in range(K)]  # per child type: tree-id and path pieces
        for r, (ids, path) in enumerate(groups):
            if point_weight is not None:
                scaled = (path * (1.0 / np.maximum(reduce(np.add, counts[r]), 1))
                          if point_weight > 0.0 else np.zeros(ids.size))
                for t, block in enumerate(counts[r]):
                    pieces[t][1].append(np.repeat(scaled, block))
                    pieces[t][0].append(np.repeat(ids, block))
                continue
            parents = [np.repeat(np.arange(ids.size), block) for block in counts[r]]
            weights = [spec.weight_dists[r][t].sample(rng, size=parent.size)
                       for t, parent in enumerate(parents)]
            totals = np.zeros(ids.size)
            for parent, weight in zip(parents, weights):
                totals += np.bincount(parent, weights=weight, minlength=ids.size)
            totals[totals <= 0.0] = np.inf  # weights are >= 0: such a parent's are all 0
            for t, (parent, weight) in enumerate(zip(parents, weights)):
                weight /= totals[parent]
                weight *= path[parent]
                pieces[t][1].append(weight)
                pieces[t][0].append(ids[parent])
            del parents, weights, parent, weight  # before the values are drawn
        groups = [(_join(ids), _join(path)) for ids, path in pieces]
        del pieces  # the copied pieces of a joined group
        for t, (ids, path) in enumerate(groups):
            contrib = _draw_values(dists[t], value_rng, ids.size)
            contrib *= path
            sums[:, s - 1] += np.bincount(ids, weights=contrib, minlength=b)
            del contrib  # before the next draws
    return sums


def a_s_profile(spec, root_type, s_max, value_dists, q, mixing, replications, seed,
                node_budget=NODE_BUDGET, threads=1):
    """Deviation estimates for every generation 1..s_max from one shared
    set of trees; returns (estimates, standard errors)."""
    dists, means = _value_means(value_dists, spec.K)
    sums = generation_sum_samples(spec, root_type, q, s_max, dists, replications, seed,
                                  node_budget=node_budget, threads=threads)
    ests = np.empty(s_max)
    ses = np.empty(s_max)
    power = np.eye(spec.K)
    for s in range(1, s_max + 1):
        power = mixing @ power
        target = float((power @ means)[root_type])
        ests[s - 1], ses[s - 1] = mean_se(np.abs(sums[:, s - 1] - target))
    return ests, ses


# ---------------------------------------------------------------------------
# Graph-side tree-likeness diagnostic


def neighborhood_diagnostic(graph, vertex, depth, K=None, node_cap=2_000_000):
    """Unfold the inbound neighborhood of a vertex generation by
    generation; the unfolding is a tree exactly while no vertex repeats.
    Returns the deepest generation (at most depth) with no repeated
    vertex, so the neighborhood is a tree to depth s iff it is >= s.
    K is unused; perfbench/micro.py still passes it."""
    indptr, sources = graph.indptr, graph.sources
    frontier = np.array([vertex], dtype=np.int64)
    seen = {int(vertex)}
    tree_depth = depth
    for g in range(1, depth + 1):
        parts = [sources[indptr[v] : indptr[v + 1]] for v in frontier]
        nxt = np.concatenate(parts) if parts else np.empty(0, np.int64)
        if nxt.size > node_cap:
            raise RuntimeError(f"neighborhood exploded past {node_cap} vertices")
        # a sorted copy, not np.unique, which loads numpy.ma inside the run
        ordered = np.sort(nxt)
        if (ordered[1:] == ordered[:-1]).any() or any(int(v) in seen for v in ordered):
            tree_depth = g - 1
            break
        seen.update(int(v) for v in ordered)
        frontier = nxt
        if frontier.size == 0:
            break
    return tree_depth
