"""Reference implementations that the tests compare the package against.

None of these runs in an experiment kind.  Each is the direct, slow form
of something the package computes another way:

- closed_form_state solves the opinion recursion by its binomial
  hop-weight expansion, against the iterated stepper;
- vertex_mixing_matrix materializes the n x n averaged matrix, against
  the K x K reduction by label lookup (expand_rows);
- sample_tree materializes one marked branching tree level by level,
  and weighted_generation_sum / path_weight_sum reduce it, against the
  batch generation sums of opinionlab.gwtree.
"""

from dataclasses import dataclass

import numpy as np

from opinionlab import rng as rngmod
from opinionlab.distributions import sample_by_label
from opinionlab.dynamics import OpinionState, hop_weight_table
from opinionlab.gwtree import NODE_BUDGET, TreeBudgetError, _check_budget
from opinionlab.meanfield import _listening_mass
from opinionlab.rng import substream

_DENSE_ORACLE_MAX_N = 4000


# ---------------------------------------------------------------------------
# solved recursion


def closed_form_state(influence, signal_history, R0, c, d, k):
    """Solved k-step state from the signal history W^(1..k) and R^(0):
    sum over t < k of sum over s <= t of hop_weight * C^s W^(k-t), plus
    the same expansion applied to R^(0) at t = k."""
    if len(signal_history) < k:
        raise ValueError(f"need {k} signal frames, got {len(signal_history)}")
    table = hop_weight_table(k, c, d)
    inputs = [getattr(frame, "W", frame) for frame in reversed(signal_history[:k])] + [R0]
    total = np.zeros_like(np.asarray(R0, dtype=float))
    for t, term in enumerate(inputs):
        power = np.asarray(term, dtype=float)
        total += table[t, 0] * power
        for s in range(1, t + 1):
            power = influence.propagate(power)
            total += table[t, s] * power
    return OpinionState(R=total, k=k)


# ---------------------------------------------------------------------------
# dense averaged matrix


def vertex_mixing_matrix(labels, shares, kappa, beta):
    """Dense n x n averaged matrix (small-n test oracle only).

    The K x K reduction used everywhere else is exact for this full
    matrix, so it is built without excluding the diagonal; the excluded
    diagonal entry is an O(1/n) correction absorbed by the convergence
    constants.
    """
    labels = np.asarray(labels)
    n = labels.size
    if n > _DENSE_ORACLE_MAX_N:
        raise ValueError(f"dense averaged matrix is a small-n oracle (n <= {_DENSE_ORACLE_MAX_N})")
    totals = _listening_mass(beta, shares, kappa).sum(axis=1)
    out = np.zeros((n, n))
    for r in range(totals.size):
        rows = labels == r
        if totals[r] <= 0 or not rows.any():
            continue
        out[np.ix_(rows, np.arange(n))] = beta[r, labels] * kappa[labels, r] / (n * totals[r])
    return out


def expand_rows(community_matrix, labels):
    """Lift a K x ell community matrix to n x ell by label lookup."""
    return np.asarray(community_matrix)[np.asarray(labels)]


# ---------------------------------------------------------------------------
# materialized branching trees


@dataclass
class TreeLevel:
    types: np.ndarray        # node types
    parent: np.ndarray       # index into previous level (-1 at the root)
    weight: np.ndarray       # raw edge weight from the parent (nan at the root)
    norm_weight: np.ndarray  # per-parent normalized weight (1 at the root)
    path_weight: np.ndarray  # product of normalized weights back to the root
    offspring: np.ndarray    # per-node child counts by type, (n_nodes, K)


@dataclass
class GWTree:
    root_type: int
    depth: int
    levels: list

    def generation(self, s):
        return self.levels[s]

    def size(self):
        return sum(level.types.size for level in self.levels)


def sample_tree(spec, root_type, q, depth, seed, node_budget=NODE_BUDGET):
    """Materialize one marked tree to the given depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    q = np.asarray(q, dtype=float)
    _check_budget(q, depth, node_budget)
    rng = seed if isinstance(seed, np.random.Generator) else substream(seed, rngmod.TREE)
    K = spec.K
    levels = [
        TreeLevel(
            types=np.array([root_type]),
            parent=np.array([-1]),
            weight=np.array([np.nan]),
            norm_weight=np.array([1.0]),
            path_weight=np.array([1.0]),
            offspring=np.zeros((1, K), dtype=np.int64),
        )
    ]
    total_nodes = 1
    for _ in range(depth):
        cur = levels[-1]
        m = cur.types.size
        if m == 0:
            levels.append(_empty_level(K))
            continue
        counts = rng.poisson(q[:, cur.types].T)  # (m, K)
        cur.offspring[:] = counts
        per_node = counts.sum(axis=1)
        total = int(per_node.sum())
        total_nodes += total
        if total_nodes > node_budget:
            raise TreeBudgetError(total_nodes, node_budget)
        parent = np.repeat(np.arange(m), per_node)
        child_types = np.repeat(np.tile(np.arange(K), m), counts.ravel())
        # uniformly permute siblings so order carries no type information
        keys = rng.random(total)
        order = np.lexsort((keys, parent))
        child_types = child_types[order]
        weight = _draw_edge_weights(spec, cur.types[parent], child_types, rng)
        totals = np.bincount(parent, weights=weight, minlength=m)
        norm = np.zeros(total)
        pos = totals[parent] > 0.0
        norm[pos] = weight[pos] / totals[parent[pos]]
        path = cur.path_weight[parent] * norm
        levels.append(
            TreeLevel(
                types=child_types, parent=parent, weight=weight,
                norm_weight=norm, path_weight=path,
                offspring=np.zeros((total, K), dtype=np.int64),
            )
        )
    return GWTree(root_type=int(root_type), depth=depth, levels=levels)


def _empty_level(K):
    return TreeLevel(
        types=np.empty(0, np.int64), parent=np.empty(0, np.int64),
        weight=np.empty(0), norm_weight=np.empty(0), path_weight=np.empty(0),
        offspring=np.zeros((0, K), dtype=np.int64),
    )


def _draw_edge_weights(spec, parent_types, child_types, rng):
    # pair label pt * K + ct orders the draws parent type first, child type second
    pair_dists = [dist for row in spec.weight_dists for dist in row]
    return sample_by_label(pair_dists, parent_types * spec.K + child_types, rng)


def weighted_generation_sum(tree, s, values):
    """Path-weighted sum of node values over generation s.

    values may be per-type (shape (K,) or (K, ell)) or per-node (shape
    (n_nodes,) or (n_nodes, ell)); returns a scalar or one value per
    topic accordingly.
    """
    if s > tree.depth:
        raise ValueError(f"tree depth {tree.depth} < requested generation {s}")
    level = tree.levels[s]
    values = np.asarray(values, dtype=float)
    K = tree.levels[0].offspring.shape[1]
    if level.types.size == 0:
        return np.zeros(values.shape[-1]) if values.ndim == 2 else 0.0
    if values.shape[0] == K:
        node_vals = values[level.types]       # per-type values (wins on ties)
    elif values.shape[0] == level.types.size:
        node_vals = values                    # per-node values
    else:
        raise ValueError(
            f"values must be per-type (length {K}) or per-node (length {level.types.size})"
        )
    if node_vals.ndim == 1:
        return float(level.path_weight @ node_vals)
    return level.path_weight @ node_vals


def path_weight_sum(tree, s):
    """Total path weight of generation s (lies in [0, 1])."""
    if s > tree.depth:
        raise ValueError(f"tree depth {tree.depth} < requested generation {s}")
    return float(tree.levels[s].path_weight.sum())
