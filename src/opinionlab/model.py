"""Population-level model parameters.

A ``ModelSpec`` collects everything that does not depend on the graph
size: community count and shares, the edge kernel, averaging weights,
and the distribution families for edge weights, internal beliefs and
media signals.  The density parameter theta and the vertex count n are
supplied per experiment point.

A ``ModelSpec`` holds its parameters as given; the bounds in its
docstring are checked where config text becomes a spec, by the parser
of each ``model.*`` key in ``config.KEYS``.
"""

from dataclasses import dataclass

import numpy as np

from .distributions import VectorDist, sample_by_label


@dataclass
class ModelSpec:
    """Parameters of the opinion model and its random graph.

    Attributes
    ----------
    K : number of communities.
    ell : number of topics.
    pi : length-K community shares, positive, summing to 1.
    kappa : K x K nonnegative edge kernel; kappa[s, r] scales the
        probability that a community-s vertex is an in-neighbor of a
        community-r vertex.
    c, d : network / external averaging weights, d > 0, c + d <= 1.
    H : cap for unnormalized edge weights.
    weight_dists : K x K nested list; weight_dists[r][s] is the law of
        the weight a community-r listener puts on a community-s source,
        supported in [0, H].
    belief_dists : per-community law of the internal belief vector,
        supported in [-1, 1]^ell.
    signal_dists : per-community law of the media draw, supported in
        [-1, 1]^ell.
    signal_belief_weight : in [0, 1]; the media draw is the convex mix
        (1 - w) * community draw + w * own belief vector, which keeps
        the signal law dependent on the belief vector with a closed-form
        conditional mean.
    init_dists : per-community law of the initial opinion rows, or the
        string "beliefs" to start every vertex at its belief vector.
    fixed_composition : sample labels with exact counts round(n * pi)
        instead of i.i.d. draws (variance reduction; shares then match
        pi up to rounding).
    """

    K: int
    ell: int
    pi: np.ndarray
    kappa: np.ndarray
    c: float
    d: float
    H: float
    weight_dists: list
    belief_dists: list
    signal_dists: list
    signal_belief_weight: float = 0.0
    init_dists: object = None
    fixed_composition: bool = False

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=float)
        if self.init_dists is None:
            # default: each topic uniform on [-1, 1], i.i.d. within community
            from .distributions import Uniform

            u = VectorDist(tuple(Uniform(-1.0, 1.0) for _ in range(self.ell)))
            self.init_dists = [u] * self.K

    # ---- closed-form moments used by the mean-field construction ----

    def weight_mean_matrix(self):
        """K x K matrix of E[weight | listener r, source s]."""
        return np.array(
            [[self.weight_dists[r][s].mean() for s in range(self.K)] for r in range(self.K)]
        )

    def weight_second_moment_matrix(self):
        return np.array(
            [[self.weight_dists[r][s].second_moment() for s in range(self.K)] for r in range(self.K)]
        )

    def belief_mean_matrix(self):
        """K x ell matrix of per-community belief means."""
        return np.array([dist.mean() for dist in self.belief_dists])

    def signal_mean_matrix(self):
        """K x ell matrix of per-community media-draw means."""
        w = self.signal_belief_weight
        base = np.array([dist.mean() for dist in self.signal_dists])
        return (1.0 - w) * base + w * self.belief_mean_matrix()

    def init_mean_matrix(self):
        if self.init_dists == "beliefs":
            return self.belief_mean_matrix()
        return np.array([dist.mean() for dist in self.init_dists])

    def sample_beliefs(self, labels, rng):
        return sample_by_label(self.belief_dists, labels, rng, (self.ell,))

    def sample_initial(self, labels, beliefs, rng):
        if self.init_dists == "beliefs":
            return beliefs.copy()
        return sample_by_label(self.init_dists, labels, rng, (self.ell,))
