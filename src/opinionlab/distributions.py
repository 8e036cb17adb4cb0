"""Closed distribution family for weights, beliefs and media signals.

The lab only admits distributions with closed-form first and second
moments: point masses, uniforms, affinely rescaled betas, and finite
mixtures of those.  The config format writes each scalar distribution
as a compact token::

    point:0.5
    uniform:-1,1
    beta:2,3            (on [0,1])
    beta:2,3,-1,1       (rescaled to [-1,1])
    mix:0.3*point:0+0.7*uniform:0,1

Vector-valued distributions (beliefs, signals) are products of
independent scalar components, written as space-separated tokens.

Stream contract: for every law, ``sample(rng, n + m)`` returns the
values of ``sample(rng, n)`` followed by those of ``sample(rng, m)``,
and ``sample(rng)`` returns one float.  So a caller may draw any count
in runs of any size and get the same bytes.  A point draws nothing;
uniform and beta laws draw value by value through numpy.  A mixture
spends one uniform u per value: the cumulative-weight interval u falls
in picks the component, and u's position inside that interval goes
through the component's ``quantile``.
"""

from dataclasses import dataclass

import numpy as np


class DistributionError(ValueError):
    pass


@dataclass(frozen=True)
class Point:
    value: float

    def mean(self):
        return self.value

    def second_moment(self):
        return self.value**2

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value, dtype=float)

    def quantile(self, u):
        return np.full(np.shape(u), self.value, dtype=float)

    def support(self):
        return (self.value, self.value)


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def mean(self):
        return 0.5 * (self.lo + self.hi)

    def second_moment(self):
        # E[X^2] = (lo^2 + lo*hi + hi^2) / 3
        return (self.lo**2 + self.lo * self.hi + self.hi**2) / 3.0

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size=size)

    def quantile(self, u):
        out = (self.hi - self.lo) * np.asarray(u)
        out += self.lo
        return out

    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class ScaledBeta:
    a: float
    b: float
    lo: float = 0.0
    hi: float = 1.0

    def mean(self):
        return self.lo + (self.hi - self.lo) * self.a / (self.a + self.b)

    def second_moment(self):
        m1 = self.a / (self.a + self.b)
        m2 = self.a * (self.a + 1.0) / ((self.a + self.b) * (self.a + self.b + 1.0))
        w = self.hi - self.lo
        return self.lo**2 + 2.0 * self.lo * w * m1 + w**2 * m2

    def sample(self, rng, size=None):
        return self.lo + (self.hi - self.lo) * rng.beta(self.a, self.b, size=size)

    def quantile(self, u):
        # imported here: without scipy.sparse loaded, scipy.special's first import takes
        # about 0.15 s and 16 MB of RSS (its array-API layer), paid only by runs that use it
        from scipy.special import betaincinv
        out = betaincinv(self.a, self.b, u)
        out *= self.hi - self.lo
        out += self.lo
        return out

    def support(self):
        return (self.lo, self.hi)


@dataclass(frozen=True)
class Mixture:
    weights: tuple
    components: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.components) or not self.components:
            raise DistributionError("mixture needs matching, nonempty weights/components")
        if any(isinstance(comp, Mixture) for comp in self.components):
            raise DistributionError("mixtures do not nest; flatten the components")
        if any(w < 0 for w in self.weights):
            raise DistributionError("mixture weights must be nonnegative")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise DistributionError(f"mixture weights sum to {total}, expected 1")

    def mean(self):
        return sum(w * comp.mean() for w, comp in zip(self.weights, self.components))

    def second_moment(self):
        return sum(w * comp.second_moment() for w, comp in zip(self.weights, self.components))

    def sample(self, rng, size=None):
        u = np.asarray(rng.random(size))  # turned into the values in place
        edges = np.cumsum(self.weights)
        edges /= edges[-1]  # the last edge is 1 > u
        which = np.zeros(u.shape, np.min_scalar_type(len(self.components)))
        for edge in edges[:-1]:
            which += u >= edge
        lo = 0.0
        for j, (comp, hi) in enumerate(zip(self.components, edges)):
            hit = which == j
            pos = u[hit]
            pos -= lo
            pos /= hi - lo
            u[hit] = comp.quantile(pos)
            lo = hi
        return float(u) if size is None else u

    def support(self):
        lows, highs = zip(*(comp.support() for comp in self.components))
        return (min(lows), max(highs))


@dataclass(frozen=True)
class VectorDist:
    """Product of independent scalar components, one per topic."""

    components: tuple

    def mean(self):
        return np.array([comp.mean() for comp in self.components])

    def second_moment(self):
        return np.array([comp.second_moment() for comp in self.components])

    def sample(self, rng, size=None):
        ell = len(self.components)
        if size is None:
            return np.array([comp.sample(rng) for comp in self.components])
        out = np.empty((size, ell), dtype=float)
        for j, comp in enumerate(self.components):
            out[:, j] = comp.sample(rng, size=size)
        return out

    def support(self):
        lows, highs = zip(*(comp.support() for comp in self.components))
        return (min(lows), max(highs))

    def __len__(self):
        return len(self.components)


def sample_by_label(dists, labels, rng, shape=()):
    """One draw from ``dists[labels[i]]`` per entry i, as an array of
    shape ``labels.shape + shape``.  Label 0's draws come first from the
    stream, then label 1's, and so on; each fills its label's entries in
    index order."""
    labels = np.asarray(labels)
    out = np.empty(labels.shape + tuple(shape))
    flat = labels.reshape(-1)
    rows = out.reshape(flat.shape + tuple(shape))  # a view of out, one row per label
    for r, dist in enumerate(dists):
        # integer indices: a boolean mask into a 2-D out is several times slower
        idx = np.flatnonzero(flat == r)
        if idx.size:
            rows[idx] = dist.sample(rng, size=idx.size)
    return out


def parse_scalar(token):
    """Parse one scalar-distribution token."""
    token = token.strip()
    if ":" not in token:
        raise DistributionError(f"malformed distribution token {token!r}")
    kind, _, body = token.partition(":")
    try:
        if kind == "point":
            return Point(float(body))
        if kind == "uniform":
            lo, hi = (float(p) for p in body.split(","))
            if hi < lo:
                raise DistributionError(f"uniform bounds reversed in {token!r}")
            return Uniform(lo, hi)
        if kind == "beta":
            parts = [float(p) for p in body.split(",")]
            if len(parts) == 2:
                a, b = parts
                lo, hi = 0.0, 1.0
            elif len(parts) == 4:
                a, b, lo, hi = parts
            else:
                raise DistributionError(f"beta takes 2 or 4 parameters, got {token!r}")
            if a <= 0 or b <= 0 or hi < lo:
                raise DistributionError(f"invalid beta parameters in {token!r}")
            return ScaledBeta(a, b, lo, hi)
        if kind == "mix":
            weights, comps = [], []
            for part in body.split("+"):
                wtxt, _, ctok = part.partition("*")
                weights.append(float(wtxt))
                comps.append(parse_scalar(ctok))
            return Mixture(tuple(weights), tuple(comps))
    except DistributionError:
        raise
    except Exception as exc:
        raise DistributionError(f"cannot parse distribution token {token!r}: {exc}") from exc
    raise DistributionError(f"unknown distribution kind {kind!r} in {token!r}")


def parse_vector(text, ell):
    """Parse space-separated scalar tokens into a VectorDist.

    A single token is broadcast across all ``ell`` topics.
    """
    tokens = text.split()
    if len(tokens) == 1:
        tokens = tokens * ell
    if len(tokens) != ell:
        expected = "1 component token" if ell == 1 else f"1 or {ell} component tokens"
        raise DistributionError(f"expected {expected}, got {len(tokens)}")
    return VectorDist(tuple(parse_scalar(tok) for tok in tokens))


def supported_in(dist, lo, hi, tol=1e-9):
    dlo, dhi = dist.support()
    return dlo >= lo - tol and dhi <= hi + tol
