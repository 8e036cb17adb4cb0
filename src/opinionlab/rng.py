"""Seed derivation.

Every random quantity in the lab is drawn from a stream derived from one
root seed through ``numpy.random.SeedSequence`` spawn keys.  The spawn
key is ``(*indices, purpose)`` where ``purpose`` is one of the constants
below and ``indices`` identify the replication (grid point, outer label
draw, inner replication, ...).  Sampling functions accept either a bare
root seed or a tuple ``(root, *indices)``; they append their purpose
constant themselves.  Two calls with the same root and key yield
bit-identical streams, so graphs, weights, beliefs and signals are
independently reproducible.

Monte Carlo trees are the one place that splits a stream: batch i of a
tree run draws from ``bit_generator.jumped(i)`` of its TREE and VALUES
streams.  ``jumped(0)`` is the stream itself, and the batch partition
does not depend on the thread count, so batches run in parallel with
the same output as in sequence.
"""

import numpy as np
import numpy.random  # noqa: F401  (loaded with the package, not by the first run's draw)

LABELS = 0
EDGES = 1
WEIGHTS = 2
BELIEFS = 3
INIT = 4
SIGNALS = 5
STATIONARY = 6
TREE = 7
VALUES = 8
CONCENTRATION = 9


def substream(seed, *key):
    """Generator for replication/purpose ``key`` derived from ``seed``,
    which is a root integer or a tuple ``(root, *indices)``."""
    if isinstance(seed, tuple):
        root, prefix = seed[0], tuple(int(k) for k in seed[1:])
    else:
        root, prefix = seed, ()
    seq = np.random.SeedSequence(int(root), spawn_key=prefix + tuple(int(k) for k in key))
    return np.random.default_rng(seq)

