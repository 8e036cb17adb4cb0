"""Span tracing of opinionlab's public layer calls, from outside the package.

Each traced function is replaced at every ``opinionlab`` module attribute
bound to it, because callers bind names at import time: ``metrics`` does
``from .graph import sample_graph``, so ``opinionlab.metrics.sample_graph``
is the name its experiments actually call.  Methods are wrapped on their
classes.  A span records name, start, end and the index of its parent
span; spans nest on one stack, so the traced run must use one thread.
A name that no longer exists is listed as missing instead of failing,
so the trace keeps working while the package is refactored.
"""

import functools
import inspect
import sys
import time

import numpy as np

# (module, attribute) of each traced function, by layer
FUNCTIONS = (
    ("config", "parse_config"),
    ("harness", "run"),
    ("harness", "write_csv"),
    ("graph", "sample_labels"),
    ("graph", "sample_graph"),
    ("graph", "normalize_weights"),
    ("dynamics", "initial_state"),
    ("dynamics", "sample_signal_frame"),
    ("dynamics", "step"),
    ("dynamics", "simulate"),
    ("meanfield", "build_meanfield_model"),
    ("meanfield", "deterministic_profile"),
    ("meanfield", "regime_stats"),
    ("meanfield", "mixing_matrix"),
    ("gwtree", "offspring_means"),
    ("gwtree", "a_s_profile"),
    ("gwtree", "generation_sum_samples"),
    ("gwtree", "neighborhood_diagnostic"),
    ("metrics", "error_experiment"),
    ("metrics", "coupled_gap_run"),
    ("metrics", "stationarity_experiment"),
    ("metrics", "chaos_experiment"),
    ("metrics", "limit_trajectory_draws"),
    ("metrics", "concentration_check"),
    ("parallel", "parallel_map"),
)
# (module, class, method)
METHODS = (
    ("graph", "InfluenceMatrix", "propagate"),
    ("meanfield", "StationarySampler", "__init__"),
    ("meanfield", "StationarySampler", "sample"),
)
ROOT = "harness.run"


def _count_graph(counts, bound, result):
    counts["graphs"] += 1
    counts["edges"] += int(result.edge_count())


def _count_tree_nodes(counts, bound, result):
    # expected node count over generations 1..s_max (a computed count:
    # the package does not report how many nodes it drew)
    args = bound.arguments
    q = np.asarray(args["q"], dtype=float)
    gen = np.eye(q.shape[0])[int(args["root_type"])]
    total = 0.0
    for _ in range(int(args["s_max"])):
        gen = q @ gen
        total += float(gen.sum())
    counts["tree_nodes_expected"] += total * int(args["replications"])


COUNTERS = {
    "graph.sample_graph": _count_graph,
    "gwtree.generation_sum_samples": _count_tree_nodes,
}


class Tracer:
    """In-memory span recorder; ``install`` wraps the package in place."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent index]
        self.stack = []
        self.counts = {"graphs": 0, "edges": 0, "tree_nodes_expected": 0.0}
        self.missing = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if counter:
                counter(self.counts, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "opinionlab" or key.startswith("opinionlab.")]
        for modname, attr in FUNCTIONS:
            home = sys.modules.get(f"opinionlab.{modname}")
            original = getattr(home, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(f"{modname}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for modname, clsname, attr in METHODS:
            cls = getattr(sys.modules.get(f"opinionlab.{modname}"), clsname, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.missing.append(f"{modname}.{clsname}.{attr}")
                continue
            setattr(cls, attr, self.wrap(f"{modname}.{clsname}.{attr}", original))

    def summary(self):
        """Per-name calls, inclusive and self seconds for the spans of the
        last ``harness.run``, its wall time, and how much of it the
        spans directly under it cover."""
        roots = [i for i, span in enumerate(self.spans) if span[0] == ROOT]
        if not roots:
            raise RuntimeError(f"no {ROOT} span was recorded")
        root = roots[-1]
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        under = [False] * len(self.spans)
        under[root] = True
        by_name = {}
        for i in range(root, len(self.spans)):
            name, start, end, parent = self.spans[i]
            if i != root:
                if parent < 0 or not under[parent]:
                    continue
                under[i] = True
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_s[i]
        wall = self.spans[root][2] - self.spans[root][1]
        return {
            "wall_s": wall,
            "coverage": child_s[root] / wall if wall > 0 else 0.0,
            "spans": by_name,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
