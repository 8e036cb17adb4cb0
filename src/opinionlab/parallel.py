"""Order-preserving parallel map over independent work units.

Work units carry their own derived RNG streams and share no mutable
state, and results are reduced in submission order, so outputs match
the single-thread run for any worker count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

ENV_THREADS = "OPINIONLAB_THREADS"


def resolve_threads(threads=None, default=1):
    """Worker count: threads when given, else $OPINIONLAB_THREADS when
    set, else default.  Raises ValueError naming the source unless the
    chosen value is a positive integer."""
    source = "threads"
    if threads is None and ENV_THREADS in os.environ:
        source, threads = ENV_THREADS, os.environ[ENV_THREADS]
    value = default if threads is None else threads
    if not str(value).strip().isdecimal() or int(value) < 1:
        raise ValueError(f"{source}: must be a positive integer, got {value!r}")
    return int(value)


def parallel_map(fn, items, threads=1):
    items = list(items)
    threads = resolve_threads(threads)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
