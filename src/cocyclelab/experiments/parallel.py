"""Order-preserving parallel map for experiment units that spend their time
in GIL-free LAPACK and batched numpy calls (E1's QR jobs, E4's flow runs).
Units that are Python loops around small matrices only take turns on the
interpreter lock, so their runners loop serially instead.

Worker count comes from COCYCLE_LAB_THREADS when set, and otherwise is the
number of CPUs this process may run on, at most 4; results are always
collected in input order so reports stay deterministic regardless of the
thread count.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_ENV = "COCYCLE_LAB_THREADS"


def worker_count() -> int:
    raw = os.environ.get(_ENV)
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return min(4, len(os.sched_getaffinity(0)))
        return min(4, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{_ENV} must be a positive integer, got {raw!r}")
    return n


def pmap(fn, items) -> list:
    """Map fn over items, preserving order; serial when one worker."""
    items = list(items)
    n = worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, items))
