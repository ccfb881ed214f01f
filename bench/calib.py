"""A fixed pure-Python kernel that measures how fast the machine runs now.

On a shared host the speed of the same Python code drifts by a quarter or
more over tens of seconds, with the load on the other tenants.  The worker
runs this kernel between its timed items, and run.py scales every time of
the run by ``NOMINAL_S`` over the kernel's mean time in that run, so the
end-to-end metrics read as times at one fixed machine speed.

The kernel is independent of ``torelli_graphs`` and must never change with
it: it canonicalizes small fixed multigraphs by a search over the orderings
inside their vertex colour classes, with the same kind of work as the
library (small objects, tuples, dicts, sorting), so the drift moves both
alike.  A change to this file changes every time the benchmark reports,
and its results are comparable only with results of the same kernel.
"""

from __future__ import annotations

import gc
import random
import time
from itertools import permutations

# seconds one sample takes at the reference speed: about the kernel's median
# on a 2-vCPU Intel Xeon VM at 2.1 GHz with CPython 3.11
NOMINAL_S = 0.004


class _Graph:
    __slots__ = ("n", "edges", "labels")

    def __init__(self, n, edges, labels):
        self.n = n
        self.edges = edges
        self.labels = labels


def _graphs():
    rng = random.Random(20240508)
    out = []
    for _ in range(7):
        n = rng.randint(5, 7)
        edges = [tuple(sorted((rng.randrange(n), rng.randrange(n))))
                 for _ in range(rng.randint(n, 2 * n))]
        out.append(_Graph(n, edges, [rng.randrange(2) for _ in range(n)]))
    return out


GRAPHS = _graphs()


def _certificate(graph):
    classes: dict = {}
    for v, c in enumerate(graph.labels):
        classes.setdefault(c, []).append(v)
    groups = [classes[c] for c in sorted(classes)]
    best = None
    # every ordering inside the colour classes, capped so that a sample
    # stays short
    stack = [()]
    for members in groups:
        stack = [prefix + perm for prefix in stack for perm in permutations(members)][:720]
    for order in stack:
        pos = {v: i for i, v in enumerate(order)}
        cert = tuple(sorted(tuple(sorted((pos[u], pos[v]))) for u, v in graph.edges))
        if best is None or cert < best:
            best = cert
    return best


def sample() -> float:
    """Seconds one pass of the kernel takes now.  The collector is off, so
    that a collection of the library's heap cannot land in a sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for graph in GRAPHS:
            _certificate(graph)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()
