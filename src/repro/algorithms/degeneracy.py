"""Set-centric approximate degeneracy order and k-core (paper Algorithm 6).

The streaming scheme (Farach-Colton & Tsai) strips, per round, every
vertex whose degree is at most ``(1 + eps)`` times the current average.
Its set operations — ``V \\= X`` and ``N(v) \\= X`` — are exactly the
SISA-accelerated kind: ``X`` is a dense bitvector and each
neighborhood update is one difference instruction.

Runs in ``O(log n)`` rounds with approximation ratio ``2 + eps``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def approx_degeneracy_on(
    graph: CSRGraph,
    ctx: SisaContext,
    sg: SetGraph,
    *,
    eps: float = 0.5,
) -> np.ndarray:
    """Per-vertex approximate degeneracy rank eta (round index)."""
    if eps <= 0:
        raise ConfigError("eps must be positive")
    n = graph.num_vertices
    eta = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return eta
    # Mutable copies of the neighborhoods (the algorithm shrinks them).
    live_neighborhoods = [ctx.clone(sg.neighborhood(v)) for v in range(n)]
    remaining = ctx.create_set(range(n), universe=n, dense=True)
    round_index = 0
    alive = n
    while alive:
        live = ctx.elements(remaining)
        # Degrees are O(1) metadata reads; the average is host-side math.
        degrees = np.array(
            [ctx.cardinality(live_neighborhoods[int(v)]) for v in live]
        )
        ctx.charge_host_ops(live.size)
        threshold = (1.0 + eps) * degrees.mean()
        stripped = live[degrees <= threshold]
        if stripped.size == 0:
            stripped = live[degrees == degrees.min()]
        eta[stripped] = round_index
        x = ctx.create_set(stripped, universe=n, dense=True)
        ctx.difference_into(remaining, x)
        for v in ctx.elements(remaining):
            ctx.begin_task()
            ctx.difference_into(live_neighborhoods[int(v)], x)
        ctx.free(x)
        alive -= stripped.size
        round_index += 1
    for v in range(n):
        ctx.free(live_neighborhoods[v])
    ctx.free(remaining)
    return eta


def kcore_from_eta(
    graph: CSRGraph,
    eta: np.ndarray,
    k: int,
) -> np.ndarray:
    """Derive a k-core approximation from the eta order (paper 5.1.5):
    iterate in eta order, dropping vertices with out-degree < k in the
    induced orientation, until a fixed point."""
    n = graph.num_vertices
    alive = np.ones(n, dtype=bool)
    changed = True
    while changed:
        changed = False
        # Orientation: v -> u iff eta(v) < eta(u), ties by id.
        for v in np.argsort(eta, kind="stable"):
            if not alive[v]:
                continue
            nbrs = graph.neighbors(int(v))
            degree = int(np.count_nonzero(alive[nbrs]))
            if degree < k:
                alive[v] = False
                changed = True
    return np.flatnonzero(alive)
