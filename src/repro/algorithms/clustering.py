"""Jarvis-Patrick clustering (paper Algorithm 11).

Two vertices belong to the same cluster when their neighborhoods are
similar enough: for each edge ``(v, u)``, keep it iff the similarity of
``N(v)`` and ``N(u)`` exceeds a threshold tau.  The evaluation runs
this with the Jaccard (cl-jac), overlap (cl-ovr) and total-neighbors
(cl-tot) coefficients.

The output is the set of kept edges plus the connected components they
induce (the clusters).
"""

from __future__ import annotations

from repro.algorithms.similarity import (
    iter_shared_first_runs,
    similarity_batch_on,
)
from repro.graphs.csr import CSRGraph
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def jarvis_patrick_on(
    graph: CSRGraph,
    ctx: SisaContext,
    sg: SetGraph,
    *,
    tau: float,
    measure: str = "common_neighbors",
) -> list[tuple[int, int]]:
    """Edges whose endpoint similarity exceeds tau.

    Each vertex's edge run is scored as one batched instruction burst
    over its incident edges."""
    kept: list[tuple[int, int]] = []
    edges = graph.edge_array()
    for u, i, j in iter_shared_first_runs(edges):
        ctx.begin_task()
        run = edges[i:j]
        scores = similarity_batch_on(ctx, sg, u, run[:, 1], measure=measure)
        ctx.charge_host_ops(2 * len(run))  # threshold compare + append
        for (uu, vv), score in zip(run, scores):
            if score > tau:
                kept.append((int(uu), int(vv)))
    return kept


def clusters_from_edges(
    num_vertices: int, edges: list[tuple[int, int]]
) -> list[set[int]]:
    """Connected components of the kept-edge graph (host-side union-find)."""
    parent = list(range(num_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    touched = {w for edge in edges for w in edge}
    for w in touched:
        groups.setdefault(find(w), set()).add(w)
    return sorted(groups.values(), key=lambda s: (-len(s), min(s)))
