"""Triangle counting (paper Algorithm 1, set-centric node iterator).

The set-centric formulation counts, for every directed edge ``(u, v)``
of the degeneracy-oriented graph, the size of ``N+(u) ∩ N+(v)``.
Orienting by the degeneracy order makes every triangle counted exactly
once and bounds the merge work by ``O(m c)`` (paper Section 7.2).
"""

from __future__ import annotations

from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def triangle_count_oriented(digraph_sg: SetGraph, ctx: SisaContext) -> int:
    """Count triangles on an already-oriented SetGraph.

    The per-edge ``|N+(u) ∩ N+(v)|`` counts of one vertex's out-
    neighborhood are issued as one batched count burst.
    """
    total = 0
    for u in range(digraph_sg.num_vertices):
        ctx.begin_task()
        nbrs = ctx.elements(digraph_sg.neighborhood(u))
        if nbrs.size:
            total += int(digraph_sg.neighborhood_counts(u, nbrs).sum())
    return total
