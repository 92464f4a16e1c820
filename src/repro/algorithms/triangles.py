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

    One count burst ``|N+(u) ∩ N+(v)|, v ∈ N+(u)`` per vertex ``u``, run
    as one fan-out program
    (:meth:`~repro.runtime.context.SisaContext.fanout_counts`).
    """
    return int(ctx.fanout_counts(digraph_sg.set_ids).sum())
