"""Maximal clique listing: Bron-Kerbosch with pivoting and degeneracy
ordering (paper Algorithm 2; Eppstein-Loffler-Strash variant).

The auxiliary sets ``P`` (candidates) and ``X`` (excluded) are the
paper's canonical dynamic sets; following its recommendation (Section
6.2.4) they are stored as dense bitvectors so that adds/removes are a
single bit write and the ``P ∩ N(v)`` / ``X ∩ N(v)`` steps can run on
SISA-PUM when ``N(v)`` is dense.

The outer loop follows the degeneracy order; a vertex ``v`` seeds the
recursion with ``P`` its later neighbors and ``X`` its earlier
neighbors, maintained set-centrically with a shrinking ``Later`` DB.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import PatternBudget
from repro.graphs.csr import CSRGraph
from repro.graphs.orientation import degeneracy_order
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def _pivot(
    ctx: SisaContext, sg: SetGraph, p: int, x: int
) -> int:
    """Tomita pivoting: pick u from P ∪ X maximizing |P ∩ N(u)|."""
    union = ctx.union(p, x)
    best_vertex = -1
    best_score = -1
    for u in ctx.elements(union):
        score = ctx.intersect_count(p, sg.neighborhood(int(u)))
        if score > best_score:
            best_score = score
            best_vertex = int(u)
    ctx.free(union)
    return best_vertex


def _bk_pivot(
    ctx: SisaContext,
    sg: SetGraph,
    r: list[int],
    p: int,
    x: int,
    cliques: list[tuple[int, ...]],
    budget: PatternBudget,
) -> None:
    if budget.exhausted:
        return
    if ctx.cardinality(p) == 0 and ctx.cardinality(x) == 0:
        cliques.append(tuple(sorted(r)))
        budget.count()
        return
    if ctx.cardinality(p) == 0:
        return
    u = _pivot(ctx, sg, p, x)
    candidates = ctx.difference(p, sg.neighborhood(u))
    for v in ctx.elements(candidates):
        if budget.exhausted:
            break
        v = int(v)
        nv = sg.neighborhood(v)
        p_next = ctx.intersect(p, nv)
        x_next = ctx.intersect(x, nv)
        _bk_pivot(ctx, sg, r + [v], p_next, x_next, cliques, budget)
        ctx.free(p_next)
        ctx.free(x_next)
        ctx.remove(p, v)
        ctx.insert(x, v)
    ctx.free(candidates)


def maximal_cliques_on(
    graph: CSRGraph,
    ctx: SisaContext,
    sg: SetGraph,
    *,
    max_patterns: int | None = None,
    max_patterns_per_root: int | None = None,
    order: np.ndarray | None = None,
) -> list[tuple[int, ...]]:
    """List maximal cliques given prebuilt context and SetGraph.

    ``max_patterns`` bounds the total clique count; alternatively
    ``max_patterns_per_root`` caps each root task's subtree (the
    paper's per-thread cutoff, which preserves parallelism on dense
    graphs where a single root would exhaust a global cutoff).
    ``order`` accepts a precomputed degeneracy order (the session API
    caches it); the order computation is host-side and uncharged, so
    passing it changes no modeled cost.
    """
    n = graph.num_vertices
    if order is None:
        order = degeneracy_order(graph).order
    cliques: list[tuple[int, ...]] = []
    budget = PatternBudget(max_patterns)
    # `Later` holds vertices not yet used as a recursion root; it starts
    # full and loses one vertex per outer iteration.
    later = ctx.create_set(range(n), universe=n, dense=True)
    for v in order:
        if budget.exhausted:
            break
        ctx.begin_task()
        v = int(v)
        nv = sg.neighborhood(v)
        ctx.remove(later, v)
        p = ctx.intersect(nv, later)
        x = ctx.difference(nv, later)
        if max_patterns_per_root is None:
            root_budget = budget
        else:
            remaining = (
                None if budget.limit is None else budget.limit - budget.found
            )
            limit = (
                max_patterns_per_root
                if remaining is None
                else min(max_patterns_per_root, remaining)
            )
            root_budget = PatternBudget(max(0, limit))
        _bk_pivot(ctx, sg, [v], p, x, cliques, root_budget)
        if root_budget is not budget:
            budget.count(root_budget.found)
        ctx.free(p)
        ctx.free(x)
    ctx.free(later)
    return cliques
