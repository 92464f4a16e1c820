"""k-clique listing and counting (paper Algorithm 3, after Danisch et al.).

The graph is oriented by the degeneracy order; each recursion level
intersects the running candidate set ``C_i`` with the out-neighborhood
of the next clique vertex.  Work is ``O(k m (c/2)^(k-2))`` with merge
intersections (paper Table 6).

The specialized 4-clique counter from Table 4 of the paper is also
provided (``four_clique_count_on``): it replaces the recursion by two
nested loops and an ``intersect_count``.
"""

from __future__ import annotations

from repro.algorithms.common import PatternBudget
from repro.errors import ConfigError, SisaError
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def _count_from(
    ctx: SisaContext,
    sg: SetGraph,
    level: int,
    k: int,
    candidates: int,
    prefix: list[int],
    budget: PatternBudget,
    cliques: list[tuple[int, ...]] | None,
) -> int:
    """Recursive step: ``candidates`` holds C_level (paper lines 11-18)."""
    if budget.exhausted:
        return 0
    if level == k:
        found = ctx.cardinality(candidates)
        if cliques is not None:
            for w in ctx.elements(candidates):
                cliques.append(tuple(prefix + [int(w)]))
        budget.count(found)
        return found
    if level == k - 1 and cliques is None and budget.limit is None:
        # Zero-materialization counting fast path (§6.2.3): the last
        # recursion level only needs |C_k| = |N+(v) ∩ C_{k-1}| per v,
        # so count-form instructions replace the materialize /
        # cardinality / delete triple.
        vs = ctx.elements(candidates)
        if vs.size == 0:
            return 0
        counts = ctx.intersect_count_batch(
            candidates, [sg.neighborhood(v) for v in vs.tolist()]
        )
        total = int(counts.sum())
        budget.count(total)
        return total
    total = 0
    for v in ctx.elements(candidates):
        if budget.exhausted:
            break
        v = int(v)
        next_candidates = ctx.intersect(sg.neighborhood(v), candidates)
        total += _count_from(
            ctx, sg, level + 1, k, next_candidates, prefix + [v], budget,
            cliques,
        )
        ctx.free(next_candidates)
    return total


def kclique_count_on(
    ctx: SisaContext,
    sg: SetGraph,
    k: int,
    *,
    max_patterns: int | None = None,
    collect: bool = False,
) -> int | list[tuple[int, ...]]:
    """Count (or list) k-cliques on an oriented SetGraph.

    Pure counting runs (no ``collect``, no pattern cutoff) use the
    zero-materialization counting fast path at the deepest level,
    batched over each candidate frontier.  At ``k = 3`` that recursion
    is, task for task, the per-burst loop of
    :meth:`~repro.runtime.context.SisaContext.fanout_counts` over
    ``N+`` (``begin_task``, the charged scan of ``N+(u)``, then
    ``|N+(u) ∩ N+(v)|`` for every ``v ∈ N+(u)``), so it runs as that
    chunked program.
    """
    if k < 2:
        raise ConfigError("k must be at least 2")
    if k == 3 and max_patterns is None and not collect:
        return int(ctx.fanout_counts(sg.set_ids).sum())
    budget = PatternBudget(max_patterns)
    cliques: list[tuple[int, ...]] | None = [] if collect else None
    total = 0
    for u in range(sg.num_vertices):
        if budget.exhausted:
            break
        ctx.begin_task()
        c2 = sg.neighborhood(u)
        total += _count_from(ctx, sg, 2, k, c2, [u], budget, cliques)
    if collect:
        if cliques is None:  # pragma: no cover - internal invariant
            raise SisaError(
                "internal error: collect=True but no clique list was kept",
                details={"k": k, "collect": collect},
            )
        return cliques
    return total


def four_clique_count_on(
    ctx: SisaContext,
    sg: SetGraph,
    *,
    max_patterns: int | None = None,
) -> int:
    """Table 4's specialized 4-clique snippet: no recursion needed.

    Without a pattern cutoff, the inner ``|S1 ∩ N+(v3)|`` fan-out is
    one batched count burst per wedge.
    """
    budget = PatternBudget(max_patterns)
    count = 0
    nbh = sg.neighborhood
    if budget.limit is None:
        # Materialize all wedge sets S1 of one vertex's frontier in one
        # burst, then one count burst per wedge.
        for v1 in range(sg.num_vertices):
            ctx.begin_task()
            out_v1 = nbh(v1)
            vs2 = ctx.elements(out_v1).tolist()
            if not vs2:
                continue
            s1_ids = ctx.intersect_batch(out_v1, [nbh(v2) for v2 in vs2])
            for s1 in s1_ids:
                vs3 = ctx.elements(s1).tolist()
                if vs3:
                    found = int(
                        ctx.intersect_count_batch(s1, [nbh(v3) for v3 in vs3]).sum()
                    )
                    count += found
                    budget.count(found)
                ctx.free(s1)
        return count
    for v1 in range(sg.num_vertices):
        if budget.exhausted:
            break
        ctx.begin_task()
        out_v1 = nbh(v1)
        for v2 in ctx.elements(out_v1):
            if budget.exhausted:
                break
            s1 = ctx.intersect(out_v1, nbh(int(v2)))
            for v3 in ctx.elements(s1):
                found = ctx.intersect_count(s1, nbh(int(v3)))
                count += found
                budget.count(found)
                if budget.exhausted:
                    break
            ctx.free(s1)
    return count
