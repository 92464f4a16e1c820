"""k-clique-star listing (paper Algorithms 4 and 5).

A k-clique-star is a k-clique plus the adjacent vertices connected to
*all* clique members.  Two set-centric variants are implemented:

* :func:`kclique_star_intersect` — Algorithm 4 (Jabbour et al.): find
  k-cliques, then intersect all member neighborhoods and union with the
  clique.
* :func:`kclique_star_from_k1` — Algorithm 5 (the paper's own variant):
  find (k+1)-cliques and group them by their k-subsets; the extra
  vertices of each group form the star.
"""

from __future__ import annotations

from collections import defaultdict

from repro.graphs.csr import CSRGraph
from repro.algorithms.kclique import kclique_count_on
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def kclique_star_intersect_on(
    graph: CSRGraph,
    ctx: SisaContext,
    undirected_sg: SetGraph,
    oriented_sg: SetGraph,
    k: int,
    *,
    max_patterns: int | None = None,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Algorithm 4: per k-clique, ``X = ∩_{u∈clique} N(u)``; star = X ∪ clique.

    Returns ``(clique, star_vertices)`` pairs (deduplicated).
    """
    cliques = kclique_count_on(
        ctx, oriented_sg, k, max_patterns=max_patterns, collect=True
    )
    assert isinstance(cliques, list)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
    stars: dict[tuple[int, ...], tuple[int, ...]] = {}
    for clique in cliques:
        ctx.begin_task()
        members = list(clique)
        # One CISC-style multi-set instruction (paper Section 11's
        # proposed extension) computes ∩_{u∈Vc} N(u) without writing
        # intermediates back.
        x = ctx.intersect_many(
            *(undirected_sg.neighborhood(u) for u in members)
        )
        extras = tuple(
            int(w) for w in ctx.elements(x) if int(w) not in set(members)
        )
        ctx.free(x)
        if extras:
            stars[tuple(sorted(members))] = extras
    return sorted(stars.items())


def kclique_star_from_k1_on(
    ctx: SisaContext,
    oriented_sg: SetGraph,
    k: int,
    *,
    max_patterns: int | None = None,
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Algorithm 5: mine (k+1)-cliques, then S[c \\ {v}] ∪= c.

    Returns a map from k-clique to the union of its adjacent star
    vertices (only k-cliques with at least one extra vertex).
    """
    k1_cliques = kclique_count_on(
        ctx, oriented_sg, k + 1, max_patterns=max_patterns, collect=True
    )
    assert isinstance(k1_cliques, list)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
    stars: dict[tuple[int, ...], set[int]] = defaultdict(set)
    for clique in k1_cliques:
        ctx.begin_task()
        members = set(clique)
        # One set-insert per (sub-clique, extra-vertex) pair; the map
        # update is host-side bookkeeping.
        ctx.charge_host_ops(len(clique) * 4)
        for v in clique:
            key = tuple(sorted(members - {v}))
            stars[key].add(v)
    return {key: tuple(sorted(extra)) for key, extra in sorted(stars.items())}
