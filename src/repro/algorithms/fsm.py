"""Frequent subgraph mining (paper Algorithm 8, Apriori-style).

Candidates of size ``k`` are generated from frequent subgraphs of size
``k - 1`` by edge extension; each candidate's support is measured with
the VF2 subgraph-isomorphism kernel (Algorithm 7), which is where all
the set operations happen.  A pattern is frequent when its embedding
count reaches ``sigma * n``.

Patterns are canonicalized by a simple exact graph-invariant key
(sorted degree sequence + sorted canonical adjacency under the best
permutation) — exponential in pattern size, fine for the small pattern
sizes FSM explores here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.algorithms.subgraph_iso import subgraph_isomorphism_on
from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def canonical_key(pattern: CSRGraph) -> tuple:
    """A permutation-invariant key for small patterns (exact, brute force)."""
    n = pattern.num_vertices
    best: tuple | None = None
    base_edges = {(int(u), int(v)) for u, v in pattern.edge_array()}
    for perm in itertools.permutations(range(n)):
        mapped = tuple(
            sorted(
                (min(perm[u], perm[v]), max(perm[u], perm[v]))
                for u, v in base_edges
            )
        )
        if best is None or mapped < best:
            best = mapped
    return (n, best)


def _extend_pattern(pattern: CSRGraph) -> list[CSRGraph]:
    """All one-vertex extensions: attach a new vertex to any subset
    position (single edge) — the tree-join style generation kernel."""
    n = pattern.num_vertices
    extensions = []
    edges = [(int(u), int(v)) for u, v in pattern.edge_array()]
    for anchor in range(n):
        extensions.append(CSRGraph.from_edges(n + 1, edges + [(anchor, n)]))
    # Also close one extra edge between existing vertices (cycle growth).
    for u in range(n):
        for v in range(u + 1, n):
            if not pattern.has_edge(u, v):
                extensions.append(CSRGraph.from_edges(n, edges + [(u, v)]))
    return extensions


@dataclass
class FsmResult:
    frequent: dict[int, list[CSRGraph]]  # size -> patterns
    supports: dict[tuple, int]  # canonical key -> embedding count

    @property
    def total_frequent(self) -> int:
        return sum(len(p) for p in self.frequent.values())


def frequent_subgraphs_on(
    graph: CSRGraph,
    ctx: SisaContext,
    sg: SetGraph,
    *,
    sigma: float,
    max_size: int = 3,
    max_matches_per_pattern: int = 2_000,
) -> FsmResult:
    """Mine frequent subgraphs of up to ``max_size`` vertices."""
    if not 0.0 < sigma:
        raise ConfigError("sigma must be positive")
    n = graph.num_vertices
    threshold = sigma * n
    single_edge = CSRGraph.from_edges(2, [(0, 1)])
    frequent: dict[int, list[CSRGraph]] = {}
    supports: dict[tuple, int] = {}

    count = subgraph_isomorphism_on(
        graph, ctx, sg, single_edge, max_matches=max_matches_per_pattern
    )
    assert isinstance(count, int)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
    supports[canonical_key(single_edge)] = count
    if count >= threshold:
        frequent[2] = [single_edge]
    def measure(candidates: dict[tuple, CSRGraph]) -> list[CSRGraph]:
        found: list[CSRGraph] = []
        for key, candidate in sorted(candidates.items()):
            if key in supports:
                continue
            count = subgraph_isomorphism_on(
                graph,
                ctx,
                sg,
                candidate,
                max_matches=max_matches_per_pattern,
            )
            assert isinstance(count, int)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
            supports[key] = count
            if count >= threshold:
                found.append(candidate)
        return found

    size = 3
    while size <= max_size and frequent.get(size - 1):
        candidates: dict[tuple, CSRGraph] = {}
        for parent in frequent[size - 1]:
            for child in _extend_pattern(parent):
                if child.num_vertices != size:
                    continue
                candidates.setdefault(canonical_key(child), child)
        found = measure(candidates)
        # Densification pass: a frequent size-k pattern's edge closures
        # are also size-k candidates (e.g. the triangle closes a path).
        # Iterate to a fixed point within this size.
        frontier = list(found)
        while frontier:
            closures: dict[tuple, CSRGraph] = {}
            for parent in frontier:
                for child in _extend_pattern(parent):
                    if child.num_vertices != size:
                        continue
                    key = canonical_key(child)
                    if key not in supports:
                        closures.setdefault(key, child)
            frontier = measure(closures)
            found.extend(frontier)
        if found:
            frequent[size] = found
        size += 1
    return FsmResult(frequent=frequent, supports=supports)
