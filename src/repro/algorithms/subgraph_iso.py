"""Subgraph isomorphism: the VF2 algorithm, set-centric (paper Algorithm 7).

Searches for embeddings of a (small) pattern graph ``G2`` in a target
graph ``G1``.  Target-side state is kept in SISA sets:

* ``M1`` — mapped target vertices (dense bitvector),
* ``T1`` — unmapped target vertices adjacent to ``M1`` (dense bitvector).

The feasibility rules use exactly the paper's set expressions::

    checkTerm = |N1(v1) ∩ T1| >= |N2(v2) ∩ T2|
    checkNew  = |N1(v1) \\ (M1 ∪ T1)| >= |N2(v2) \\ (M2 ∪ T2)|

Pattern-side sets are host-side Python sets (the pattern has a handful
of vertices; the paper likewise treats the pattern as small).

Labeled graphs are supported through ``verify_labels``: vertex labels
must match, and edge labels are checked on the edges between the new
pair and already-mapped vertices via ``N1(v1) ∩ M1`` (paper lines
15-19).  Embeddings are counted as *monomorphisms* (every pattern edge
maps to a target edge).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.common import PatternBudget
from repro.graphs.csr import CSRGraph
from repro.graphs.labels import Labeling
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def star_pattern(k: int) -> CSRGraph:
    """A k-star: one center connected to k leaves (the si-ks workload)."""
    edges = [(0, i) for i in range(1, k + 1)]
    return CSRGraph.from_edges(k + 1, edges)


@dataclass
class _SearchState:
    core_pattern_to_target: dict[int, int]
    m1: int  # set id: mapped target vertices
    t1: int  # set id: frontier of M1


class _Vf2Search:
    def __init__(
        self,
        graph: CSRGraph,
        ctx: SisaContext,
        sg: SetGraph,
        pattern: CSRGraph,
        *,
        target_labels: Labeling | None,
        pattern_labels: Labeling | None,
        budget: PatternBudget,
        collect: bool,
    ):
        self.graph = graph
        self.ctx = ctx
        self.sg = sg
        self.pattern = pattern
        self.target_labels = target_labels
        self.pattern_labels = pattern_labels
        self.budget = budget
        self.matches: list[dict[int, int]] = []
        self.count = 0
        self.collect = collect

    # -- pattern-side helpers (host work; the pattern is tiny) -----------

    def _pattern_frontier(self, mapped: set[int]) -> set[int]:
        frontier: set[int] = set()
        for u in mapped:
            frontier.update(int(w) for w in self.pattern.neighbors(u))
        return frontier - mapped

    def _next_pattern_vertex(self, mapped: set[int]) -> int:
        frontier = self._pattern_frontier(mapped)
        self.ctx.charge_host_ops(4 * max(1, self.pattern.num_vertices))
        if frontier:
            return min(frontier)
        unmapped = set(range(self.pattern.num_vertices)) - mapped
        return min(unmapped)

    def _verify_labels(self, state: _SearchState, v1: int, v2: int) -> bool:
        """Paper's verify_labels: vertex labels plus labels of edges into
        the already-mapped part (found via N1(v1) ∩ M1)."""
        if self.target_labels is None or self.pattern_labels is None:
            return True
        if self.target_labels.vertex_label(v1) != self.pattern_labels.vertex_label(v2):
            return False
        ctx, sg = self.ctx, self.sg
        mapped_neighbors = ctx.intersect(sg.neighborhood(v1), state.m1)
        target_to_pattern = {
            tv: pv for pv, tv in state.core_pattern_to_target.items()
        }
        ok = True
        for w1 in ctx.elements(mapped_neighbors):
            w1 = int(w1)
            w2 = target_to_pattern[w1]
            if not self.pattern.has_edge(v2, w2):
                continue  # target-only edge; irrelevant for monomorphism
            if self.target_labels.edge_label(v1, w1) != self.pattern_labels.edge_label(
                v2, w2
            ):
                ok = False
                break
        ctx.free(mapped_neighbors)
        return ok

    # -- feasibility ------------------------------------------------------

    def _feasible(
        self, state: _SearchState, mapped_pattern: set[int], v1: int, v2: int
    ) -> bool:
        ctx, sg = self.ctx, self.sg
        # R_core: every mapped pattern-neighbor of v2 must map to a
        # target-neighbor of v1.
        for u2 in self.pattern.neighbors(v2):
            u2 = int(u2)
            if u2 in state.core_pattern_to_target:
                u1 = state.core_pattern_to_target[u2]
                if not ctx.member(sg.neighborhood(v1), u1):
                    return False
        # Lookahead rules (checkTerm / checkNew).  For *monomorphism*
        # counting the induced-isomorphism form of checkNew is too
        # strong (a "new" pattern neighbor may map to a frontier target
        # vertex, because extra target edges are allowed), so the second
        # rule compares the combined frontier + new counts.
        t2 = self._pattern_frontier(mapped_pattern)
        n2 = {int(w) for w in self.pattern.neighbors(v2)}
        term2 = len(n2 & t2)
        new2 = len(n2 - t2 - mapped_pattern)
        term1 = ctx.intersect_count(sg.neighborhood(v1), state.t1)
        if term1 < term2:
            return False
        covered = ctx.union(state.m1, state.t1)
        new1 = ctx.difference_count(sg.neighborhood(v1), covered)
        ctx.free(covered)
        if term1 + new1 < term2 + new2:
            return False
        return self._verify_labels(state, v1, v2)

    # -- recursion ----------------------------------------------------------

    def match(self, state: _SearchState) -> None:
        if self.budget.exhausted:
            return
        ctx, sg = self.ctx, self.sg
        mapped_pattern = set(state.core_pattern_to_target)
        if len(mapped_pattern) == self.pattern.num_vertices:
            self.count += 1
            self.budget.count()
            if self.collect:
                self.matches.append(dict(state.core_pattern_to_target))
            return
        v2 = self._next_pattern_vertex(mapped_pattern)
        # Candidate target vertices: frontier if v2 touches the mapped
        # part, otherwise every unmapped vertex (root step).
        has_mapped_neighbor = any(
            int(u) in mapped_pattern for u in self.pattern.neighbors(v2)
        )
        if has_mapped_neighbor:
            candidate_set = ctx.clone(state.t1)
            candidates = ctx.elements(candidate_set)
            ctx.free(candidate_set)
        else:
            candidates = range(self.graph.num_vertices)
        for v1 in candidates:
            if self.budget.exhausted:
                break
            v1 = int(v1)
            if ctx.member(state.m1, v1):
                continue
            if not self._feasible(state, mapped_pattern, v1, v2):
                continue
            # NewState: extend M1 and recompute the frontier
            #   T1' = (T1 ∪ N(v1)) \ M1'.
            m_next = ctx.clone(state.m1)
            ctx.insert(m_next, v1)
            t_union = ctx.union(state.t1, sg.neighborhood(v1))
            t_next = ctx.difference(t_union, m_next)
            ctx.free(t_union)
            next_state = _SearchState(
                {**state.core_pattern_to_target, v2: v1}, m_next, t_next
            )
            self.match(next_state)
            ctx.free(m_next)
            ctx.free(t_next)


def subgraph_isomorphism_on(
    graph: CSRGraph,
    ctx: SisaContext,
    sg: SetGraph,
    pattern: CSRGraph,
    *,
    target_labels: Labeling | None = None,
    pattern_labels: Labeling | None = None,
    max_matches: int | None = None,
    collect: bool = False,
) -> int | list[dict[int, int]]:
    """Count (or list) monomorphic embeddings of ``pattern`` in ``graph``."""
    budget = PatternBudget(max_matches)
    search = _Vf2Search(
        graph,
        ctx,
        sg,
        pattern,
        target_labels=target_labels,
        pattern_labels=pattern_labels,
        budget=budget,
        collect=collect,
    )
    n = graph.num_vertices
    ctx.begin_task()
    m1 = ctx.create_set([], universe=n, dense=True)
    t1 = ctx.create_set([], universe=n, dense=True)
    search.match(_SearchState({}, m1, t1))
    ctx.free(m1)
    ctx.free(t1)
    if collect:
        return search.matches
    return search.count
