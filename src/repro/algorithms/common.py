"""Shared plumbing for set-centric algorithm implementations.

Every algorithm in this package follows the same contract:

* it consumes a :class:`~repro.runtime.context.SisaContext` plus one or
  two :class:`~repro.runtime.setgraph.SetGraph` views of the input,
* it produces its functional output (counts, cliques, orders, ...) and
  leaves the timing in the context's engine,
* long-running pattern searches accept a *pattern cutoff*, mirroring
  the paper's methodology for long simulations ("we usually also
  pre-specify a number of graph patterns to be found", Section 9.1).

The kernels are the ``*_on`` functions; they are run through the
session API (:class:`~repro.session.session.SisaSession`), which owns
the context and caches the SetGraph views across runs.
"""

from __future__ import annotations

from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph, orient_by_order
from repro.graphs.orientation import degeneracy_order
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


class PatternBudget:
    """Counts found patterns and signals when the cutoff is reached."""

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.found = 0

    def count(self, amount: int = 1) -> None:
        self.found += amount

    @property
    def exhausted(self) -> bool:
        return self.limit is not None and self.found >= self.limit


def oriented_setgraph(
    graph: CSRGraph,
    ctx: SisaContext,
    *,
    t: float = 0.4,
    budget: float = 0.1,
    policy: str = "fraction",
) -> tuple[DiGraph, SetGraph]:
    """Degeneracy-orient the graph and materialize N+ as SISA sets."""
    result = degeneracy_order(graph)
    digraph = orient_by_order(graph, result.order)
    sg = SetGraph.from_digraph(digraph, ctx, t=t, budget=budget, policy=policy)
    return digraph, sg
