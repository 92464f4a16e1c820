"""Incremental analytics maintainers for streaming graphs.

Every maintainer updates its statistic from an *effective* edge batch
(the edges that actually changed the graph) instead of recomputing
from scratch, touching only the vertices the batch affects.  All set
work goes through SISA instructions on the owning context, so the
incremental path is cycle-accounted exactly like the static
algorithms it replaces.

The delta algebra (the :class:`~repro.streaming.engine.StreamingEngine`
protocol guarantees both hooks observe the *intermediate* graph ``G1``
— after the batch's deletions, before its insertions):

* inserting an edge set ``I`` into ``G1`` creates
  ``Σ_{(u,v)∈I} |N_G1(u) ∩ N_G1(v)|`` triangles with one new edge,
  plus one triangle per pair of ``I``-edges sharing an endpoint whose
  closing edge is in ``G1``, plus the triangles formed entirely by
  ``I``-edges;
* deleting ``D`` from ``G`` destroys the mirror-image terms measured
  on ``G1 = G \\ D``.

Both cases therefore run the *same* counting code on ``G1``, with
opposite signs.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.similarity import (
    COUNT_MEASURES,
    all_pairs_similarity_on,
    iter_shared_first_runs,
    similarity_batch_on,
)
from repro.runtime.context import SisaContext
from repro.streaming.graph import ensure_live_view


# ---------------------------------------------------------------------------
# Full-recompute references (the static baselines the bench compares to)
# ---------------------------------------------------------------------------

def local_triangle_counts(view, ctx: SisaContext) -> np.ndarray:
    """Per-vertex triangle counts by full recompute: one count burst per
    vertex, run as one fan-out program
    (:meth:`~repro.runtime.context.SisaContext.fanout_counts`;
    ``Σ_{u∈N(v)} |N(v) ∩ N(u)|`` counts each triangle at its center
    twice)."""
    ensure_live_view(view)
    return ctx.fanout_counts(view.set_ids) // 2


def clustering_coefficients_from_counts(
    counts: np.ndarray, degrees: np.ndarray
) -> np.ndarray:
    """Local clustering coefficients ``2 T_v / (d_v (d_v - 1))``."""
    d = degrees.astype(np.float64)
    denom = d * (d - 1.0)
    return np.divide(
        2.0 * counts.astype(np.float64),
        denom,
        out=np.zeros(counts.size, dtype=np.float64),
        where=denom > 0,
    )


def watchlist_scores(
    view, ctx: SisaContext, pairs: np.ndarray, *, measure: str = "jaccard"
) -> np.ndarray:
    """Similarity scores of a candidate-pair watchlist by full
    recompute (batched count bursts over shared-first-endpoint runs)."""
    return all_pairs_similarity_on(ctx, view, pairs, measure=measure)


def degrees_of(view) -> np.ndarray:
    """Per-vertex degrees from set metadata (model-internal)."""
    sm = view.ctx.sm
    return np.asarray(
        [sm.meta(sid).cardinality for sid in view.set_ids], dtype=np.int64
    )


# ---------------------------------------------------------------------------
# Maintainer protocol
# ---------------------------------------------------------------------------

class StreamMaintainer:
    """Hook interface the :class:`StreamingEngine` drives per batch.

    ``on_deletions``/``on_insertions`` both observe the intermediate
    graph ``G1`` (deletions applied, insertions not yet);
    ``on_applied`` observes the final post-batch graph.
    """

    def on_deletions(self, dynamic, edges: np.ndarray) -> None:  # noqa: B027
        pass

    def on_insertions(self, dynamic, edges: np.ndarray) -> None:  # noqa: B027
        pass

    def on_applied(self, dynamic, touched: np.ndarray) -> None:  # noqa: B027
        pass


def _sorted_canonical(edges: np.ndarray) -> np.ndarray:
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def _incidence(edges: np.ndarray) -> dict[int, list[int]]:
    incident: dict[int, list[int]] = {}
    for u, v in edges:
        incident.setdefault(int(u), []).append(int(v))
        incident.setdefault(int(v), []).append(int(u))
    return incident


def _batch_adjacency(edges: np.ndarray) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(int(u), set()).add(int(v))
        adj.setdefault(int(v), set()).add(int(u))
    return adj


class IncrementalTriangleCount(StreamMaintainer):
    """Maintains the global triangle count with count-form bursts only
    (no intermediate set is ever materialized)."""

    def __init__(self, dynamic, *, count: int | None = None):
        ensure_live_view(dynamic)
        if count is None:
            count = int(
                local_triangle_counts(dynamic, dynamic.ctx).sum()
            ) // 3
        self.count = count

    def on_deletions(self, dynamic, edges: np.ndarray) -> None:
        self.count -= self._delta(dynamic, edges)

    def on_insertions(self, dynamic, edges: np.ndarray) -> None:
        self.count += self._delta(dynamic, edges)

    def _delta(self, dynamic, edges: np.ndarray) -> int:
        if len(edges) == 0:
            return 0
        ctx = dynamic.ctx
        total = 0
        # Term 1: triangles with one batch edge — one count burst per
        # shared-first-endpoint run.
        e = _sorted_canonical(edges)
        for u, i, j in iter_shared_first_runs(e):
            ctx.begin_task()
            total += int(dynamic.neighborhood_counts(u, e[i:j, 1]).sum())
        # Term 2: pairs of batch edges sharing an endpoint, closed by a
        # G1 edge.  Σ_{v∈S_u} |S_u ∩ N(v)| counts each closed pair
        # twice.
        for u, batch_nbrs in _incidence(e).items():
            if len(batch_nbrs) < 2:
                continue
            ctx.begin_task()
            s_id = ctx.create_set(sorted(batch_nbrs), universe=dynamic.universe)
            counts = ctx.intersect_count_batch(
                s_id, [dynamic.neighborhood(v) for v in batch_nbrs]
            )
            total += int(counts.sum()) // 2
            ctx.free(s_id)
        # Term 3: triangles formed entirely by batch edges (host-side;
        # the batch is tiny relative to the graph).
        adj = _batch_adjacency(e)
        tri3 = 0
        host_ops = 0
        for u, v in e:
            common = adj[int(u)] & adj[int(v)]
            tri3 += len(common)
            host_ops += min(len(adj[int(u)]), len(adj[int(v)]))
        ctx.charge_host_ops(2 * len(e) + host_ops)
        return total + tri3 // 3


class IncrementalClusteringCoefficients(StreamMaintainer):
    """Maintains per-vertex triangle counts (and thus local clustering
    coefficients).  Needs the identities of the closing vertices, so it
    uses the materializing batched intersection instead of count
    bursts."""

    def __init__(self, dynamic, *, counts: np.ndarray | None = None):
        ensure_live_view(dynamic)
        if counts is None:
            counts = local_triangle_counts(dynamic, dynamic.ctx)
        self.counts = counts.astype(np.int64, copy=True)

    def on_deletions(self, dynamic, edges: np.ndarray) -> None:
        self._update(dynamic, edges, -1)

    def on_insertions(self, dynamic, edges: np.ndarray) -> None:
        self._update(dynamic, edges, +1)

    def _update(self, dynamic, edges: np.ndarray, sign: int) -> None:
        if len(edges) == 0:
            return
        ctx = dynamic.ctx
        T = self.counts
        e = _sorted_canonical(edges)
        # Term 1: materialize N_G1(u) ∩ N_G1(v) per batch edge, batched
        # over shared-u runs; every closing vertex w gains a triangle.
        for u, i, j in iter_shared_first_runs(e):
            ctx.begin_task()
            vs = [int(x) for x in e[i:j, 1]]
            shared_ids = ctx.intersect_batch(
                dynamic.neighborhood(u), [dynamic.neighborhood(v) for v in vs]
            )
            for v, sid in zip(vs, shared_ids):
                ws = ctx.elements(sid)
                if ws.size:
                    np.add.at(T, ws, sign)
                    T[u] += sign * ws.size
                    T[v] += sign * ws.size
                ctx.free(sid)
        # Term 2: adjacent batch-edge pairs closed by a G1 edge; each
        # pair (v, w) surfaces twice, keep the w > v occurrence.
        for u, batch_nbrs in _incidence(e).items():
            if len(batch_nbrs) < 2:
                continue
            ctx.begin_task()
            batch_nbrs = sorted(batch_nbrs)
            s_id = ctx.create_set(batch_nbrs, universe=dynamic.universe)
            closed = ctx.intersect_batch(
                s_id, [dynamic.neighborhood(v) for v in batch_nbrs]
            )
            for v, sid in zip(batch_nbrs, closed):
                ws = ctx.elements(sid)
                for w in ws[ws > v]:
                    T[u] += sign
                    T[v] += sign
                    T[int(w)] += sign
                ctx.free(sid)
            ctx.free(s_id)
        # Term 3: triangles entirely inside the batch (host-side).
        adj = _batch_adjacency(e)
        host_ops = 0
        for u, v in e:
            u, v = int(u), int(v)
            host_ops += min(len(adj[u]), len(adj[v]))
            for w in adj[u] & adj[v]:
                if w > v:
                    T[u] += sign
                    T[v] += sign
                    T[w] += sign
        ctx.charge_host_ops(2 * len(e) + host_ops)

    @property
    def triangle_count(self) -> int:
        return int(self.counts.sum()) // 3

    def coefficients(self, dynamic) -> np.ndarray:
        return clustering_coefficients_from_counts(
            self.counts, degrees_of(dynamic)
        )


class IncrementalLinkPrediction(StreamMaintainer):
    """Maintains similarity scores for a fixed candidate-pair
    watchlist.  A pair's score can only change when a batch touches one
    of its endpoints' neighborhoods, so only those pairs are re-scored
    (batched over shared-first-endpoint runs) against the post-batch
    graph."""

    def __init__(
        self,
        dynamic,
        pairs: np.ndarray,
        *,
        measure: str = "jaccard",
        scores: np.ndarray | None = None,
    ):
        ensure_live_view(dynamic)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        self.pairs = np.asarray(pairs, dtype=np.int64)[order]
        self.measure = measure
        if scores is None:
            scores = watchlist_scores(
                dynamic, dynamic.ctx, self.pairs, measure=measure
            )
        self.scores = np.asarray(scores, dtype=np.float64).copy()

    def on_applied(self, dynamic, touched: np.ndarray) -> None:
        if touched.size == 0:
            return
        mask = np.isin(self.pairs[:, 0], touched) | np.isin(
            self.pairs[:, 1], touched
        )
        ctx = dynamic.ctx
        # Affected-pair resolution is host-side bookkeeping over an
        # inverted endpoint index (vertex -> watchlist pairs): one
        # index lookup per touched vertex.
        host_ops = 2.0 * touched.size
        if self.measure not in COUNT_MEASURES:
            # Shared-neighbor measures (Adamic-Adar, Resource
            # Allocation) weight each shared neighbor by its degree, so
            # a pair is also affected when a touched vertex is adjacent
            # to both endpoints (its degree changed).  Endpoint changes
            # of w itself are already covered by the endpoint mask.
            # Modeled as one neighborhood walk per touched vertex
            # (streaming N(w) against the endpoint index).
            a, b = self.pairs[:, 0], self.pairs[:, 1]
            for w in touched:
                nbrs = ctx.value(dynamic.neighborhood(int(w)))
                mask |= nbrs.contains_many(a) & nbrs.contains_many(b)
                host_ops += nbrs.cardinality
        if not mask.any():
            ctx.charge_host_ops(host_ops)
            return
        idx = np.flatnonzero(mask)
        ctx.charge_host_ops(host_ops + 2.0 * idx.size)
        affected = self.pairs[idx]
        for u, i, j in iter_shared_first_runs(affected):
            ctx.begin_task()
            run = affected[i:j]
            self.scores[idx[i:j]] = similarity_batch_on(
                ctx, dynamic, u, run[:, 1], measure=self.measure
            )

    def top_pairs(self, k: int) -> np.ndarray:
        """The k highest-scoring watchlist pairs (stable order)."""
        top = np.argsort(-self.scores, kind="stable")[:k]
        return self.pairs[np.sort(top)]
