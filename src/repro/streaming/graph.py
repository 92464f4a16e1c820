"""DynamicSetGraph: a mutable view over a SetGraph.

The paper's predefined graph structure fixes each neighborhood's
representation when the program starts (Section 6.1).  A streaming
workload breaks both assumptions that rule rests on: neighborhoods
mutate (through the element-update instructions of Table 5) and their
densities drift.  :class:`DynamicSetGraph` therefore

* applies batched edge insertions/deletions through the batched
  element-update dispatch
  (:meth:`repro.runtime.context.SisaContext.insert_batch` /
  ``remove_batch`` — cycle-identical to the sequential scalar stream),
* keeps the per-set ``SetMeta`` cardinality/representation state
  consistent (the runtime does this per update), and
* re-decides the SA ↔ DB representation of any neighborhood whose
  degree crosses the density thresholds after a batch, charged as a
  streaming read plus a CREATE of the new representation.

Because set values are immutable Python objects (every update installs
a *new* value), a consistent :class:`GraphSnapshot` is just a capture
of the current value references — copy-on-write, no data movement.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SisaError
from repro.graphs.csr import CSRGraph
from repro.graphs.streams import EdgeBatch, canonical_edges
from repro.hw.cost import Cost
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.sets.sparse import WORD_BITS


def ensure_live_view(view) -> None:
    """Reject a released :class:`GraphSnapshot` before any set work.

    A released snapshot's set IDs are freed — and may already be
    recycled for unrelated sets — so computing over it would silently
    read garbage.  Shared by ``SisaSession.run(..., view=...)`` and the
    incremental maintainers.
    """
    if getattr(view, "_released", False):
        raise SisaError(
            f"snapshot of epoch {view.epoch} has been released; its set "
            "IDs may have been recycled — capture a fresh snapshot"
        )


class _SetView:
    """Shared read interface of the live graph and its snapshots."""

    ctx: SisaContext
    universe: int
    _set_ids: list[int]

    @property
    def num_vertices(self) -> int:
        return len(self._set_ids)

    def neighborhood(self, v: int) -> int:
        """Set ID of ``N(v)``."""
        return self._set_ids[v]

    @property
    def set_ids(self) -> list[int]:
        return self._set_ids

    def degree(self, v: int) -> int:
        return self.ctx.sm.meta(self._set_ids[v]).cardinality

    def neighborhood_counts(self, u: int, vs) -> np.ndarray:
        """Batched ``|N(u) ∩ N(v)|`` for every vertex in ``vs``: one
        count burst (:meth:`~repro.runtime.context.SisaContext.
        intersect_count_batch`)."""
        ids = self._set_ids
        if isinstance(vs, np.ndarray):
            vs = vs.tolist()
        return self.ctx.intersect_count_batch(ids[u], [ids[v] for v in vs])

    def has_edge(self, u: int, v: int) -> bool:
        """Model-internal adjacency probe (charges nothing)."""
        return self.ctx.value(self._set_ids[u]).contains(v)

    def edge_array(self) -> np.ndarray:
        """Current undirected edges, ``u < v`` rows (model-internal
        export, e.g. for rebuild-equivalence checks)."""
        rows = []
        for u, sid in enumerate(self._set_ids):
            nbrs = self.ctx.value(sid).to_array()
            upper = nbrs[nbrs > u]
            if upper.size:
                rows.append(np.column_stack([np.full(upper.size, u, dtype=np.int64), upper]))
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(rows)


class GraphSnapshot(_SetView):
    """A consistent, immutable view of one epoch of the live graph.

    Snapshotting is copy-on-write: set values are immutable, so the
    snapshot just registers the current value references under fresh
    set IDs (one SM-entry write each — no set data is touched).  The
    live graph keeps mutating; analytics against the snapshot see the
    captured epoch until :meth:`release` frees its IDs.  Reading a
    *released* snapshot raises :class:`~repro.errors.SisaError`: its set
    IDs may already be recycled for unrelated sets, so the computation
    would silently produce garbage.
    """

    def __init__(self, dynamic: "DynamicSetGraph"):
        ctx = dynamic.ctx
        self.ctx = ctx
        self.universe = dynamic.universe
        self.epoch = dynamic.epoch
        values = [ctx.sm.value(sid) for sid in dynamic.set_ids]
        self._set_ids = [ctx.sm.register(value) for value in values]
        # The SCU writes one SM entry per aliased set; no data movement.
        ctx.charge_host(
            Cost(compute_cycles=ctx.hw.scu_dispatch_cycles * len(values))
        )
        self._released = False

    def release(self) -> None:
        """Free the snapshot's set IDs (DELETE per aliased set)."""
        if self._released:
            return
        for sid in self._set_ids:
            self.ctx.free(sid)
        self._released = True

    @property
    def released(self) -> bool:
        return self._released

    def neighborhood(self, v: int) -> int:
        ensure_live_view(self)
        return super().neighborhood(v)

    def degree(self, v: int) -> int:
        ensure_live_view(self)
        return super().degree(v)

    def neighborhood_counts(self, u: int, vs) -> np.ndarray:
        ensure_live_view(self)
        return super().neighborhood_counts(u, vs)

    def has_edge(self, u: int, v: int) -> bool:
        ensure_live_view(self)
        return super().has_edge(u, v)

    def edge_array(self) -> np.ndarray:
        ensure_live_view(self)
        return super().edge_array()


class DynamicSetGraph(_SetView):
    """Neighborhood sets that evolve under batched edge updates.

    Construct it over an existing :class:`SetGraph` (both views share
    the same set IDs, so static algorithms keep working on the evolving
    state) or directly via :meth:`from_graph`.

    ``dense_bits``/``sparse_bits`` are the re-decision thresholds in
    DB-storage fractions: a sparse neighborhood converts to a DB once
    ``W * degree >= dense_bits * n`` (at 1.0 the DB is no larger than
    the SA it replaces), and a DB falls back to an SA once
    ``W * degree < sparse_bits * n`` (the gap is hysteresis, so a
    neighborhood oscillating around the threshold does not thrash).
    On the ``cpu-set`` host baseline every neighborhood stays an SA,
    as at construction.
    """

    def __init__(
        self,
        base: SetGraph,
        *,
        dense_bits: float = 1.0,
        sparse_bits: float = 0.25,
    ):
        if not 0.0 < sparse_bits <= dense_bits:
            raise ConfigError("need 0 < sparse_bits <= dense_bits")
        self.base = base
        self.ctx = base.ctx
        self.universe = base.universe
        self._set_ids = base.set_ids
        self._dense_mask = base.dense_mask
        self._dense_degree = dense_bits * base.universe / WORD_BITS
        self._sparse_degree = sparse_bits * base.universe / WORD_BITS
        self.epoch = 0
        # Counts every applied update burst, including mid-batch ones
        # (epoch only advances at finish_batch).  Consumers caching
        # derived state — e.g. a session's CSR/orientation caches — key
        # on (epoch, mutations) so partially applied batches are never
        # mistaken for the last finished epoch.
        self.mutations = 0
        # Maintainers subscribed directly to this graph (e.g. a
        # session's orientation maintainer).  They are driven through
        # the same delete→observe→insert protocol as engine-owned
        # maintainers, by apply_batch and by every StreamingEngine
        # step.  Raw apply_insertions/apply_deletions calls bypass
        # them — subscribers detect that through ``mutations``.
        self._subscribers: list = []

    @classmethod
    def from_graph(
        cls,
        graph: CSRGraph,
        ctx: SisaContext,
        *,
        t: float = 0.4,
        budget: float = 0.1,
        policy: str = "fraction",
        dense_bits: float = 1.0,
        sparse_bits: float = 0.25,
    ) -> "DynamicSetGraph":
        base = SetGraph.from_graph(graph, ctx, t=t, budget=budget, policy=policy)
        return cls(base, dense_bits=dense_bits, sparse_bits=sparse_bits)

    @property
    def dense_mask(self) -> np.ndarray:
        return self._dense_mask

    @property
    def version(self) -> tuple[int, int]:
        """The stream state stamp ``(epoch, mutations)``.

        Every consumer that caches state derived from the live sets —
        session CSR/orientation caches, result-cache keys, compiled
        :class:`~repro.session.plan.WorkloadPlan` pins — keys on this
        tuple; the mutation count covers mid-batch updates that have not
        advanced the epoch yet."""
        return (self.epoch, self.mutations)

    @property
    def edge_count(self) -> int:
        sm = self.ctx.sm
        return sum(sm.meta(sid).cardinality for sid in self._set_ids) // 2

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def _edge_updates(self, edges: np.ndarray) -> list[tuple[int, int]]:
        ids = self._set_ids
        updates: list[tuple[int, int]] = []
        for u, v in edges:
            updates.append((ids[u], int(v)))
            updates.append((ids[v], int(u)))
        return updates

    def apply_insertions(
        self, edges: np.ndarray, *, canonical: bool = False
    ) -> np.ndarray:
        """Insert an edge batch; every requested update dispatches an
        element-update instruction (already-present edges are charged
        no-ops, as in the scalar stream).  Returns the effective
        (actually new) edges.  ``canonical=True`` skips
        re-canonicalization for callers that already did it."""
        if not canonical:
            edges = canonical_edges(edges, self.num_vertices)
        if edges.shape[0] == 0:
            return edges
        self.mutations += 1
        flags = self.ctx.insert_batch(self._edge_updates(edges))
        return edges[flags[0::2]]

    def apply_deletions(
        self, edges: np.ndarray, *, canonical: bool = False
    ) -> np.ndarray:
        """Delete an edge batch; returns the effective (actually
        removed) edges."""
        if not canonical:
            edges = canonical_edges(edges, self.num_vertices)
        if edges.shape[0] == 0:
            return edges
        self.mutations += 1
        flags = self.ctx.remove_batch(self._edge_updates(edges))
        return edges[flags[0::2]]

    def absent_edges(self, edges: np.ndarray) -> np.ndarray:
        """The subset of a canonical edge array not currently in the
        graph (model-internal: one vectorized membership probe per
        distinct first endpoint)."""
        if edges.shape[0] == 0:
            return edges
        value = self.ctx.value
        ids = self._set_ids
        groups: dict[int, list[int]] = {}
        for k, (u, _) in enumerate(edges):
            groups.setdefault(int(u), []).append(k)
        absent = np.zeros(edges.shape[0], dtype=bool)
        for u, rows in groups.items():
            vs = edges[rows, 1]
            absent[rows] = ~value(ids[u]).contains_many(vs)
        return edges[absent]

    def finish_batch(self, touched: np.ndarray) -> int:
        """Close out one update batch: re-decide representations for the
        touched vertices and advance the epoch.  Returns the number of
        SA ↔ DB conversions performed."""
        conversions = 0
        if self.ctx.mode != "cpu-set":
            mask = self._dense_mask
            for v in np.asarray(touched, dtype=np.int64).ravel():
                deg = self.degree(int(v))
                if not mask[v] and deg >= self._dense_degree:
                    if self.ctx.convert_representation(self._set_ids[v], dense=True):
                        mask[v] = True
                        conversions += 1
                elif mask[v] and deg < self._sparse_degree:
                    if self.ctx.convert_representation(self._set_ids[v], dense=False):
                        mask[v] = False
                        conversions += 1
        self.epoch += 1
        return conversions

    # ------------------------------------------------------------------
    # Maintainer subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, maintainer) -> None:
        """Register a :class:`StreamMaintainer` hook on the graph
        itself: it observes every batch applied through
        :meth:`apply_batch` *or* a :class:`StreamingEngine`, in
        addition to any engine-owned maintainers."""
        if maintainer not in self._subscribers:
            self._subscribers.append(maintainer)

    def unsubscribe(self, maintainer) -> None:
        self._subscribers.remove(maintainer)

    @property
    def subscribers(self) -> tuple:
        return tuple(self._subscribers)

    def apply_batch(self, batch: EdgeBatch) -> tuple[np.ndarray, np.ndarray]:
        """Apply one :class:`EdgeBatch` (deletions first, then
        insertions) and finish the epoch.  Returns the effective
        ``(deleted, inserted)`` edge arrays.  Subscribed maintainers
        observe the batch through the engine protocol (both counting
        hooks see the intermediate graph ``G1``); use
        :class:`~repro.streaming.engine.StreamingEngine` when
        *additional* per-engine maintainers are involved."""
        deleted, inserted, __, __ = drive_batch(
            self, list(self._subscribers), batch
        )
        return deleted, inserted

    def snapshot(self) -> GraphSnapshot:
        """Capture the current epoch as a consistent read-only view."""
        return GraphSnapshot(self)


def touched_vertices(*edge_arrays: np.ndarray) -> np.ndarray:
    """Unique endpoints across effective edge arrays."""
    parts = [np.asarray(e, dtype=np.int64).ravel() for e in edge_arrays if len(e)]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(parts))


def drive_batch(
    dynamic: DynamicSetGraph, hooks, batch: EdgeBatch
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The single implementation of the per-batch maintainer protocol.

    Shared by :meth:`DynamicSetGraph.apply_batch` (graph subscribers
    only) and :meth:`StreamingEngine.step` (engine maintainers plus
    subscribers), so the ordering contract — both counting hooks
    observe the intermediate graph ``G1``, after deletions and before
    insertions — is encoded exactly once:

    1. apply the deletion batch → ``G1``,
    2. ``on_deletions(G1, effective_deletions)`` per hook,
    3. resolve effective insertions against ``G1``, pre-apply,
    4. ``on_insertions(G1, effective_insertions)`` per hook,
    5. apply the insertion batch → ``G2``,
    6. ``on_applied(G2, touched_vertices)`` per hook,
    7. re-decide representations for touched vertices, advance the
       epoch.

    Returns ``(deleted, inserted, touched, conversions)``.
    """
    deleted = dynamic.apply_deletions(batch.deletions)
    for maintainer in hooks:
        maintainer.on_deletions(dynamic, deleted)
    insertions = canonical_edges(batch.insertions, dynamic.num_vertices)
    if hooks:
        effective = dynamic.absent_edges(insertions)
        for maintainer in hooks:
            maintainer.on_insertions(dynamic, effective)
    inserted = dynamic.apply_insertions(insertions, canonical=True)
    touched = touched_vertices(deleted, inserted)
    for maintainer in hooks:
        maintainer.on_applied(dynamic, touched)
    conversions = dynamic.finish_batch(touched)
    return deleted, inserted, touched, conversions
