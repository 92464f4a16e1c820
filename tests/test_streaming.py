"""Streaming dynamic-graph subsystem: equivalence and protocol tests.

Contracts under test:

* any interleaving of insert/remove edge batches leaves a
  ``DynamicSetGraph`` bit-identical (elements, cardinalities,
  algorithm outputs) to a ``SetGraph`` rebuilt from the final edge
  list (hypothesis property),
* incremental triangle/clustering/link-prediction maintenance equals
  full recompute on every tested edge-stream workload,
* snapshots stay frozen at their capture epoch while the live graph
  mutates,
* representation re-decision converts neighborhoods crossing the
  density thresholds (and never on the ``cpu-set`` host baseline),
* stream generators are deterministic and conserve the edge set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.common import oriented_setgraph
from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import gnp_random_graph
from repro.graphs.streams import (
    EdgeBatch,
    canonical_edges,
    churn_stream,
    insert_only_stream,
    sliding_window_stream,
)
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.sets.base import Representation
from repro.streaming import (
    DynamicSetGraph,
    IncrementalClusteringCoefficients,
    IncrementalLinkPrediction,
    IncrementalTriangleCount,
    StreamingEngine,
    clustering_coefficients_from_counts,
    local_triangle_counts,
    watchlist_scores,
)
from repro.streaming.incremental import degrees_of

N = 24

edge_strategy = st.tuples(
    st.integers(min_value=0, max_value=N - 1),
    st.integers(min_value=0, max_value=N - 1),
)
batch_strategy = st.lists(
    st.tuples(st.booleans(), st.lists(edge_strategy, max_size=8)),
    min_size=1,
    max_size=6,
)


def _rebuilt(dyn, mode="sisa", t=0.4):
    """A SetGraph rebuilt from the dynamic graph's final edge list."""
    ctx = SisaContext(threads=4, mode=mode)
    graph = CSRGraph.from_edges(dyn.num_vertices, dyn.edge_array())
    return ctx, SetGraph.from_graph(graph, ctx, t=t)


class TestRebuildEquivalence:
    @given(script=batch_strategy)
    @settings(max_examples=40, deadline=None)
    def test_interleavings_match_rebuilt_setgraph(self, script):
        for mode in ("sisa", "cpu-set"):
            ctx = SisaContext(threads=4, mode=mode)
            dyn = DynamicSetGraph.from_graph(
                gnp_random_graph(N, 0.2, seed=3), ctx
            )
            for is_insert, edges in script:
                arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
                if is_insert:
                    batch = EdgeBatch(
                        insertions=arr, deletions=np.empty((0, 2), np.int64)
                    )
                else:
                    batch = EdgeBatch(
                        insertions=np.empty((0, 2), np.int64), deletions=arr
                    )
                dyn.apply_batch(batch)
            ref_ctx, ref_sg = _rebuilt(dyn, mode=mode)
            # Bit-identical elements and counts, vertex by vertex.
            for v in range(dyn.num_vertices):
                live = ctx.value(dyn.neighborhood(v))
                ref = ref_ctx.value(ref_sg.neighborhood(v))
                assert np.array_equal(live.to_array(), ref.to_array())
                assert (
                    ctx.sm.meta(dyn.neighborhood(v)).cardinality
                    == ref_ctx.sm.meta(ref_sg.neighborhood(v)).cardinality
                )
            # Identical algorithm outputs on the evolved vs rebuilt view.
            assert np.array_equal(
                local_triangle_counts(dyn, ctx),
                local_triangle_counts(ref_sg, ref_ctx),
            )

    def test_oriented_algorithms_see_the_final_state(self):
        graph = gnp_random_graph(40, 0.15, seed=8)
        ctx = SisaContext(threads=4)
        dyn = DynamicSetGraph.from_graph(graph, ctx)
        rng = np.random.default_rng(2)
        edges = graph.edge_array()
        drop = edges[rng.choice(edges.shape[0], size=12, replace=False)]
        add = np.asarray([[0, 39], [1, 38], [2, 37], [5, 31]], dtype=np.int64)
        dyn.apply_batch(EdgeBatch(insertions=add, deletions=drop))

        final = CSRGraph.from_edges(dyn.num_vertices, dyn.edge_array())
        ref_ctx = SisaContext(threads=4)
        __, ref_sg = oriented_setgraph(final, ref_ctx)
        expected = triangle_count_oriented(ref_sg, ref_ctx)
        assert IncrementalTriangleCount(dyn).count == expected


class TestMaintainers:
    @pytest.mark.parametrize(
        "make_stream",
        [
            lambda g: insert_only_stream(g, batch_size=9, initial_fraction=0.6, seed=4),
            lambda g: sliding_window_stream(g, window=60, batch_size=7, seed=4),
            lambda g: churn_stream(g, churn=0.05, num_batches=6, seed=4),
        ],
        ids=["insert-only", "sliding-window", "churn"],
    )
    @pytest.mark.parametrize("measure", ["jaccard", "adamic_adar"])
    def test_incremental_equals_full_recompute(self, make_stream, measure):
        stream = make_stream(gnp_random_graph(50, 0.12, seed=6))
        ctx = SisaContext(threads=8)
        dyn = DynamicSetGraph.from_graph(stream.initial_graph(), ctx)
        pairs = np.asarray(
            [[u, v] for u in range(0, 18) for v in range(u + 1, 18)],
            dtype=np.int64,
        )
        tri = IncrementalTriangleCount(dyn)
        clus = IncrementalClusteringCoefficients(dyn)
        lp = IncrementalLinkPrediction(dyn, pairs, measure=measure)
        engine = StreamingEngine(dyn, [tri, clus, lp])
        for batch in stream.batches:
            engine.step(batch)
            ref_ctx, ref_sg = _rebuilt(dyn)
            counts = local_triangle_counts(ref_sg, ref_ctx)
            assert tri.count == int(counts.sum()) // 3
            assert np.array_equal(clus.counts, counts)
            assert clus.triangle_count == tri.count
            assert np.array_equal(
                clus.coefficients(dyn),
                clustering_coefficients_from_counts(counts, degrees_of(ref_sg)),
            )
            assert np.array_equal(
                lp.scores,
                watchlist_scores(ref_sg, ref_ctx, lp.pairs, measure=measure),
            )
        # Final edge set matches the stream's own bookkeeping.
        assert np.array_equal(dyn.edge_array(), stream.final_edges())

    def test_step_reports_effective_updates(self):
        ctx = SisaContext(threads=2)
        dyn = DynamicSetGraph.from_graph(
            CSRGraph.from_edges(6, [(0, 1), (1, 2)]), ctx
        )
        engine = StreamingEngine(dyn)
        result = engine.step(
            EdgeBatch(
                insertions=np.asarray([[0, 1], [2, 3], [3, 3], [3, 2]]),
                deletions=np.asarray([[1, 2], [4, 5]]),
            )
        )
        assert result.deleted.tolist() == [[1, 2]]
        assert result.inserted.tolist() == [[2, 3]]
        assert result.touched.tolist() == [1, 2, 3]
        assert result.epoch == 1


class TestSnapshots:
    def test_snapshot_is_frozen_and_consistent(self):
        ctx = SisaContext(threads=4)
        graph = gnp_random_graph(30, 0.2, seed=12)
        dyn = DynamicSetGraph.from_graph(graph, ctx)
        snap = dyn.snapshot()
        before = local_triangle_counts(snap, ctx).copy()
        live_edges_before = dyn.edge_array()

        rng = np.random.default_rng(0)
        edges = graph.edge_array()
        drop = edges[rng.choice(edges.shape[0], size=15, replace=False)]
        dyn.apply_batch(
            EdgeBatch(insertions=np.asarray([[0, 29]]), deletions=drop)
        )
        assert dyn.epoch == 1 and snap.epoch == 0
        # The live graph changed; the snapshot did not.
        assert not np.array_equal(dyn.edge_array(), live_edges_before)
        assert np.array_equal(snap.edge_array(), live_edges_before)
        assert np.array_equal(local_triangle_counts(snap, ctx), before)
        snap.release()
        snap.release()  # idempotent

    def test_snapshot_charges_metadata_only(self):
        ctx = SisaContext(threads=1)
        dyn = DynamicSetGraph.from_graph(gnp_random_graph(20, 0.3, seed=1), ctx)
        before = ctx.runtime_cycles
        dyn.snapshot()
        # One SM-entry write per set: far below one CREATE's data write.
        assert 0 < ctx.runtime_cycles - before <= ctx.hw.scu_dispatch_cycles * 20


class TestRepresentationRedecision:
    def test_sa_converts_to_db_when_dense(self):
        # Universe 64, W=32: the SA->DB threshold is degree >= 2.
        ctx = SisaContext(threads=1)
        dyn = DynamicSetGraph.from_graph(
            CSRGraph.from_edges(64, [(0, 1)]), ctx, t=0.0
        )
        assert (
            ctx.sm.meta(dyn.neighborhood(0)).representation
            is Representation.SPARSE_SORTED
        )
        dyn.apply_batch(
            EdgeBatch(
                insertions=np.asarray([[0, 2], [0, 3]]),
                deletions=np.empty((0, 2), np.int64),
            )
        )
        assert dyn.dense_mask[0]
        assert (
            ctx.sm.meta(dyn.neighborhood(0)).representation
            is Representation.DENSE
        )
        # Dropping far below the threshold converts back (hysteresis).
        dyn.apply_batch(
            EdgeBatch(
                insertions=np.empty((0, 2), np.int64),
                deletions=np.asarray([[0, 1], [0, 2], [0, 3]]),
            )
        )
        assert not dyn.dense_mask[0]
        assert (
            ctx.sm.meta(dyn.neighborhood(0)).representation
            is Representation.SPARSE_SORTED
        )

    def test_cpu_set_mode_never_converts(self):
        ctx = SisaContext(threads=1, mode="cpu-set")
        dyn = DynamicSetGraph.from_graph(
            CSRGraph.from_edges(64, [(0, 1)]), ctx
        )
        dyn.apply_batch(
            EdgeBatch(
                insertions=np.asarray([[0, i] for i in range(2, 20)]),
                deletions=np.empty((0, 2), np.int64),
            )
        )
        assert not dyn.dense_mask.any()
        assert (
            ctx.sm.meta(dyn.neighborhood(0)).representation
            is Representation.SPARSE_SORTED
        )


class TestStreams:
    def test_streams_are_deterministic(self):
        g = gnp_random_graph(40, 0.2, seed=5)
        a = churn_stream(g, churn=0.02, num_batches=4, seed=9)
        b = churn_stream(g, churn=0.02, num_batches=4, seed=9)
        for x, y in zip(a.batches, b.batches):
            assert np.array_equal(x.insertions, y.insertions)
            assert np.array_equal(x.deletions, y.deletions)

    def test_insert_only_reaches_full_graph(self):
        g = gnp_random_graph(30, 0.2, seed=7)
        stream = insert_only_stream(g, batch_size=10, initial_fraction=0.3, seed=2)
        assert np.array_equal(
            stream.final_edges(), CSRGraph.from_edges(30, g.edge_array()).edge_array()
        )

    def test_sliding_window_keeps_window_edges(self):
        g = gnp_random_graph(30, 0.3, seed=7)
        window = 40
        stream = sliding_window_stream(g, window=window, batch_size=12, seed=2)
        assert stream.final_edges().shape[0] == window

    def test_churn_preserves_edge_count(self):
        g = gnp_random_graph(40, 0.2, seed=5)
        stream = churn_stream(g, churn=0.03, num_batches=5, seed=1)
        assert stream.final_edges().shape[0] == g.num_edges

    def test_churn_needs_absent_pairs(self):
        # A complete graph has no pair to insert in place of a deleted
        # edge; the generator refuses instead of sampling forever.
        with pytest.raises(GraphError):
            churn_stream(gnp_random_graph(6, 1.0, seed=0), churn=0.2, seed=0)

    def test_canonical_edges(self):
        out = canonical_edges(
            np.asarray([[3, 1], [1, 3], [2, 2], [0, 4]]), 5
        )
        assert out.tolist() == [[1, 3], [0, 4]]
