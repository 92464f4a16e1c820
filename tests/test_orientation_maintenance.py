"""Incremental orientation maintenance + epoch-keyed result cache.

Contracts under test:

* ``induced_out_degrees`` (the vectorized primitive behind
  ``result_from_order``) matches the reference per-vertex loop,
* a maintained orientation is *equivalent* to a fresh re-peel: same
  triangle and k-clique outputs, same per-vertex out-degrees as the
  orientation induced by the maintained rank, out-degree within the
  ``(2 + eps) * c`` drift bound — as a hypothesis property over mixed
  insert/delete/churn batches,
* drift past the bound triggers localized repair (or a full re-peel)
  and the state stays consistent,
* a session with ``maintain_orientation()`` runs oriented workloads
  warm after epoch advances with **zero** full re-peels while drift is
  within bound (asserted via the maintainer stats),
* updates applied outside the hook protocol force a charged resync
  instead of silently computing on a stale orientation,
* reading a released :class:`GraphSnapshot` raises ``SisaError`` (in
  ``session.run(view=...)``, on the snapshot itself, and in the
  incremental maintainer constructors),
* the session result cache answers repeated identical runs in O(1),
  misses on any stream mutation or parameter change, and supports
  explicit invalidation.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import ConfigError, SisaError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import chung_lu_graph, gnp_random_graph
from repro.graphs.orientation import (
    degeneracy_order,
    induced_out_degrees,
    result_from_order,
)
from repro.graphs.streams import EdgeBatch, canonical_edges, churn_stream
from repro.session import ExecutionConfig, SisaSession
from repro.streaming import (
    DynamicSetGraph,
    IncrementalOrientation,
    IncrementalTriangleCount,
    StreamingEngine,
)
from repro.graphs.digraph import orient_by_order
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph


def _edge_batch(insertions=(), deletions=()):
    def arr(edges):
        if len(edges) == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(edges, dtype=np.int64)

    return EdgeBatch(insertions=arr(insertions), deletions=arr(deletions))


def _fresh_triangles(n, edges, threads=8):
    graph = CSRGraph.from_edges(n, edges)
    return SisaSession(graph, ExecutionConfig(threads=threads)).run("triangles")


def _maintained(graph, **kwargs):
    ctx = SisaContext(threads=8)
    dyn = DynamicSetGraph.from_graph(graph, ctx)
    seed = degeneracy_order(graph)
    oriented = SetGraph.from_digraph(orient_by_order(graph, seed.order), ctx)
    maintainer = IncrementalOrientation(dyn, oriented, seed, **kwargs)
    return ctx, dyn, maintainer


# ---------------------------------------------------------------------------
# Vectorized orientation primitives
# ---------------------------------------------------------------------------


class TestInducedOutDegrees:
    @given(
        n=st.integers(min_value=0, max_value=60),
        p=st.floats(min_value=0.0, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_loop(self, n, p, seed):
        graph = gnp_random_graph(n, p, seed=seed)
        rng = np.random.default_rng(seed)
        rank = rng.permutation(max(n, 1))[:n].astype(np.int64)
        out = induced_out_degrees(graph, rank)
        expected = np.zeros(n, dtype=np.int64)
        for v in range(n):
            nbrs = graph.neighbors(v)
            expected[v] = int(np.count_nonzero(rank[nbrs] > rank[v]))
        assert np.array_equal(out, expected)

    def test_non_dense_ranks(self):
        """Ranks need not be a permutation of 0..n-1 (rank repair
        appends past n)."""
        graph = gnp_random_graph(20, 0.3, seed=1)
        rank = (np.arange(20, dtype=np.int64) * 7 + 100)
        out = induced_out_degrees(graph, rank)
        assert int(out.sum()) == graph.num_edges

    def test_result_from_order_matches_exact_peel(self):
        graph = gnp_random_graph(40, 0.2, seed=5)
        exact = degeneracy_order(graph)
        repackaged = result_from_order(graph, exact.order)
        assert np.array_equal(repackaged.rank, exact.rank)
        # The exact peel's degeneracy equals the induced max out-degree.
        assert repackaged.degeneracy == exact.degeneracy


# ---------------------------------------------------------------------------
# Maintained-orientation equivalence (hypothesis property)
# ---------------------------------------------------------------------------


def _random_batches(rng, n, count, size):
    """Mixed insert/delete batches over a fixed vertex universe."""
    batches = []
    for __ in range(count):
        ins = rng.integers(0, n, size=(size, 2))
        dels = rng.integers(0, n, size=(size, 2))
        batches.append(_edge_batch(ins, dels))
    return batches


class TestMaintainedEquivalence:
    @given(
        n=st.integers(min_value=8, max_value=36),
        p=st.floats(min_value=0.05, max_value=0.35),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_equivalent_to_fresh_repeel_under_churn(self, n, p, seed):
        graph = gnp_random_graph(n, p, seed=seed)
        ctx, dyn, maintainer = _maintained(graph)
        engine = StreamingEngine(dyn, [maintainer])
        rng = np.random.default_rng(seed)
        for batch in _random_batches(rng, n, count=3, size=max(2, n // 4)):
            engine.step(batch)
            # Full structural equivalence with the orientation the
            # maintained rank induces on the current graph.
            maintainer.assert_consistent()
            # Functional equivalence with a fresh exact re-peel.
            count = triangle_count_oriented(maintainer.oriented, ctx)
            fresh = _fresh_triangles(n, dyn.edge_array())
            assert count == fresh.output
            # Quality: out-degree within the drift bound (or the exact
            # degeneracy right after an internal re-peel).
            assert maintainer.max_out_degree <= max(
                maintainer.bound, maintainer.base_degeneracy
            )

    def test_kclique_outputs_match_after_epochs(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        session.maintain_orientation()
        rng = np.random.default_rng(11)
        for batch in _random_batches(rng, 60, count=2, size=20):
            dyn.apply_batch(batch)
        run = session.run("kclique", k=4)
        rebuilt = CSRGraph.from_edges(60, dyn.edge_array())
        fresh = SisaSession(rebuilt, ExecutionConfig(threads=8)).run(
            "kclique", k=4
        )
        assert run.output == fresh.output

    def test_repeel_every_batch_reference_policy(self):
        graph = gnp_random_graph(30, 0.2, seed=3)
        ctx, dyn, maintainer = _maintained(graph, repeel_every_batch=True)
        engine = StreamingEngine(dyn, [maintainer])
        engine.step(_edge_batch(insertions=[[0, 9], [1, 17], [2, 21]]))
        assert maintainer.stats.full_repeels == 1
        maintainer.assert_consistent()
        count = triangle_count_oriented(maintainer.oriented, ctx)
        assert count == _fresh_triangles(30, dyn.edge_array()).output

    def test_drift_triggers_repair_and_stays_consistent(self):
        """A near-empty seed graph has c ~ 1; wiring a hub past the
        bound must trigger repair (localized or full) and leave the
        orientation consistent and within bound."""
        n = 40
        graph = CSRGraph.from_edges(n, np.asarray([[0, 1]], dtype=np.int64))
        ctx, dyn, maintainer = _maintained(graph, eps=0.5)
        engine = StreamingEngine(dyn, [maintainer])
        bound = maintainer.bound
        # Wire the lowest-ranked vertex to the highest-ranked ones, so
        # every new arc leaves the hub: guaranteed drift past the bound.
        hub = int(np.argmin(maintainer.rank))
        spokes = np.argsort(maintainer.rank)[-(bound + 5):]
        hub_edges = [[hub, int(v)] for v in spokes if int(v) != hub]
        engine.step(_edge_batch(insertions=hub_edges))
        assert (
            maintainer.stats.repairs > 0 or maintainer.stats.full_repeels > 0
        )
        maintainer.assert_consistent()
        count = triangle_count_oriented(maintainer.oriented, ctx)
        assert count == _fresh_triangles(n, dyn.edge_array()).output

    def test_repair_limit_zero_falls_back_to_full_repeel(self):
        n = 30
        graph = CSRGraph.from_edges(n, np.asarray([[0, 1]], dtype=np.int64))
        __, dyn, maintainer = _maintained(graph, eps=0.5, repair_limit=0)
        engine = StreamingEngine(dyn, [maintainer])
        hub = int(np.argmin(maintainer.rank))
        spokes = np.argsort(maintainer.rank)[-(maintainer.bound + 3):]
        engine.step(
            _edge_batch(
                insertions=[[hub, int(v)] for v in spokes if int(v) != hub]
            )
        )
        assert maintainer.stats.full_repeels == 1
        assert maintainer.stats.repairs == 0
        maintainer.assert_consistent()

    def test_constructor_validation(self):
        graph = gnp_random_graph(10, 0.2, seed=1)
        ctx, dyn, __ = _maintained(graph)
        seed = degeneracy_order(graph)
        oriented = SetGraph.from_digraph(
            orient_by_order(graph, seed.order), ctx
        )
        with pytest.raises(ConfigError):
            IncrementalOrientation(dyn, oriented, seed, eps=0.0)
        with pytest.raises(ConfigError):
            IncrementalOrientation(dyn, oriented, seed, repair_limit=-1)


# ---------------------------------------------------------------------------
# Session integration: warm oriented workloads across epochs
# ---------------------------------------------------------------------------


class TestSessionOrientationMaintenance:
    def _streaming_session(self):
        graph = chung_lu_graph(80, 320, gamma=2.2, seed=5)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        return graph, session, dyn

    def test_zero_repeels_and_warm_runs_across_epochs(self):
        graph, session, dyn = self._streaming_session()
        maintainer = session.maintain_orientation()
        session.run("triangles")
        for seed in (3, 4, 5):
            rng = np.random.default_rng(seed)
            dyn.apply_batch(
                _edge_batch(
                    insertions=rng.integers(0, 80, size=(6, 2)),
                    deletions=rng.integers(0, 80, size=(6, 2)),
                )
            )
            run = session.run("triangles")
            # Warm at the new epoch: maintained orientation, no rebuild.
            assert run.warm
            assert run.registrations == 0
            rebuilt = CSRGraph.from_edges(80, dyn.edge_array())
            fresh = SisaSession(rebuilt, ExecutionConfig(threads=8)).run(
                "triangles"
            )
            assert run.output == fresh.output
        # The acceptance criterion: drift stayed within bound, so the
        # maintained path performed zero full re-peels (engine stats).
        assert maintainer.stats.full_repeels == 0
        assert session.orientation_stats is maintainer.stats
        assert session.orientation_maintainer is maintainer

    def test_hookless_updates_force_resync(self):
        graph, session, dyn = self._streaming_session()
        maintainer = session.maintain_orientation()
        session.run("triangles")
        # Raw update: bypasses the hook protocol entirely.
        dyn.apply_insertions(
            canonical_edges(
                np.asarray([[0, 9], [1, 17], [2, 33]], dtype=np.int64), 80
            )
        )
        assert not maintainer.in_sync
        run = session.run("triangles")
        assert maintainer.stats.resyncs == 1
        assert maintainer.in_sync
        rebuilt = CSRGraph.from_edges(80, dyn.edge_array())
        fresh = SisaSession(rebuilt, ExecutionConfig(threads=8)).run(
            "triangles"
        )
        assert run.output == fresh.output

    def test_clustering_coefficient_builds_no_csr_after_churn(self, monkeypatch):
        """The wedge count reads the churned degrees from set metadata:
        with the orientation maintained, a churned
        ``clustering_coefficient`` rebuilds no CSR of the graph."""
        graph, session, dyn = self._streaming_session()
        session.maintain_orientation()
        session.run("clustering_coefficient")
        dyn.apply_batch(
            churn_stream(graph, churn=0.1, num_batches=1, seed=2).batches[0]
        )
        builds = []
        from_edges = CSRGraph.from_edges

        def counted(*args, **kwargs):
            builds.append(args)
            return from_edges(*args, **kwargs)

        monkeypatch.setattr(CSRGraph, "from_edges", staticmethod(counted))
        got = session.run("clustering_coefficient").output
        assert builds == []
        churned = nx.Graph()
        churned.add_nodes_from(range(graph.num_vertices))
        churned.add_edges_from(dyn.edge_array().tolist())
        assert got == pytest.approx(nx.transitivity(churned), rel=1e-12)

    def test_maintain_orientation_requires_stream(self):
        graph = gnp_random_graph(20, 0.2, seed=1)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        with pytest.raises(ConfigError):
            session.maintain_orientation()
        with pytest.raises(ConfigError):
            session.orientation_stats

    def test_maintain_orientation_is_idempotent(self):
        __, session, __ = self._streaming_session()
        first = session.maintain_orientation()
        assert session.maintain_orientation() is first
        # Conflicting parameters must not be silently ignored.
        with pytest.raises(ConfigError, match="different parameters"):
            session.maintain_orientation(eps=0.05)

    def test_digraph_reflects_maintained_orientation(self):
        graph, session, dyn = self._streaming_session()
        session.maintain_orientation()
        session.run("triangles")
        dyn.apply_batch(_edge_batch(insertions=[[0, 9], [1, 17]]))
        digraph = session.digraph
        rebuilt = CSRGraph.from_edges(80, dyn.edge_array())
        assert digraph.num_arcs == rebuilt.num_edges
        # Cached between mutations, rebuilt after the next batch.
        assert session.digraph is digraph
        dyn.apply_batch(_edge_batch(insertions=[[3, 41]]))
        assert session.digraph is not digraph


# ---------------------------------------------------------------------------
# Snapshot use-after-release
# ---------------------------------------------------------------------------


class TestSnapshotReleaseGuard:
    def _snapshot(self):
        graph = chung_lu_graph(40, 120, gamma=2.2, seed=3)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        session.attach_stream()
        return session, session.snapshot()

    def test_session_run_rejects_released_snapshot(self):
        session, snap = self._snapshot()
        before = session.run("triangles", view=snap).output
        snap.release()
        with pytest.raises(SisaError, match="released"):
            session.run("triangles", view=snap)
        # The live path still works.
        assert session.run("triangles").output == before

    def test_snapshot_reads_raise_after_release(self):
        session, snap = self._snapshot()
        snap.release()
        assert snap.released
        for access in (
            lambda: snap.neighborhood(0),
            lambda: snap.degree(0),
            lambda: snap.neighborhood_counts(0, [1, 2]),
            lambda: snap.has_edge(0, 1),
            lambda: snap.edge_array(),
        ):
            with pytest.raises(SisaError, match="released"):
                access()

    def test_release_is_idempotent(self):
        __, snap = self._snapshot()
        snap.release()
        snap.release()  # no error, no double free

    def test_maintainers_reject_released_snapshot(self):
        session, snap = self._snapshot()
        snap.release()
        with pytest.raises(SisaError, match="released"):
            IncrementalTriangleCount(snap)
        seed = degeneracy_order(session.graph)
        with pytest.raises(SisaError, match="released"):
            IncrementalOrientation(snap, session.oriented_setgraph, seed)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    def _session(self, **overrides):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        return SisaSession(graph, ExecutionConfig(threads=8, **overrides))

    def test_repeated_identical_run_is_cached(self):
        session = self._session()
        first = session.run("triangles")
        second = session.run("triangles")
        assert not first.cached
        assert second.cached and second.warm
        assert second.output == first.output
        assert second.instructions == 0
        assert second.runtime_cycles == 0
        assert second.registrations == 0
        assert session.cache_stats.hits == 1

    def test_param_change_misses(self):
        session = self._session()
        k3 = session.run("kclique", k=3)
        k4 = session.run("kclique", k=4)
        assert not k4.cached
        assert session.run("kclique", k=3).cached
        assert session.run("kclique", k=3).output == k3.output
        assert session.run("kclique", k=4).output == k4.output

    def test_array_params_key_by_value(self):
        session = self._session()
        pairs = np.asarray([[0, 5], [1, 9], [2, 11]], dtype=np.int64)
        first = session.run("similarity_pairs", pairs=pairs, measure="jaccard")
        # An equal-valued but distinct array must hit.
        again = session.run(
            "similarity_pairs", pairs=pairs.copy(), measure="jaccard"
        )
        assert again.cached
        assert np.array_equal(again.output, first.output)
        other = session.run(
            "similarity_pairs", pairs=pairs[:2], measure="jaccard"
        )
        assert not other.cached

    def test_stream_mutation_invalidates_by_key(self):
        session = self._session()
        dyn = session.attach_stream()
        before = session.run("triangles")
        assert session.run("triangles").cached
        dyn.apply_batch(_edge_batch(insertions=[[0, 9], [1, 17]]))
        after = session.run("triangles")
        assert not after.cached  # new stream version, natural miss
        rebuilt = CSRGraph.from_edges(
            session.graph.num_vertices, dyn.edge_array()
        )
        fresh = SisaSession(rebuilt, ExecutionConfig(threads=8)).run(
            "triangles"
        )
        assert after.output == fresh.output
        assert session.run("triangles").cached  # stable again

    def test_explicit_invalidation(self):
        session = self._session()
        session.run("triangles")
        session.run("kclique", k=3)
        assert session.invalidate_results("triangles") == 1
        assert not session.run("triangles").cached
        assert session.run("kclique", k=3).cached
        assert session.invalidate_results() == 2
        assert not session.run("kclique", k=3).cached

    def test_cache_can_be_disabled(self):
        session = self._session(result_cache=False)
        session.run("triangles")
        second = session.run("triangles")
        assert not second.cached
        assert second.instructions > 0

    def test_view_runs_are_not_cached(self):
        session = self._session()
        session.attach_stream()
        snap = session.snapshot()
        one = session.run("triangles", view=snap)
        two = session.run("triangles", view=snap)
        assert not one.cached and not two.cached
        snap.release()

    def test_uncacheable_params_skip_quietly(self):
        from repro.session import workload
        from repro.session.registry import _REGISTRY

        session = self._session()

        class Odd:
            pass

        @workload("_test_uncacheable", requires="none")
        def _probe(session, *, marker=None):
            return 42

        try:
            # A legitimate parameter whose value cannot be
            # canonicalized: the run must succeed uncached (skip
            # counted), never crash the cache or false-hit.
            one = session.run("_test_uncacheable", marker=Odd())
            two = session.run("_test_uncacheable", marker=Odd())
            assert one.output == two.output == 42
            assert not one.cached and not two.cached
            assert session.cache_stats.skips >= 2
            assert session.cache_stats.hits == 0
        finally:
            del _REGISTRY["_test_uncacheable"]

    def test_unknown_params_rejected_before_the_cache(self):
        session = self._session()

        class Odd:
            pass

        with pytest.raises(ConfigError, match="junk"):
            # Misspelled/unknown parameters fail at plan compile —
            # before the cache is ever consulted.
            session.run("kclique", k=3, junk=Odd())
        assert session.cache_stats.skips == 0

    def test_cache_size_validation(self):
        with pytest.raises(ConfigError):
            ExecutionConfig(result_cache_size=0)

    def test_isolate_output_preserves_types(self):
        import dataclasses
        from typing import NamedTuple

        from repro.session.cache import isolate_output

        class Point(NamedTuple):
            xs: np.ndarray
            label: str

        point = Point(xs=np.arange(3), label="p")
        copied = isolate_output(point)
        assert isinstance(copied, Point) and copied.label == "p"
        copied.xs[:] = -1
        assert np.array_equal(point.xs, np.arange(3))

        @dataclasses.dataclass
        class Scores:
            values: np.ndarray

        scores = Scores(values=np.arange(4))
        isolated = isolate_output(scores)
        isolated.values[:] = -1
        assert np.array_equal(scores.values, np.arange(4))

    def test_mutating_a_result_does_not_poison_the_cache(self):
        session = self._session()
        first = session.run("local_clustering")
        expected = first.output.copy()
        first.output[:] = -1.0  # caller scribbles on its result
        second = session.run("local_clustering")
        assert second.cached
        assert np.array_equal(second.output, expected)
        second.output[:] = -2.0  # hit results are isolated too
        assert np.array_equal(session.run("local_clustering").output, expected)
