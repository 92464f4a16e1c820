"""Session-centric workload API: SisaSession + workload registry.

Contracts under test:

* ``ExecutionConfig`` is frozen and validates every knob,
* the registry dispatches by name and rejects unknown workloads,
* a *cold* session issues an instruction stream identical to the
  direct kernel call on a fresh context — same outputs, same simulated
  cycles, same per-opcode instruction counts,
* a *warm* session returns outputs identical to a fresh per-call run
  while performing zero set re-registrations for count-only workloads
  (hypothesis property),
* engine epoch marks give exact per-run accounting on a shared
  context,
* ``attach_stream`` binds a DynamicSetGraph to the session: snapshot
  analytics route through ``session.run(..., view=...)`` and static
  re-runs re-orient at the new epoch,
* the CApi/SisaSet satellite extensions (batched variadic
  insert/remove, ``intersect_count_batch``, ``intersect_many``,
  context-manager lifetime) behave and cost as specified.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs_on
from repro.algorithms.bron_kerbosch import maximal_cliques_on
from repro.algorithms.clustering import clusters_from_edges, jarvis_patrick_on
from repro.algorithms.common import oriented_setgraph
from repro.algorithms.kclique import four_clique_count_on, kclique_count_on
from repro.algorithms.similarity import similarity_on
from repro.algorithms.subgraph_iso import star_pattern, subgraph_isomorphism_on
from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import ConfigError, SisaError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import chung_lu_graph, gnp_random_graph
from repro.graphs.streams import EdgeBatch, canonical_edges
from repro.runtime.api import SisaSet, c_api
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.session import (
    ExecutionConfig,
    RunResult,
    SisaSession,
    available_workloads,
    get_workload,
    run_workload,
    workload,
)
from repro.streaming.incremental import local_triangle_counts


def _graph():
    return gnp_random_graph(60, 0.12, seed=3)


# ---------------------------------------------------------------------------
# ExecutionConfig
# ---------------------------------------------------------------------------


class TestExecutionConfig:
    def test_defaults_echo_legacy_signature(self):
        config = ExecutionConfig()
        assert config.threads == 32
        assert config.mode == "sisa"
        assert config.t == 0.4
        assert config.budget == 0.1
        assert config.policy == "fraction"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threads": 0},
            {"mode": "gpu"},
            {"t": 1.5},
            {"t": -0.1},
            {"budget": -1.0},
            {"policy": "all-dense"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            ExecutionConfig(**kwargs)

    def test_frozen(self):
        config = ExecutionConfig()
        with pytest.raises(Exception):
            config.threads = 8

    def test_replace_revalidates(self):
        config = ExecutionConfig().replace(threads=4, mode="cpu-set")
        assert (config.threads, config.mode) == (4, "cpu-set")
        with pytest.raises(ConfigError):
            config.replace(mode="nope")

    def test_session_keyword_overrides(self):
        session = SisaSession(_graph(), threads=4, mode="cpu-set")
        assert session.config.threads == 4
        assert session.ctx.mode == "cpu-set"
        merged = SisaSession(_graph(), ExecutionConfig(t=0.8), threads=2)
        assert (merged.config.t, merged.config.threads) == (0.8, 2)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_available_workloads(self):
        names = available_workloads()
        for expected in (
            "triangles",
            "kclique",
            "four_clique",
            "kclique_star",
            "maximal_cliques",
            "jarvis_patrick",
            "similarity",
            "similarity_pairs",
            "link_prediction",
            "bfs",
            "approx_degeneracy",
            "subgraph_iso",
            "fsm",
            "clustering_coefficient",
            "local_clustering",
        ):
            assert expected in names
            assert names[expected]  # every workload has a description

    def test_unknown_workload_lists_alternatives(self):
        with pytest.raises(ConfigError, match="triangles"):
            SisaSession(_graph()).run("triangle")

    def test_duplicate_registration_rejected(self):
        get_workload("triangles")  # ensure defaults are registered
        with pytest.raises(SisaError, match="replace=True"):

            @workload("triangles")
            def _clash(session):  # pragma: no cover
                return None

    def test_duplicate_registration_with_replace(self):
        from repro.session.registry import _REGISTRY

        @workload("_test_replaceable")
        def original(session):
            return "original"

        try:
            with pytest.raises(SisaError):

                @workload("_test_replaceable")
                def clash(session):  # pragma: no cover
                    return "clash"

            @workload("_test_replaceable", replace=True)
            def replacement(session):
                return "replacement"

            assert _REGISTRY["_test_replaceable"].fn is replacement
        finally:
            del _REGISTRY["_test_replaceable"]

    def test_spec_metadata(self):
        spec = get_workload("triangles")
        assert spec.requires == "oriented"
        assert spec.view_capable
        star = get_workload("kclique_star")
        assert star.requires_for({"variant": "intersect"}) == "both"
        assert star.requires_for({}) == "oriented"

    def test_whitespace_docstring_registration(self):
        @workload("_test_blank_doc")
        def blank(session):
            "\n    "
            return None

        try:
            assert available_workloads()["_test_blank_doc"] == ""
        finally:
            from repro.session.registry import _REGISTRY

            del _REGISTRY["_test_blank_doc"]


# ---------------------------------------------------------------------------
# Cold-session identity with the direct kernel call
# ---------------------------------------------------------------------------


def _legacy_oriented(graph, *, threads=32, mode="sisa"):
    ctx = SisaContext(threads=threads, mode=mode)
    __, sg = oriented_setgraph(graph, ctx)
    return ctx, sg


def _legacy_undirected(graph, *, threads=32, mode="sisa"):
    ctx = SisaContext(threads=threads, mode=mode)
    sg = SetGraph.from_graph(graph, ctx, t=0.4, budget=0.1)
    return ctx, sg


def _legacy_runs():
    """(name, legacy runner, session runner) triples reconstructing the
    pre-session per-call pipelines."""

    def legacy_triangles(graph):
        ctx, sg = _legacy_oriented(graph)
        return triangle_count_oriented(sg, ctx), ctx

    def legacy_kclique(graph):
        ctx, sg = _legacy_oriented(graph)
        return kclique_count_on(ctx, sg, 4), ctx

    def legacy_four_clique(graph):
        ctx, sg = _legacy_oriented(graph)
        return four_clique_count_on(ctx, sg), ctx

    def legacy_mc(graph):
        ctx, sg = _legacy_undirected(graph)
        return maximal_cliques_on(graph, ctx, sg, max_patterns=200), ctx

    def legacy_jp(graph):
        ctx, sg = _legacy_undirected(graph)
        kept = jarvis_patrick_on(graph, ctx, sg, tau=0.2, measure="jaccard")
        return {"edges": kept, "clusters": clusters_from_edges(graph.num_vertices, kept)}, ctx

    def legacy_bfs(graph):
        ctx, sg = _legacy_undirected(graph)
        return bfs_on(ctx, sg, 0, direction="auto"), ctx

    def legacy_similarity(graph):
        ctx, sg = _legacy_undirected(graph)
        return similarity_on(ctx, sg, 1, 2, measure="adamic_adar"), ctx

    def legacy_si(graph):
        ctx, sg = _legacy_undirected(graph)
        return subgraph_isomorphism_on(
            graph, ctx, sg, star_pattern(3), max_matches=300
        ), ctx

    return [
        ("triangles", legacy_triangles, lambda s: s.run("triangles")),
        ("kclique", legacy_kclique, lambda s: s.run("kclique", k=4)),
        ("four_clique", legacy_four_clique, lambda s: s.run("four_clique")),
        (
            "maximal_cliques",
            legacy_mc,
            lambda s: s.run("maximal_cliques", max_patterns=200),
        ),
        (
            "jarvis_patrick",
            legacy_jp,
            lambda s: s.run("jarvis_patrick", tau=0.2, measure="jaccard"),
        ),
        ("bfs", legacy_bfs, lambda s: s.run("bfs", root=0)),
        (
            "similarity",
            legacy_similarity,
            lambda s: s.run("similarity", u=1, v=2, measure="adamic_adar"),
        ),
        (
            "subgraph_iso",
            legacy_si,
            lambda s: s.run("subgraph_iso", pattern=star_pattern(3), max_matches=300),
        ),
    ]


class TestColdSessionIdentity:
    @pytest.mark.parametrize(
        "name,legacy,run", _legacy_runs(), ids=lambda x: x if isinstance(x, str) else ""
    )
    def test_outputs_cycles_and_stats_match_legacy(self, name, legacy, run):
        graph = _graph()
        expected_output, legacy_ctx = legacy(graph)

        session = SisaSession(graph, ExecutionConfig(threads=32))
        result = run(session)

        assert repr(result.output) == repr(expected_output)
        assert result.runtime_cycles == legacy_ctx.runtime_cycles
        assert result.instructions == legacy_ctx.instruction_count
        assert result.opcode_counts() == legacy_ctx.opcode_counts()
        # The cold session's lifetime report equals the per-run report.
        assert session.ctx.report().runtime_cycles == result.runtime_cycles
        assert not result.warm

    def test_run_workload_convenience(self):
        result = run_workload(_graph(), "triangles", config=ExecutionConfig(threads=8))
        assert isinstance(result, RunResult)
        assert result.config.threads == 8


# ---------------------------------------------------------------------------
# Warm-session reuse
# ---------------------------------------------------------------------------


class TestWarmReuse:
    @given(
        n=st.integers(min_value=8, max_value=48),
        p=st.floats(min_value=0.05, max_value=0.4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_warm_run_matches_fresh_run(self, n, p, seed):
        """Property: a warm run (cached orientation + sets) returns
        outputs identical to a fresh per-call run, and the first run's
        cycles match the legacy path exactly."""
        graph = gnp_random_graph(n, p, seed=seed)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        cold = session.run("triangles")
        warm = session.run("triangles")

        # Legacy reconstruction of the per-call path.
        ctx = SisaContext(threads=8)
        __, sg = oriented_setgraph(graph, ctx)
        legacy_count = triangle_count_oriented(sg, ctx)

        assert cold.output == legacy_count
        assert cold.runtime_cycles == ctx.runtime_cycles
        assert warm.output == legacy_count
        assert warm.warm and not cold.warm
        assert warm.registrations == 0

    def test_warm_reuse_across_workloads(self):
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8))
        tri = session.run("triangles")  # builds the orientation
        kcc = session.run("kclique", k=4)  # reuses it
        assert kcc.warm
        fresh = SisaSession(graph, ExecutionConfig(threads=8)).run("kclique", k=4)
        assert kcc.output == fresh.output

        mc = session.run("maximal_cliques", max_patterns=100)  # undirected build
        assert not mc.warm
        mc_warm = session.run("maximal_cliques", max_patterns=100)
        assert mc_warm.warm
        assert mc_warm.output == mc.output
        assert tri.output == session.run("triangles").output

    def test_per_run_instruction_accounting_is_exact(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        runs = [
            session.run("triangles"),
            session.run("kclique", k=3),
            session.run("bfs", root=0),
        ]
        assert sum(r.instructions for r in runs) == session.ctx.instruction_count
        total = {}
        for r in runs:
            for opcode, count in r.opcode_counts().items():
                total[opcode] = total.get(opcode, 0) + count
        assert total == session.ctx.opcode_counts()
        assert session.run_count == 3

    def test_params_and_config_echo(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        result = session.run("kclique", k=3, max_patterns=10)
        assert result.config is session.config
        assert result.params == {"k": 3, "max_patterns": 10}
        assert result.workload == "kclique"

    def test_callable_runs_against_undirected_setgraph(self):
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8))

        def degree_sum(g, ctx, sg):
            return sum(ctx.cardinality(sg.neighborhood(v)) for v in range(g.num_vertices))

        result = session.run(degree_sum)
        assert result.output == int(graph.degrees.sum())
        assert result.workload == "degree_sum"

    def test_registered_workloads_reject_positional_args(self):
        with pytest.raises(ConfigError):
            SisaSession(_graph()).run("kclique", 4)


# ---------------------------------------------------------------------------
# Streaming integration
# ---------------------------------------------------------------------------


def _batch_of(edges):
    return EdgeBatch(
        insertions=np.asarray(edges, dtype=np.int64),
        deletions=np.empty((0, 2), dtype=np.int64),
    )


class TestSessionStreaming:
    def test_attach_stream_shares_sets(self):
        graph = chung_lu_graph(80, 300, gamma=2.2, seed=5)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        assert dyn.set_ids is session.setgraph.set_ids
        with pytest.raises(ConfigError):
            session.attach_stream()
        assert session.stream is dyn

    def test_snapshot_runs_through_session(self):
        graph = chung_lu_graph(80, 300, gamma=2.2, seed=5)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        before = session.run("triangles").output

        snap = session.snapshot()
        new_edges = canonical_edges(
            np.asarray([[0, 9], [1, 17], [2, 33], [4, 55]], dtype=np.int64),
            graph.num_vertices,
        )
        dyn.apply_batch(_batch_of(new_edges))

        frozen = session.run("triangles", view=snap)
        assert frozen.output == before
        live = session.run("triangles", view=dyn)
        ref = int(local_triangle_counts(dyn, session.ctx).sum()) // 3
        assert live.output == ref
        snap.release()

    def test_static_rerun_reorients_at_new_epoch(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        session.run("triangles")

        new_edges = canonical_edges(
            np.asarray([[0, 5], [1, 11], [3, 29]], dtype=np.int64),
            graph.num_vertices,
        )
        dyn.apply_batch(_batch_of(new_edges))

        evolved = session.run("triangles")
        assert not evolved.warm  # re-orientation at the new epoch
        rebuilt = CSRGraph.from_edges(graph.num_vertices, dyn.edge_array())
        fresh = SisaSession(rebuilt, ExecutionConfig(threads=8)).run("triangles")
        assert evolved.output == fresh.output
        # current_graph reflects the evolved state and is cached per epoch.
        assert session.current_graph.num_edges == rebuilt.num_edges
        assert session.current_graph is session.current_graph

    def test_epoch_rebuild_invalidates_stale_smb_entries(self):
        """Releasing a stale orientation must invalidate its SMB
        entries: the rebuilt orientation recycles the freed set IDs, so
        a stale entry would turn each recycled set's first metadata
        fetch into a false hit.  The post-epoch run must therefore see
        exactly the SMB hits (and instruction stream) a brand-new
        session over the evolved graph sees."""
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        session.run("triangles")
        new_edges = canonical_edges(
            np.asarray([[0, 5], [1, 11], [3, 29]], dtype=np.int64),
            graph.num_vertices,
        )
        dyn.apply_batch(_batch_of(new_edges))
        hits_before = session.ctx.scu.smb.stats.hits
        evolved = session.run("triangles")
        evolved_hits = session.ctx.scu.smb.stats.hits - hits_before
        # None of the released orientation's IDs may linger in the SMB
        # (they were recycled for the new orientation's sets).
        rebuilt = CSRGraph.from_edges(graph.num_vertices, dyn.edge_array())
        fresh_session = SisaSession(rebuilt, ExecutionConfig(threads=8))
        fresh = fresh_session.run("triangles")
        fresh_hits = fresh_session.ctx.scu.smb.stats.hits
        assert evolved.output == fresh.output
        assert evolved_hits == fresh_hits
        assert evolved.stats.instructions == fresh.stats.instructions
        assert evolved.opcode_counts() == fresh.opcode_counts()

    def test_midbatch_mutations_invalidate_static_caches(self):
        """Raw apply_insertions (no finish_batch) must still invalidate
        the CSR/orientation caches — static runs never mix a stale
        orientation with the live mutated sets."""
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        session.run("triangles")
        new_edges = canonical_edges(
            np.asarray([[0, 5], [1, 11], [3, 29]], dtype=np.int64),
            graph.num_vertices,
        )
        dyn.apply_insertions(new_edges)  # mid-batch: epoch not advanced
        midbatch = session.run("triangles")
        rebuilt = CSRGraph.from_edges(graph.num_vertices, dyn.edge_array())
        fresh = SisaSession(rebuilt, ExecutionConfig(threads=8)).run("triangles")
        assert midbatch.output == fresh.output
        assert session.current_graph.num_edges == rebuilt.num_edges

    def test_link_prediction_runs_leave_no_sets_behind(self):
        graph = chung_lu_graph(80, 320, gamma=2.2, seed=5)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        first = session.run("link_prediction", seed=3)
        size_after_first = len(session.ctx.sm)
        for __ in range(3):
            repeat = session.run("link_prediction", seed=3)
            assert repeat.output == first.output
        assert len(session.ctx.sm) == size_after_first

    def test_kclique_star_intersect_variant_warm_flag(self):
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8))
        session.run("triangles")  # warms the orientation only
        run = session.run("kclique_star", k=3, variant="intersect")
        assert not run.warm  # it also had to build the undirected sets
        again = session.run("kclique_star", k=3, variant="intersect")
        # Warm now: both cached structures existed (transient clique /
        # intersection sets are still registered and freed per run).
        assert again.warm
        assert again.output == run.output
        assert session.run("kclique_star", k=3).warm  # from_k1: oriented only

    def test_view_run_rejected_for_non_view_workload(self):
        graph = chung_lu_graph(40, 120, gamma=2.2, seed=3)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        session.attach_stream()
        snap = session.snapshot()
        with pytest.raises(ConfigError):
            session.run("kclique", k=3, view=snap)
        snap.release()


# ---------------------------------------------------------------------------
# Satellite: CApi batched variadic insert/remove
# ---------------------------------------------------------------------------


class TestCApiBatchedUpdates:
    def test_variadic_insert_remove_cycle_identical_to_scalar(self):
        batched_ctx = SisaContext(threads=4)
        scalar_ctx = SisaContext(threads=4)
        api = c_api(batched_ctx, 200)
        a = api.create(range(0, 50, 2))
        b = scalar_ctx.create_set(range(0, 50, 2), universe=200)

        vertices = (1, 3, 4, 99, 2, 1)  # duplicates + already-present
        api.insert(a, *vertices)
        for v in vertices:
            scalar_ctx.insert(b, v)
        removed = (99, 0, 7, 7)
        api.remove(a, *removed)
        for v in removed:
            scalar_ctx.remove(b, v)

        assert batched_ctx.runtime_cycles == scalar_ctx.runtime_cycles
        assert batched_ctx.instruction_count == scalar_ctx.instruction_count
        assert batched_ctx.opcode_counts() == scalar_ctx.opcode_counts()
        np.testing.assert_array_equal(
            batched_ctx.value(a).to_array(), scalar_ctx.value(b).to_array()
        )

    def test_single_vertex_stays_scalar(self):
        ctx = SisaContext(threads=1)
        api = c_api(ctx, 50)
        a = api.create([1, 2])
        api.insert(a, 3)
        api.remove(a, 1)
        api.insert(a)  # no-op
        assert sorted(ctx.value(a).to_array().tolist()) == [2, 3]


# ---------------------------------------------------------------------------
# Satellite: SisaSet batched parity + scoped lifetime
# ---------------------------------------------------------------------------


class TestSisaSetParity:
    def test_intersect_count_batch_matches_scalar(self):
        ctx = SisaContext(threads=2)
        a = SisaSet.create(ctx, range(0, 40, 2), universe=100)
        frontier = [
            SisaSet.create(ctx, range(0, 40, k), universe=100) for k in (3, 4, 5)
        ]
        counts = a.intersect_count_batch(frontier)
        expected = [a.intersect_count(o) for o in frontier]
        assert counts.tolist() == expected

    def test_intersect_batch_wraps_results(self):
        ctx = SisaContext(threads=2)
        a = SisaSet.create(ctx, [1, 2, 3, 4], universe=50)
        b = SisaSet.create(ctx, [2, 4, 6], universe=50)
        (result,) = a.intersect_batch([b])
        assert isinstance(result, SisaSet)
        assert sorted(result) == [2, 4]

    def test_intersect_many(self):
        ctx = SisaContext(threads=2)
        a = SisaSet.create(ctx, [1, 2, 3, 4, 5], universe=50)
        b = SisaSet.create(ctx, [2, 3, 4], universe=50)
        c = SisaSet.create(ctx, [3, 4, 9], universe=50)
        assert sorted(a.intersect_many(b, c)) == [3, 4]

    def test_context_manager_frees_set_id(self):
        ctx = SisaContext(threads=1)
        a = SisaSet.create(ctx, [1, 2, 3], universe=20)
        b = SisaSet.create(ctx, [2, 3, 4], universe=20)
        with a & b as shared:
            shared_id = shared.set_id
            assert shared_id in ctx.sm
        assert shared_id not in ctx.sm

    def test_context_manager_frees_on_exception(self):
        ctx = SisaContext(threads=1)
        a = SisaSet.create(ctx, [1], universe=20)
        with pytest.raises(RuntimeError):
            with a.clone() as temp:
                temp_id = temp.set_id
                raise RuntimeError("boom")
        assert temp_id not in ctx.sm
