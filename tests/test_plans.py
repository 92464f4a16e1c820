"""Plan/execute split: compiled WorkloadPlans, the fusing executor and
the multi-tenant SessionPool.

Contracts under test:

* ``session.compile`` is declarative (no instructions, no structure
  builds) and pins the stream version; executing a stale plan fails
  fast with ``SisaError``,
* a fusion-disabled ``run_many`` is **bit-identical** to sequential
  ``session.run`` calls — outputs, per-plan simulated cycles, dispatch
  stats and set registrations (hypothesis property, including across a
  stream epoch advance),
* a fused ``run_many`` returns identical outputs while dedicating no
  instructions to deduped sub-requests (the triangle count inside
  ``clustering_coefficient``), fusing cross-plan bursts into macros,
  and never issuing *more* instructions per plan than the sequential
  stream,
* ``SessionPool`` shares SCU decision memos bit-identically, evicts
  sessions LRU, schedules tenants round-robin and accounts modeled
  cycles per tenant,
* the fused executor's chunked fan-out programs leave every result,
  ledger and piece of machine state exactly as the per-unit bursts the
  same stages declare, strict and hardened, and so do the whole-stage
  programs of scheduled replay and shard-parallel execution and the
  task-by-task program of the ``cpu-set`` fallback.
"""

import dataclasses
import gc
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.similarity import all_pairs_similarity_on
from repro.analysis.static.racecheck import replay_certified
from repro.analysis.static.smoke import SOAK_WORKLOADS, make_session
from repro.errors import ConfigError, SisaError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import chung_lu_graph, gnp_random_graph, kronecker_graph
from repro.graphs.streams import EdgeBatch, canonical_edges, churn_stream
from repro.parallel.workers import ShardRuntime
from repro.runtime import context as contextmod
from repro.runtime.context import MODES
from repro.serving import FaultInjector, RetryPolicy
from repro.session import plan as planmod
from repro.session.plan import FUSE_WIDTH
from repro.session import (
    ExecutionConfig,
    SessionPool,
    SisaSession,
    WorkloadPlan,
)
from repro.session.result import FailedResult

from conftest import CHUNK_BUDGETS, MACHINES, chunk_budgets, machine_state


def _graph(seed=3, n=60, p=0.12):
    return gnp_random_graph(n, p, seed=seed)


def _watchlist(n, count, seed=7):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(count * 2, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:count]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _mix(graph):
    """The mixed workload batch the serving layer targets."""
    pairs = _watchlist(graph.num_vertices, 40)
    return [
        ("triangles", {}),
        ("clustering_coefficient", {}),
        ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
        ("similarity_pairs", {"pairs": pairs, "measure": "total_neighbors"}),
        ("local_clustering", {}),
        ("kclique", {"k": 3}),  # opaque call-stage plan
    ]


def _run_sequential(graph, batch, config):
    session = SisaSession(graph, config)
    return session, [session.run(name, **params) for name, params in batch]


def _assert_results_identical(expected, actual):
    for e, a in zip(expected, actual):
        assert repr(a.output) == repr(e.output)
        assert a.runtime_cycles == e.runtime_cycles
        assert a.instructions == e.instructions
        assert a.opcode_counts() == e.opcode_counts()
        assert a.registrations == e.registrations
        assert a.warm == e.warm
        assert a.cached == e.cached


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class TestCompile:
    def test_compile_is_declarative(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        plan = session.compile("triangles")
        assert isinstance(plan, WorkloadPlan)
        assert plan.version == (0, 0)
        assert plan.requires == "oriented"
        assert plan.fusable
        assert plan.describe() == ["prep:oriented", "bursts:triangles"]
        # Nothing built, nothing dispatched.
        assert session.ctx.instruction_count == 0
        assert session._oriented is None
        assert session._setgraph is None

    def test_opaque_fallback_for_undecomposed_workloads(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        plan = session.compile("kclique", k=3)
        assert not plan.fusable
        assert plan.describe() == ["run:kclique"]

    def test_clustering_shares_the_triangle_subrequest_key(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        tri = session.compile("triangles")
        cc = session.compile("clustering_coefficient")
        tri_keys = [s.key for s in tri.stages if s.kind == "bursts"]
        cc_keys = [s.key for s in cc.stages if s.kind == "bursts"]
        assert tri_keys == cc_keys != [None]

    def test_compile_rejects_views_and_unknown_names(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        with pytest.raises(ConfigError):
            session.compile("triangles", view=object())
        with pytest.raises(ConfigError, match="available"):
            session.compile("triangle")

    def test_unknown_parameters_rejected_at_compile(self):
        """A decomposed plan never calls the workload fn, so misspelled
        parameters must fail at compile instead of silently computing
        the defaults."""
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        with pytest.raises(ConfigError, match="bogus"):
            session.compile("triangles", bogus=123)
        with pytest.raises(ConfigError, match="measur"):
            session.run(
                "similarity_pairs",
                pairs=_watchlist(60, 5),
                measur="overlap",  # typo'd 'measure'
            )

    def test_foreign_plan_rejected(self):
        a = SisaSession(_graph(), ExecutionConfig(threads=8))
        b = SisaSession(_graph(), ExecutionConfig(threads=8))
        plan = a.compile("triangles")
        with pytest.raises(ConfigError, match="SessionPool"):
            b.run_many([plan])


# ---------------------------------------------------------------------------
# Stream-version pinning
# ---------------------------------------------------------------------------


def _insert_batch(edges):
    return EdgeBatch(
        insertions=np.asarray(edges, dtype=np.int64),
        deletions=np.empty((0, 2), dtype=np.int64),
    )


class TestVersionPinning:
    def test_stale_plan_fails_fast(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        plan = session.compile("triangles")
        assert not plan.stale
        edges = canonical_edges(
            np.asarray([[0, 5], [1, 11]], dtype=np.int64), graph.num_vertices
        )
        dyn.apply_batch(_insert_batch(edges))
        assert plan.stale
        with pytest.raises(SisaError, match="recompile"):
            session.run_many([plan])
        # A plan compiled at the new version runs fine and matches a
        # fresh session over the evolved graph.
        fresh = SisaSession(
            session.current_graph.__class__.from_edges(
                graph.num_vertices, dyn.edge_array()
            ),
            ExecutionConfig(threads=8),
        ).run("triangles")
        (rerun,) = session.run_many([session.compile("triangles")])
        assert rerun.output == fresh.output

    def test_midbatch_mutation_also_drifts(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        dyn = session.attach_stream()
        plan = session.compile("triangles")
        dyn.apply_insertions(
            canonical_edges(
                np.asarray([[0, 5]], dtype=np.int64), graph.num_vertices
            )
        )  # epoch not advanced, but mutations counted
        with pytest.raises(SisaError):
            session.run_many([plan], fuse=True)


# ---------------------------------------------------------------------------
# Fusion-disabled executor == sequential session.run (bit-identical)
# ---------------------------------------------------------------------------


class TestSequentialIdentity:
    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_mixed_batch_bit_identical(self, mode):
        graph = _graph()
        batch = _mix(graph)
        config = ExecutionConfig(threads=8, mode=mode)
        ref_session, expected = _run_sequential(graph, batch, config)

        session = SisaSession(graph, config)
        results = session.run_many(
            [(name, params) for name, params in batch], fuse=False
        )
        _assert_results_identical(expected, results)
        assert session.ctx.runtime_cycles == ref_session.ctx.runtime_cycles
        assert session.ctx.opcode_counts() == ref_session.ctx.opcode_counts()
        assert (
            session.ctx.scu.smb.stats.hits == ref_session.ctx.scu.smb.stats.hits
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "measure", ["jaccard", "overlap", "common_neighbors", "total_neighbors"]
    )
    def test_similarity_pairs_stage_matches_the_eager_kernel(self, measure, mode):
        """The planned watchlist stage issues exactly the instruction
        stream of ``all_pairs_similarity_on``."""
        graph = _graph()
        pairs = _watchlist(graph.num_vertices, 24)
        config = ExecutionConfig(threads=8, mode=mode, trace=True)
        planned, eager = SisaSession(graph, config), SisaSession(graph, config)
        assert planned.setgraph.num_vertices == eager.setgraph.num_vertices
        got = planned.run("similarity_pairs", pairs=pairs, measure=measure).output
        expected = all_pairs_similarity_on(
            eager.ctx, eager.setgraph, pairs, measure=measure
        )
        assert np.array_equal(got, expected)
        assert machine_state(planned.ctx) == machine_state(eager.ctx)

    def test_duplicate_plans_hit_the_cache_like_repeated_runs(self):
        graph = _graph()
        config = ExecutionConfig(threads=8)
        batch = [("triangles", {}), ("triangles", {})]
        ref_session, expected = _run_sequential(graph, batch, config)
        assert expected[1].cached
        session = SisaSession(graph, config)
        results = session.run_many(batch, fuse=False)
        _assert_results_identical(expected, results)

    @given(
        n=st.integers(min_value=10, max_value=40),
        p=st.floats(min_value=0.05, max_value=0.35),
        seed=st.integers(min_value=0, max_value=2**16),
        order=st.permutations(list(range(4))),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_any_plan_order_matches_sequential(self, n, p, seed, order):
        """Property: for any graph and any plan ordering, the
        fusion-disabled executor is bit-identical to sequential
        ``session.run`` calls, and the fused executor returns identical
        outputs while issuing per plan no more instructions than the
        sequential stream."""
        graph = gnp_random_graph(n, p, seed=seed)
        pairs = _watchlist(n, 12, seed=seed % 97)
        menu = [
            ("triangles", {}),
            ("clustering_coefficient", {}),
            ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
            ("local_clustering", {}),
        ]
        batch = [menu[i] for i in order]
        config = ExecutionConfig(threads=4)
        ref_session, expected = _run_sequential(graph, batch, config)

        session = SisaSession(graph, config)
        results = session.run_many(batch, fuse=False)
        _assert_results_identical(expected, results)

        fused_session = SisaSession(graph, config)
        fused = fused_session.run_many(batch, fuse=True)
        for e, f in zip(expected, fused):
            np.testing.assert_array_equal(
                np.asarray(e.output), np.asarray(f.output)
            )
            assert f.instructions <= e.instructions
            assert f.fused

    def test_property_holds_across_epoch_advance(self):
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=11)
        batch = [("triangles", {}), ("clustering_coefficient", {})]
        config = ExecutionConfig(threads=8)
        edges = canonical_edges(
            np.asarray([[0, 7], [2, 13], [5, 31]], dtype=np.int64),
            graph.num_vertices,
        )

        def drive(session, fuse):
            dyn = session.attach_stream()
            first = session.run_many(batch, fuse=fuse)
            dyn.apply_batch(_insert_batch(edges))
            second = session.run_many(batch, fuse=fuse)
            return first + second

        ref_session = SisaSession(graph, config)
        dyn = ref_session.attach_stream()
        expected = [ref_session.run(n, **p) for n, p in batch]
        dyn.apply_batch(_insert_batch(edges))
        expected += [ref_session.run(n, **p) for n, p in batch]

        plain = drive(SisaSession(graph, config), fuse=False)
        _assert_results_identical(expected, plain)
        fused = drive(SisaSession(graph, config), fuse=True)
        for e, f in zip(expected, fused):
            np.testing.assert_array_equal(
                np.asarray(e.output), np.asarray(f.output)
            )


# ---------------------------------------------------------------------------
# Fused execution
# ---------------------------------------------------------------------------


class TestFusedExecution:
    def test_subrequest_dedup_spends_zero_instructions(self):
        """clustering_coefficient's triangle count dedups against the
        triangles plan in the same batch: after shared prep, the
        clustering plan issues nothing.  With the result cache off the
        dedup runs on the batch-local map alone."""
        graph = _graph()
        session = SisaSession(
            graph, ExecutionConfig(threads=8, result_cache=False)
        )
        session.run("triangles")  # warm the orientation
        tri, cc = session.run_many(
            ["triangles", "clustering_coefficient"], fuse=True
        )
        assert cc.instructions == 0
        assert tri.instructions > 0
        ref = SisaSession(graph, ExecutionConfig(threads=8))
        assert cc.output == ref.run("clustering_coefficient").output
        assert tri.output == ref.run("triangles").output

    def test_subrequest_dedup_through_the_result_cache(self):
        """A warm cached ``triangles`` result satisfies the triangle
        sub-request inside a later ``clustering_coefficient`` plan —
        the normalized key makes every spelling of the request meet."""
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8))
        session.run("triangles")  # computes and caches
        (cc,) = session.run_many(["clustering_coefficient"], fuse=True)
        assert cc.instructions == 0
        ref = SisaSession(graph, ExecutionConfig(threads=8))
        assert cc.output == ref.run("clustering_coefficient").output

    def test_fused_macros_cross_plans(self):
        graph = _graph()
        pairs = _watchlist(graph.num_vertices, 30)
        session = SisaSession(graph, ExecutionConfig(threads=8))
        before = session.ctx.scu.stats.fused_macros
        with _fuse_width(4):
            results = session.run_many(
                [
                    ("triangles", {}),
                    ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
                ],
                fuse=True,
            )
        macros = session.ctx.scu.stats.fused_macros - before
        assert macros > 0
        assert all(r.fused for r in results)
        # Fewer macro decodes than constituent bursts: fusion crossed
        # the begin_task boundary.
        total_tasks = sum(r.report.tasks for r in results)
        assert macros < total_tasks

    def test_fused_total_cycles_beat_sequential_on_the_mix(self):
        graph = chung_lu_graph(400, 1600, gamma=2.3, seed=5)
        pairs = _watchlist(400, 60)
        batch = [
            ("triangles", {}),
            ("clustering_coefficient", {}),
            ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
        ]
        config = ExecutionConfig(threads=8, result_cache=False)

        seq = SisaSession(graph, config)
        seq.run("triangles")
        seq.run("similarity_pairs", pairs=pairs, measure="jaccard")
        mark = seq.ctx.mark()
        for name, params in batch:
            seq.run(name, **params)
        seq_cycles = seq.ctx.report_since(mark).runtime_cycles

        fused = SisaSession(graph, config)
        fused.run("triangles")
        fused.run("similarity_pairs", pairs=pairs, measure="jaccard")
        mark = fused.ctx.mark()
        fused.run_many(batch, fuse=True)
        fused_cycles = fused.ctx.report_since(mark).runtime_cycles
        assert fused_cycles < seq_cycles

    def test_fused_batch_seeds_the_result_cache(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        session.run_many(["triangles"], fuse=True)
        hit = session.run("triangles")
        assert hit.cached
        assert hit.instructions == 0

    def test_identical_plans_dedup_within_the_batch(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        first, second = session.run_many(["triangles", "triangles"], fuse=True)
        assert first.output == second.output
        assert second.cached
        assert second.instructions == 0

    def test_host_baseline_runs_without_fusion(self):
        graph = _graph()
        session = SisaSession(graph, ExecutionConfig(threads=8, mode="cpu-set"))
        results = session.run_many(
            ["triangles", "clustering_coefficient"], fuse=True
        )
        assert session.ctx.scu.stats.fused_macros == 0
        ref = SisaSession(graph, ExecutionConfig(threads=8, mode="cpu-set"))
        assert results[0].output == ref.run("triangles").output
        # Dedup still applies on the host.
        assert results[1].instructions == 0

    def test_empty_batch(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        assert session.run_many([], fuse=True) == []
        assert session.run_many([], fuse=False) == []

    def test_failed_fused_batch_leaks_no_tenant_state(self):
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        plans = [
            session.compile("triangles"),
            session.compile("fsm", sigma=0.5),
        ]

        # Malformed params now fail at compile (the serving rule
        # engine), so force the mid-batch failure with a stage fault on
        # the second plan instead: the first plan has already executed
        # attributed slices when the batch dies.
        class _FailSecondPlan:
            def on_stage(self, plan, stage):
                if plan.name == "fsm":
                    raise SisaError("injected mid-batch failure")

        with pytest.raises(Exception):
            session.run_many(
                plans, fuse=True, fault_injector=_FailSecondPlan()
            )
        assert session.ctx.engine._tenants == {}
        # The session still serves follow-up batches normally.
        (tri,) = session.run_many(["triangles"], fuse=True)
        ref = SisaSession(_graph(), ExecutionConfig(threads=8)).run("triangles")
        assert tri.output == ref.output


# ---------------------------------------------------------------------------
# SessionPool
# ---------------------------------------------------------------------------


class TestSessionPool:
    def test_session_reuse_and_unknown_key(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        g = _graph()
        s1 = pool.session("g", g)
        assert pool.session("g") is s1
        with pytest.raises(ConfigError, match="unknown session key"):
            pool.session("other")

    def test_lru_eviction(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.session("a", _graph(seed=1))
        pool.session("b", _graph(seed=2))
        pool.session("a")  # refresh a: b is now LRU
        pool.session("c", _graph(seed=3))
        assert pool.session_keys == ("a", "c")
        assert pool.evictions == 1

    def test_pending_sessions_are_pinned(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=1)
        pool.submit("a", "triangles", graph=_graph(seed=1))
        pool.session("b", _graph(seed=2))
        # "a" has a queued plan, so it survives past the bound.
        assert "a" in pool and "b" in pool
        pool.run()
        pool.session("c", _graph(seed=3))
        assert "a" not in pool

    def test_shared_memo_is_bit_identical(self):
        graph = _graph()
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=4)
        s1 = pool.session("g1", graph)
        s2 = pool.session("g2", graph)
        assert s1.ctx.scu._decision_memo is s2.ctx.scu._decision_memo
        r1 = s1.run("triangles")
        r2 = s2.run("triangles")  # served from a memo s1's run warmed
        standalone = SisaSession(graph, ExecutionConfig(threads=8)).run(
            "triangles"
        )
        assert r1.output == r2.output == standalone.output
        assert r1.runtime_cycles == r2.runtime_cycles == standalone.runtime_cycles
        assert r1.opcode_counts() == standalone.opcode_counts()

    def test_different_machine_signatures_do_not_share(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=4)
        s1 = pool.session("a", _graph(seed=1))
        s2 = pool.session(
            "b", _graph(seed=2), config=ExecutionConfig(threads=8, mode="cpu-set")
        )
        assert s1.ctx.scu._decision_memo is not s2.ctx.scu._decision_memo

    def test_round_robin_and_tenant_accounting(self):
        graph = chung_lu_graph(200, 800, gamma=2.2, seed=5)
        pairs = _watchlist(200, 30)
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.submit("g", "triangles", tenant="alice", graph=graph)
        pool.submit("g", "similarity_pairs", tenant="bob", pairs=pairs)
        pool.submit("g", "clustering_coefficient", tenant="alice")
        results = pool.run()
        assert pool.pending == 0
        assert [r.workload for r in results] == [
            "triangles",
            "similarity_pairs",
            "clustering_coefficient",
        ]  # submission order, whatever the schedule
        cycles = pool.tenant_cycles
        assert cycles["alice"] > 0 and cycles["bob"] > 0
        assert pool.tenant_runs == {"alice": 2, "bob": 1}
        ref = SisaSession(graph, ExecutionConfig(threads=8))
        assert results[0].output == ref.run("triangles").output
        np.testing.assert_array_equal(
            results[1].output,
            ref.run("similarity_pairs", pairs=pairs).output,
        )

    def test_cross_graph_batches(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=4)
        g1, g2 = _graph(seed=1), _graph(seed=2)
        pool.submit("g1", "triangles", tenant="t1", graph=g1)
        pool.submit("g2", "triangles", tenant="t2", graph=g2)
        r1, r2 = pool.run()
        assert r1.output == SisaSession(g1, threads=8).run("triangles").output
        assert r2.output == SisaSession(g2, threads=8).run("triangles").output

    def test_pool_validates_max_sessions(self):
        with pytest.raises(ConfigError):
            SessionPool(max_sessions=0)

    def test_key_collision_with_different_graph_rejected(self):
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        g1, g2 = _graph(seed=1), _graph(seed=2)
        pool.submit("k", "triangles", graph=g1)
        with pytest.raises(ConfigError, match="different graph"):
            pool.submit("k", "triangles", graph=g2)
        pool.submit("k", "triangles", graph=g1)  # same graph object is fine

    def test_stale_plan_fails_before_any_tenant_work(self):
        """One tenant's stale plan must not cost another tenant's
        results: run() fails fast with the whole queue intact, and
        discard_stale() recovers."""
        graph = chung_lu_graph(60, 240, gamma=2.2, seed=7)
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.submit("a", "triangles", tenant="alice", graph=graph)
        session_a = pool.session("a")
        dyn = session_a.attach_stream()
        stale = pool.submit("a", "clustering_coefficient", tenant="bob")
        dyn.apply_batch(
            _insert_batch(
                canonical_edges(
                    np.asarray([[0, 9]], dtype=np.int64), graph.num_vertices
                )
            )
        )
        # Wait: the triangles plan was compiled before attach_stream, at
        # version (0, 0); both plans are stale now.
        assert stale.stale
        with pytest.raises(SisaError):
            pool.run()
        assert pool.pending == 2  # nothing was dequeued or executed
        assert pool.tenant_runs == {}
        dropped = pool.discard_stale()
        assert len(dropped) == 2 and pool.pending == 0
        pool.submit("a", "triangles", tenant="alice")
        (result,) = pool.run()
        rebuilt = SisaSession(
            session_a.current_graph, ExecutionConfig(threads=8)
        ).run("triangles")
        assert result.output == rebuilt.output

    def test_tenant_work_includes_all_lanes(self):
        graph = chung_lu_graph(120, 480, gamma=2.2, seed=5)
        pool = SessionPool(ExecutionConfig(threads=8), max_sessions=2)
        pool.submit("g", "triangles", tenant="solo", graph=graph)
        (result,) = pool.run()
        assert pool.tenant_cycles["solo"] >= sum(result.report.lane_times)
        assert pool.tenant_cycles["solo"] >= result.runtime_cycles > 0


class TestInvalidation:
    def test_per_workload_invalidation_drops_subrequests(self):
        """Explicitly invalidating clustering_coefficient must also
        drop the triangle sub-request it could otherwise seed from —
        the re-run has to issue instructions again."""
        session = SisaSession(_graph(), ExecutionConfig(threads=8))
        session.run_many(["triangles", "clustering_coefficient"], fuse=True)
        dropped = session.invalidate_results("clustering_coefficient")
        assert dropped >= 2  # its own entry + the triangles sub-request
        (rerun,) = session.run_many(["clustering_coefficient"], fuse=True)
        assert not rerun.cached
        assert rerun.instructions > 0


# ---------------------------------------------------------------------------
# Fused fan-out programs
# ---------------------------------------------------------------------------


@contextmanager
def _per_unit_fanouts():
    """Compile every plan with its stages' fan-out declarations
    stripped, so fused execution issues one ``BurstUnit`` per vertex.
    Stripping at compile time keeps recompiles after drift stripped."""
    init = WorkloadPlan.__init__

    def stripped(self, session, spec, params, stages, **kwargs):
        stages = [dataclasses.replace(stage, fanout=None) for stage in stages]
        init(self, session, spec, params, stages, **kwargs)

    WorkloadPlan.__init__ = stripped
    try:
        yield
    finally:
        WorkloadPlan.__init__ = init


@contextmanager
def _fuse_width(width):
    saved = planmod.FUSE_WIDTH
    planmod.FUSE_WIDTH = width
    try:
        yield
    finally:
        planmod.FUSE_WIDTH = saved


def _fanout_mix(n):
    """Fan-out stages, dedup, call stages that flush partial macros, and
    burst units sharing macros with fan-out constituents."""
    pairs = _watchlist(n, 12) if n > 2 else np.asarray([[0, 1]])
    return [
        *SOAK_WORKLOADS,
        ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
        ("similarity_pairs", {"pairs": pairs, "measure": "total_neighbors"}),
    ]


def _result_state(result):
    if isinstance(result, FailedResult):
        return (result.workload, result.reason, result.attempts, result.retry_cycles)
    return (
        result.workload,
        repr(result.output),
        result.report.lane_times,
        result.runtime_cycles,
        result.report.tasks,
        result.stats,
        list(result.stats.by_opcode),
        result.registrations,
        result.cached,
    )


def _strict_run(graph, batch, *, per_unit, rounds, fuse_width, **config):
    with _per_unit_fanouts() if per_unit else nullcontext(), _fuse_width(fuse_width):
        pool = SessionPool(ExecutionConfig(**config))
        session = pool.session("g", graph)
        results = []
        for __ in range(rounds):
            for tenant, name, params in batch:
                pool.submit("g", name, tenant=tenant, **params)
            results += [_result_state(r) for r in pool.run()]
    return results, (pool.tenant_cycles, pool.tenant_runs), machine_state(session.ctx)


def _assert_fanouts_exact(graph, batch, **kwargs):
    """One fused batch on two fresh pools, chunked fan-out programs
    against per-unit bursts: every result, ledger and machine-state
    field must match."""
    got = _strict_run(graph, batch, per_unit=False, **kwargs)
    expected = _strict_run(graph, batch, per_unit=True, **kwargs)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    for field, value in expected[2].items():
        assert got[2][field] == value, field


class TestFusedFanout:
    """The fused executor runs fan-out stages as chunked programs
    (``SisaContext.fused_fanout``); the per-unit ``BurstUnit`` path the
    same declarations yield is the oracle."""

    @given(
        n=st.integers(min_value=2, max_value=36),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
        picks=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2)),
            min_size=1,
            max_size=9,
        ),
        fuse_width=st.sampled_from([1, 3, 8]),
        threads=st.sampled_from([1, 4, 32]),
        machine=st.sampled_from(sorted(MACHINES)),
        t=st.sampled_from([0.0, 0.4, 1.0]),
        observability=st.booleans(),
        trace=st.booleans(),
        result_cache=st.booleans(),
        budgets=st.sampled_from(CHUNK_BUDGETS),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_unit_bursts(
        self, n, p, seed, picks, fuse_width, threads, machine, t,
        observability, trace, result_cache, budgets,
    ):
        graph = gnp_random_graph(n, p, seed=seed)
        mix = _fanout_mix(n)
        batch = [(f"tenant-{who}", *mix[i]) for i, who in picks]
        with chunk_budgets(*budgets):
            _assert_fanouts_exact(
                graph,
                batch,
                rounds=2,
                fuse_width=fuse_width,
                threads=threads,
                t=t,
                trace=trace,
                observability=observability,
                result_cache=result_cache,
                **MACHINES[machine],
            )

    @pytest.mark.parametrize("observability", [False, True])
    def test_graph_without_edges(self, observability):
        graph = CSRGraph.from_edges(12, np.zeros((0, 2), dtype=np.int64))
        batch = [("tenant-0", name, params) for name, params in _fanout_mix(12)]
        _assert_fanouts_exact(
            graph,
            batch,
            rounds=1,
            fuse_width=8,
            threads=8,
            trace=True,
            observability=observability,
        )

    @pytest.mark.parametrize(
        "fuse_width, machine", [(8, "default"), (3, "float-order"), (8, "smb-2")]
    )
    def test_crosses_chunk_boundaries(self, fuse_width, machine):
        """Eight tenants of the soak mix on a Kronecker graph whose
        fan-outs span several chunks, interleaving two programs."""
        graph = kronecker_graph(9, 8, seed=0)
        assert graph.edge_array().shape[0] > contextmod.FANOUT_CHUNK_OPS
        batch = [
            (f"tenant-{t}", name, params)
            for t in range(8)
            for name, params in SOAK_WORKLOADS
        ]
        _assert_fanouts_exact(
            graph,
            batch,
            rounds=1,
            fuse_width=fuse_width,
            threads=32,
            trace=True,
            observability=True,
            result_cache=False,
            **MACHINES[machine],
        )

    def test_warm_soak_working_set(self):
        """Fan-outs work chunk by chunk under both budgets, so a warm
        strict fused soak batch's transient memory stays within 1.5 MiB
        (hubs cannot inflate the chunk probe)."""
        pool = SessionPool(ExecutionConfig(threads=32, result_cache=False))
        pool.session("g", kronecker_graph(9, 8, seed=0))

        def soak():
            for name, params in SOAK_WORKLOADS:
                pool.submit("g", name, tenant="tenant-0", **params)
            pool.run()

        soak()
        gc.collect()
        tracemalloc.start()
        try:
            start, __ = tracemalloc.get_traced_memory()
            soak()
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.5 * 2**20

    @staticmethod
    def _hardened_run(graph, stream, per_unit, seed):
        with _per_unit_fanouts() if per_unit else nullcontext():
            pool = SessionPool(
                ExecutionConfig(threads=8),
                retry=RetryPolicy(max_retries=4),
                observability=True,
            )
            session = pool.session("g", graph)
            session.attach_stream()
            session.maintain_orientation()
            results = []
            for epoch, edges in enumerate(stream.batches):
                session.stream.apply_batch(edges)
                pool.fault_injector = FaultInjector(
                    seed + epoch,
                    max_per_kind=2,
                    drift_rate=0.08,
                    cache_rate=0.35,
                    kernel_rate=0.2,
                    orientation_rate=0.15,
                )
                for t in range(3):
                    for name, params in _fanout_mix(graph.num_vertices):
                        pool.submit("g", name, tenant=f"tenant-{t}", **params)
                results += [_result_state(r) for r in pool.run()]
        ledgers = (pool.tenant_cycles, pool.tenant_retry_cycles, pool.tenant_runs)
        return results, ledgers, pool.health(), machine_state(session.ctx)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_hardened_soak_over_churn(self, seed):
        """Retry, seeded faults (drift, cache corruption, orientation
        desync, kernel faults) and real churned edge batches."""
        graph = gnp_random_graph(48, 0.12, seed=seed)
        stream = churn_stream(graph, churn=0.05, num_batches=3, seed=seed)
        got = self._hardened_run(graph, stream, False, seed)
        expected = self._hardened_run(graph, stream, True, seed)
        health = got[2]
        assert health.retries > 0 and health.drift_recompiles > 0
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2] == expected[2]
        for field, value in expected[3].items():
            assert got[3][field] == value, field


# ---------------------------------------------------------------------------
# Unfused fan-out programs: scheduled replay, shard workers, cpu-set
# ---------------------------------------------------------------------------


def _replay_run(graph, batch, *, per_unit, lanes, order, rounds, **config):
    """``rounds`` scheduled replays of ``batch`` on a fresh session under
    the race detector, each in the seeded random topological order
    ``order`` (the canonical one for ``None``)."""
    with _per_unit_fanouts() if per_unit else nullcontext():
        session = SisaSession(graph, ExecutionConfig(**config))
        results = []
        for __ in range(rounds):
            plans = []
            for tenant, name, params in batch:
                plan = session.compile(name, **params)
                plan.tenant = tenant
                plans.append(plan)
            replayed, races, __ = replay_certified(
                session, plans, lanes=lanes, seed=order
            )
            assert races == []
            results += [_result_state(r) for r in replayed]
    return results, machine_state(session.ctx)


#: Graph of the shard-worker cases: its fan-out payloads straddle
#: MIXED_THRESHOLD, so chunks hold offloaded and inline bursts at once.
_PARALLEL_GRAPH = make_session(n=300).graph
MIXED_THRESHOLD = 1300


def _parallel_run(batch, *, per_unit, threshold, messages):
    """The batch on a fresh two-lane pool with ``parallel=True``, once
    per chunk budget.  Every ``fanout_partials`` and ``partial_counts``
    call appends the kinds of the worker messages it sent and whether
    it returned counts to ``messages``."""
    originals = {
        name: getattr(ShardRuntime, name)
        for name in ("fanout_partials", "partial_counts", "_broadcast")
    }
    sent: list = []

    def recorded(name):
        def call(self, session, *operands):
            sent.clear()
            counts = originals[name](self, session, *operands)
            messages.append((list(sent), counts is not None))
            return counts

        return call

    def recorded_broadcast(self, message):
        sent.append(message[0])
        originals["_broadcast"](self, message)

    with _per_unit_fanouts() if per_unit else nullcontext():
        pool = SessionPool(ExecutionConfig(threads=8, result_cache=False))
        pool.parallel_offload_threshold = threshold
        session = pool.session("g", _PARALLEL_GRAPH)
        ShardRuntime.fanout_partials = recorded("fanout_partials")
        ShardRuntime.partial_counts = recorded("partial_counts")
        ShardRuntime._broadcast = recorded_broadcast
        try:
            results = []
            for budgets in CHUNK_BUDGETS:
                with chunk_budgets(*budgets):
                    for tenant, name, params in batch:
                        pool.submit("g", name, tenant=tenant, **params)
                    batch_results = pool.run(lanes=2, parallel=True)
                results += [_result_state(r) for r in batch_results]
                report = pool.last_parallel["g"]
                results.append((report.offloaded_units, report.inline_units))
        finally:
            for name, original in originals.items():
                setattr(ShardRuntime, name, original)
            pool.close()
    return results, pool.tenant_cycles, machine_state(session.ctx)


class TestUnfusedFanout:
    """Scheduled replay and the shard-parallel executor run fan-out
    stages as whole-stage chunked programs (``PlanExecutor._fanout``),
    and the ``cpu-set`` fallback steps the program task by task in
    place; the per-unit ``BurstUnit`` path the same declarations yield
    is the oracle."""

    @given(
        n=st.integers(min_value=2, max_value=36),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
        picks=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2)),
            min_size=1,
            max_size=9,
        ),
        lanes=st.sampled_from([1, 4]),
        order=st.one_of(st.none(), st.integers(min_value=0, max_value=2**16)),
        mode=st.sampled_from(MODES),
        threads=st.sampled_from([1, 4, 32]),
        machine=st.sampled_from(sorted(MACHINES)),
        t=st.sampled_from([0.0, 0.4, 1.0]),
        observability=st.booleans(),
        trace=st.booleans(),
        result_cache=st.booleans(),
        budgets=st.sampled_from(CHUNK_BUDGETS),
    )
    # Two bursts of one chunk add stats keys in the opposite of the
    # SCU's global key order.
    @example(
        n=21,
        p=0.26207092625565753,
        seed=24,
        picks=[(5, 1), (0, 1), (2, 1), (4, 1)],
        lanes=1,
        order=None,
        mode="sisa",
        threads=4,
        machine="default",
        t=0.4,
        observability=False,
        trace=False,
        result_cache=False,
        budgets=(1024, 16384),
    )
    # The last slice before a deduped stage belongs to another tenant in
    # one form and not the other; the dedup counter must carry the
    # deduped plan's tenant either way.
    @example(
        n=2,
        p=0.5,
        seed=0,
        picks=[(0, 0), (1, 1)],
        lanes=1,
        order=0,
        mode="sisa",
        threads=1,
        machine="default",
        t=0.0,
        observability=True,
        trace=False,
        result_cache=False,
        budgets=(1, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_replay_matches_per_unit_bursts(
        self, n, p, seed, picks, lanes, order, mode, threads, machine, t,
        observability, trace, result_cache, budgets,
    ):
        graph = gnp_random_graph(n, p, seed=seed)
        mix = _fanout_mix(n)
        batch = [(f"tenant-{who}", *mix[i]) for i, who in picks]
        kwargs = dict(
            lanes=lanes,
            order=order,
            rounds=2,
            mode=mode,
            threads=threads,
            t=t,
            observability=observability,
            trace=trace,
            result_cache=result_cache,
            **MACHINES[machine],
        )
        with chunk_budgets(*budgets):
            got = _replay_run(graph, batch, per_unit=False, **kwargs)
        expected = _replay_run(graph, batch, per_unit=True, **kwargs)
        assert got[0] == expected[0]
        for field, value in expected[1].items():
            assert got[1][field] == value, field

    @given(
        n=st.integers(min_value=2, max_value=36),
        p=st.floats(min_value=0.05, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**16),
        picks=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 2)),
            min_size=1,
            max_size=9,
        ),
        threads=st.sampled_from([1, 4, 32]),
        t=st.sampled_from([0.0, 0.4, 1.0]),
        observability=st.booleans(),
        budgets=st.sampled_from(CHUNK_BUDGETS),
    )
    @settings(max_examples=30, deadline=None)
    def test_cpu_set_round_robin_matches_per_unit_bursts(
        self, n, p, seed, picks, threads, t, observability, budgets
    ):
        """The round-robin loop interleaves plans task by task, so the
        host baseline keeps that order and issues each task in place."""
        graph = gnp_random_graph(n, p, seed=seed)
        mix = _fanout_mix(n)
        batch = [(f"tenant-{who}", *mix[i]) for i, who in picks]
        with chunk_budgets(*budgets):
            _assert_fanouts_exact(
                graph,
                batch,
                rounds=2,
                fuse_width=FUSE_WIDTH,
                mode="cpu-set",
                threads=threads,
                t=t,
                trace=True,
                observability=observability,
            )

    @pytest.mark.parametrize(
        "threshold", [0, None, MIXED_THRESHOLD], ids=["all", "default", "mixed"]
    )
    def test_shard_workers_match_per_unit_bursts(self, threshold):
        """Outputs, reports, ledgers, machine state and the offload
        counters of every chunk budget; one ``pairs`` message per chunk
        with offloaded bursts and per offloaded burst, and none for an
        all-inline chunk or an inline burst, in the per-unit reference
        run too."""
        pairs = _watchlist(_PARALLEL_GRAPH.num_vertices, 24)
        batch = [
            (f"tenant-{t}", name, params)
            for t in range(2)
            for name, params in [
                *SOAK_WORKLOADS,
                ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
                (
                    "similarity_pairs",
                    {"pairs": pairs, "measure": "total_neighbors"},
                ),
            ]
        ]
        messages: list = []
        got = _parallel_run(
            batch, per_unit=False, threshold=threshold, messages=messages
        )
        expected = _parallel_run(
            batch, per_unit=True, threshold=threshold, messages=messages
        )
        assert got[0] == expected[0]
        assert got[1] == expected[1]
        for field, value in expected[2].items():
            assert got[2][field] == value, field
        offloaded = got[0][len(batch)::len(batch) + 1]
        assert messages
        for kinds, offloads in messages:
            sends = [kind for kind in kinds if kind != "load"]
            assert sends == (["pairs"] if offloads else [])
        if threshold is None:
            assert all(units == 0 for units, __ in offloaded)
        else:
            assert all(units > 0 for units, __ in offloaded)
        if threshold == MIXED_THRESHOLD:
            assert all(inline > 0 for __, inline in offloaded)
