"""Tests for the sharded parallel execution subsystem: universe
partitioning, shared-memory staging, deterministic merges, lane-gate
admission, the ownership fences on host-owned serving structures, the
``parallel-unsafe-access`` lint rule, and the headline property — that
``pool.run(parallel=True)`` on real worker processes is bit-identical
(outputs, per-tenant ledgers, modeled cycles) to strict sequential
execution at every lane width, with worker crashes surfacing as
structured ``FailedResult``\\ s rather than hangs."""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static import certify_schedule, lint_source
from repro.analysis.static.lint import DEFAULT_RULES
from repro.analysis.static.smoke import (
    SOAK_WORKLOADS,
    compile_batch,
    full_grid,
    make_session,
)
from repro.errors import ConfigError, SisaError, WorkerCrashError
from repro.parallel import ownership
from repro.parallel.executor import LaneGate
from repro.parallel.merge import merge_partials
from repro.parallel.shards import ShardPlan, ShardStore, partition_universe
from repro.parallel.workers import ShardRuntime, _ShardWorker
from repro.runtime.batch import FanoutRows
from repro.serving import RetryPolicy
from repro.session import FailedResult, SessionPool
from repro.session.cache import ResultCache, fingerprint
from repro.sets.sparse import SparseArray

N = 60
LANE_WIDTHS = (1, 2, 4)


# ---------------------------------------------------------------------------
# Partitioning and merges (pure host-side units)
# ---------------------------------------------------------------------------


class TestPartitioning:
    def test_degree_policy_balances_degree_mass(self):
        rng = np.random.default_rng(7)
        degrees = rng.integers(0, 50, size=200)
        shard_of = partition_universe(degrees, 4)
        loads = [
            int((degrees + 1)[shard_of == k].sum()) for k in range(4)
        ]
        # LPT keeps the spread within the largest single item.
        assert max(loads) - min(loads) <= int(degrees.max()) + 1

    def test_partition_covers_universe_exactly(self):
        degrees = np.ones(33, dtype=np.int64)
        shard_of = partition_universe(degrees, 5)
        assert shard_of.shape == (33,)
        assert shard_of.min() >= 0 and shard_of.max() < 5

    def test_single_shard_is_trivial(self):
        shard_of = partition_universe(np.arange(9), 1)
        assert not shard_of.any()

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            partition_universe(np.arange(4), 0)

    def test_plan_vertex_counts(self):
        plan = ShardPlan.build(np.ones(10), 3)
        assert sum(plan.vertex_counts) == 10
        assert len(plan.vertex_counts) == 3


class TestMerge:
    def test_merge_is_exact_integer_sum(self):
        rng = np.random.default_rng(11)
        arena = rng.integers(0, 1000, size=(4, 32)).astype(np.int64)
        merged = merge_partials(arena, 4, 20)
        assert np.array_equal(merged, arena[:, :20].sum(axis=0))

    def test_merge_single_shard_copies(self):
        arena = np.arange(12, dtype=np.int64).reshape(1, 12)
        merged = merge_partials(arena, 1, 5)
        merged[0] = -1  # must not alias the arena
        assert arena[0, 0] == 0


class TestPairKernel:
    """The workers' fan-out pair kernel, in process: the per-shard
    partials of random row pairs merge to the host's flat probe."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.integers(min_value=1, max_value=4),
    )
    def test_partials_merge_to_the_host_probe(self, seed, shards):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        sizes = np.minimum(rng.integers(0, 8, size=n), n)
        sizes[rng.random(n) < 0.3] = 0  # empty rows
        hubs = rng.choice(n, size=min(n, 3), replace=False)
        sizes[hubs] = rng.integers(n // 2, n + 1, size=hubs.size)
        rows = [
            np.sort(rng.choice(n, size=int(size), replace=False))
            for size in sizes
        ]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        values = np.concatenate(rows).astype(np.int64)
        k = int(rng.integers(6, 300))
        v_rows = rng.integers(0, n, size=k)
        u_rows = rng.integers(0, n, size=k)
        # Hub against hub, and hub against an empty row where there is
        # one.
        h = hubs.size
        v_rows[:h] = u_rows[h:2 * h] = hubs
        u_rows[:h] = hubs[::-1]
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            v_rows[h:2 * h] = empty[0]
        store = ShardStore(
            ShardPlan.build(sizes, shards), arena_width=max(n, 1024)
        )
        try:
            spec, __ = store.push_source("rows", offsets, values)
            for shard in range(shards):
                worker = _ShardWorker(shard, store.base_spec())
                worker.load(spec)
                worker.count_pairs("rows", v_rows, u_rows)
            got = merge_partials(store.arena.array, shards, k)
        finally:
            store.close()
        host = FanoutRows([SparseArray.from_sorted(r, n) for r in rows], n)
        assert got.tolist() == host.intersect_counts(v_rows, u_rows).tolist()


class TestSharedArray:
    def test_array_outlives_its_wrapper(self):
        """An attached array whose wrapper is gone still reads its
        segment: the mapping closes only once neither is reachable (a
        closed mapping under a live array segfaults)."""
        snippet = (
            "import gc\n"
            "import numpy as np\n"
            "from repro.parallel.shards import SharedArray\n"
            "host = SharedArray.create(np.arange(1000))\n"
            "values = SharedArray.attach(host.spec()).array\n"
            "gc.collect()\n"
            "print(values.sum())\n"
            "host.destroy()\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [str(sum(range(1000)))]


class TestWorkerProtocol:
    def test_unserved_message_kind_is_a_structured_error(self):
        """A kind the workers do not serve (the retired ``countv``)
        comes back from every shard as an ``err`` reply, which the host
        raises as a WorkerCrashError naming that shard; the workers
        keep serving."""
        runtime = ShardRuntime(make_session(n=N), 2)
        try:
            runtime._broadcast(("countv", 1))
            for shard in range(runtime.shards):
                with pytest.raises(WorkerCrashError) as err:
                    runtime._expect_ok(shard, 1)
                assert err.value.details["shard"] == shard
                assert err.value.details["alive"]
                assert "unknown message kind 'countv'" in str(err.value)
            runtime.ping()
        finally:
            runtime.close()


# ---------------------------------------------------------------------------
# Lane-gate admission
# ---------------------------------------------------------------------------


class TestLaneGate:
    def _schedule(self):
        session = make_session(n=N)
        plans = compile_batch(session, full_grid(N))
        return certify_schedule(plans, lanes=2)

    def test_admission_before_ancestors_raises(self):
        schedule = self._schedule()
        lane_of, __ = schedule.assign(2)
        gate = LaneGate(schedule, lane_of)
        blocked = next(
            node for node in schedule.order if schedule.preds[node]
        )
        with pytest.raises(SisaError) as err:
            gate.admit(blocked)
        assert err.value.details["node"] == blocked
        assert err.value.details["incomplete_preds"]

    def test_certified_order_admits_cleanly(self):
        schedule = self._schedule()
        lane_of, __ = schedule.assign(2)
        gate = LaneGate(schedule, lane_of)
        for node in schedule.order:
            assert gate.admit(node) == lane_of[node]
            gate.complete(node)


# ---------------------------------------------------------------------------
# Ownership fences
# ---------------------------------------------------------------------------


class TestOwnershipFences:
    def test_host_process_passes_fence(self):
        assert not ownership.in_worker()
        ownership.assert_host_owned("result-cache", op="get")  # no-op

    def test_cache_access_raises_inside_worker(self):
        ownership.mark_worker(2)
        try:
            cache = ResultCache()
            with pytest.raises(SisaError) as err:
                cache.get(("w", ("none",), (0, 0)))
            assert err.value.details["structure"] == "result-cache"
            assert err.value.details["shard"] == 2
            with pytest.raises(SisaError):
                cache.put(("w", ("none",), (0, 0)), np.arange(3))
        finally:
            ownership._WORKER_SHARD = None
        assert not ownership.in_worker()

    def test_orientation_hooks_raise_inside_worker(self):
        session = make_session(n=N)
        session.attach_stream()
        maintainer = session.maintain_orientation()
        ownership.mark_worker(0)
        try:
            with pytest.raises(SisaError) as err:
                maintainer.mark_desynced()
            assert err.value.details["structure"] == (
                "orientation-maintainer"
            )
        finally:
            ownership._WORKER_SHARD = None


# ---------------------------------------------------------------------------
# parallel-unsafe-access lint rule
# ---------------------------------------------------------------------------

_WORKER_PATH = "src/repro/parallel/workers.py"


class TestParallelUnsafeAccessRule:
    def test_rule_is_stock(self):
        assert "parallel-unsafe-access" in DEFAULT_RULES

    def test_host_only_import_flagged_in_worker_module(self):
        src = "from repro.session.pool import SessionPool\n"
        found = lint_source(
            src, _WORKER_PATH, rules=["parallel-unsafe-access"]
        )
        assert [v.rule for v in found] == ["parallel-unsafe-access"]
        assert "repro.session.pool" in found[0].message

    def test_plain_import_flagged(self):
        src = "import repro.serving\n"
        found = lint_source(
            src, _WORKER_PATH, rules=["parallel-unsafe-access"]
        )
        assert len(found) == 1

    def test_host_side_modules_exempt(self):
        src = "from repro.session.plan import PlanExecutor\n"
        found = lint_source(
            src,
            "src/repro/parallel/executor.py",
            rules=["parallel-unsafe-access"],
        )
        assert found == []

    def test_safe_imports_pass(self):
        src = "import numpy as np\nfrom repro.errors import SisaError\n"
        found = lint_source(
            src, _WORKER_PATH, rules=["parallel-unsafe-access"]
        )
        assert found == []

    def test_pragma_suppresses(self):
        src = (
            "import repro.streaming"
            "  # repolint: disable=parallel-unsafe-access\n"
        )
        found = lint_source(
            src, _WORKER_PATH, rules=["parallel-unsafe-access"]
        )
        assert found == []


# ---------------------------------------------------------------------------
# Pool integration: parallel=True on real worker processes
# ---------------------------------------------------------------------------


#: One shared smoke graph: resubmitting to the same pool key requires
#: the identical graph object.
_SOAK_GRAPH = make_session(n=N).graph


def _submit_soak(pool, tenants=2):
    graph = _SOAK_GRAPH
    for tenant in range(tenants):
        for name, params in SOAK_WORKLOADS:
            pool.submit(
                "g", name, tenant=f"tenant-{tenant}", graph=graph, **params
            )
    return tenants * len(SOAK_WORKLOADS)


@pytest.fixture(scope="module")
def sequential_baseline():
    """Strict-sequential oracle per lane width: output fingerprints
    (eager single-session runs), plus the scheduled-but-serial pool's
    modeled cycles and tenant ledgers."""
    session = make_session(n=N)
    outputs = {
        name: fingerprint(session.run(name, **dict(params)).output)
        for name, params in SOAK_WORKLOADS
    }
    per_lane = {}
    for lanes in LANE_WIDTHS:
        pool = SessionPool(threads=8)
        _submit_soak(pool)
        results = pool.run(lanes=lanes)
        per_lane[lanes] = {
            "cycles": [r.report.runtime_cycles for r in results],
            "tenants": pool.tenant_cycles,
        }
    return {"outputs": outputs, "per_lane": per_lane}


class TestPoolParallel:
    @settings(max_examples=6, deadline=None)
    @given(lanes=st.sampled_from(LANE_WIDTHS))
    def test_parallel_bit_identical_to_sequential(
        self, sequential_baseline, lanes
    ):
        pool = SessionPool(threads=8)
        pool.parallel_offload_threshold = 0  # force every burst offload
        count = _submit_soak(pool)
        try:
            results = pool.run(lanes=lanes, parallel=True)
            assert len(results) == count
            baseline = sequential_baseline["per_lane"][lanes]
            for i, result in enumerate(results):
                assert result.ok and result.scheduled and result.parallel
                assert (
                    fingerprint(result.output)
                    == sequential_baseline["outputs"][result.workload]
                ), result.workload
                assert (
                    result.report.runtime_cycles == baseline["cycles"][i]
                )
            assert pool.tenant_cycles == baseline["tenants"]

            report = pool.last_parallel["g"]
            model = pool.last_schedules["g"].what_if(lanes)
            assert report.lanes == lanes and report.shards == lanes
            assert report.offloaded_units > 0
            assert report.inline_units == 0
            assert (
                report.parallel_cycles
                == model.makespan + model.merge_cycles
            )
            assert report.cross_edges == model.cross_edges
        finally:
            pool.close()

    def test_parallel_health_fields(self):
        pool = SessionPool(threads=8)
        pool.parallel_offload_threshold = 0
        _submit_soak(pool)
        try:
            pool.run(lanes=2, parallel=True)
            snapshot = pool.health()
            assert sum(snapshot.shard_vertices) == N
            assert (
                0.0
                < snapshot.lane_mean_occupancy
                <= snapshot.lane_max_occupancy
                <= 1.0
            )
            assert snapshot.worker_crashes == 0
            payload = snapshot.as_dict()
            assert payload["shard_vertices"] == list(
                snapshot.shard_vertices
            )
            assert "lane_max_occupancy" in payload
        finally:
            pool.close()

    def test_inline_fallback_above_threshold_still_identical(
        self, sequential_baseline
    ):
        # Default threshold: the smoke graph's tiny sets never offload,
        # so everything computes inline — same outputs, same cycles.
        pool = SessionPool(threads=8)
        _submit_soak(pool)
        try:
            results = pool.run(lanes=2, parallel=True)
            baseline = sequential_baseline["per_lane"][2]
            for i, result in enumerate(results):
                assert result.ok and result.parallel
                assert (
                    result.report.runtime_cycles == baseline["cycles"][i]
                )
            report = pool.last_parallel["g"]
            assert report.offloaded_units == 0
            assert report.inline_units > 0
        finally:
            pool.close()

    def test_worker_crash_yields_failed_results_not_a_hang(self):
        pool = SessionPool(threads=8)
        pool.parallel_offload_threshold = 0
        _submit_soak(pool)
        try:
            results = pool.run(lanes=2, parallel=True)
            assert all(r.ok for r in results)

            # Kill shard 0's worker, then serve another batch: every
            # plan of the batch degrades to a structured FailedResult
            # well inside the reply deadline.  (Cached results would
            # never reach the dead worker, so drop them first.)
            pool._runtimes["g"].kill_worker(0)
            pool.session("g").invalidate_results()
            count = _submit_soak(pool)
            started = time.monotonic()
            results = pool.run(lanes=2, parallel=True)
            assert time.monotonic() - started < 30.0
            assert len(results) == count
            for result in results:
                assert isinstance(result, FailedResult)
                assert result.reason == "worker-crash"
                assert result.details["shard"] == 0
            snapshot = pool.health()
            assert snapshot.worker_crashes == count
            assert snapshot.degraded

            # The crashed runtime was dropped: the next parallel run
            # respawns workers and serves cleanly again.
            pool.session("g").invalidate_results()
            _submit_soak(pool)
            results = pool.run(lanes=2, parallel=True)
            assert all(r.ok and r.parallel for r in results)
        finally:
            pool.close()

    def test_injected_worker_exit_is_structured(self):
        pool = SessionPool(threads=8)
        pool.parallel_offload_threshold = 0
        _submit_soak(pool)
        try:
            pool.run(lanes=2, parallel=True)
            pool._runtimes["g"].crash_worker(1, code=7)
            pool.session("g").invalidate_results()
            _submit_soak(pool)
            results = pool.run(lanes=2, parallel=True)
            assert results and all(
                isinstance(r, FailedResult)
                and r.reason == "worker-crash"
                for r in results
            )
        finally:
            pool.close()

    def test_parallel_rejects_hardened_mode(self):
        pool = SessionPool(threads=8, retry=RetryPolicy())
        _submit_soak(pool)
        with pytest.raises(ConfigError):
            pool.run(parallel=True)
