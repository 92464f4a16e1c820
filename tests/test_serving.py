"""Serving-hardening tests: validation rule engine, admission control,
fault isolation + drift retry, graceful degradation, and the
fault-equivalence property (a faulted multi-tenant batch returns
results bit-identical to a fault-free run)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    AdmissionError,
    ConfigError,
    InjectedFault,
    SisaError,
    ValidationError,
)
from repro.baselines.nonset import bfs_nonset
from repro.graphs.generators import gnp_random_graph
from repro.graphs.streams import churn_stream
from repro.serving import (
    AdmissionController,
    FaultInjector,
    RetryPolicy,
    RuleSet,
    TenantQuota,
    available_rules,
    default_rules,
    rule,
    validate_config_overrides,
)
from repro.session import (
    ExecutionConfig,
    FailedResult,
    SessionPool,
    SisaSession,
)


def _graph(n=24, p=0.25, seed=7):
    return gnp_random_graph(n, p, seed=seed)


# ---------------------------------------------------------------------------
# Validation rule engine
# ---------------------------------------------------------------------------


class TestValidationEngine:
    def test_builtin_rules_registered(self):
        names = set(available_rules())
        assert {
            "params-accepted",
            "params-required",
            "param-domains",
            "vertices-in-range",
        } <= names
        assert "config-overrides" in available_rules("config")

    def test_default_rules_compose_per_workload(self):
        rs = default_rules("triangles")
        assert "params-accepted" in set(rs)
        assert len(rs) >= 3

    def test_unknown_rule_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown validation rule"):
            RuleSet(["params-accepted", "no-such-rule"])

    def test_duplicate_registration_guard(self):
        @rule("serving-test-rule", workloads=("triangles",), replace=True)
        def _never_fires(ctx):
            return None

        with pytest.raises(SisaError, match="already registered"):

            @rule("serving-test-rule", workloads=("triangles",))
            def _shadow(ctx):
                return None

    def test_custom_workload_rule_enforced_at_the_door(self):
        from repro.serving.validation import _RULES

        @rule("kclique-cap-k", workloads=("kclique",), replace=True)
        def _cap(ctx):
            if ctx.params.get("k", 0) > 4:
                return "kclique is capped at k=4 on this deployment"
            return None

        session = SisaSession(_graph(), threads=2)
        try:
            with pytest.raises(ValidationError, match="capped"):
                session.compile("kclique", k=5)
            # Other workloads are untouched by the scoped rule.
            session.compile("kclique_star", k=5)
        finally:
            del _RULES["kclique-cap-k"]

    def test_unknown_parameter_structured_details(self):
        session = SisaSession(_graph(), threads=2)
        with pytest.raises(ValidationError) as exc:
            session.compile("triangles", bogus=1)
        err = exc.value
        assert isinstance(err, ConfigError)  # old fronts still catch it
        assert err.details["workload"] == "triangles"
        rules_hit = [v["rule"] for v in err.details["violations"]]
        assert "params-accepted" in rules_hit
        # The unbatched instruction streams are gone, and so is the flag.
        with pytest.raises(ValidationError, match="batch"):
            session.run("triangles", batch=True)

    def test_missing_required_parameter(self):
        session = SisaSession(_graph(), threads=2)
        with pytest.raises(ValidationError, match="k"):
            session.compile("kclique")

    def test_domain_rules(self):
        session = SisaSession(_graph(), threads=2)
        with pytest.raises(ValidationError, match="integer >= 1"):
            session.compile("kclique", k=0)
        with pytest.raises(ValidationError, match="removal_fraction"):
            session.compile("link_prediction", removal_fraction=1.5, seed=0)
        with pytest.raises(ValidationError, match="measure"):
            session.compile("similarity", u=0, v=1, measure="nope")

    def test_vertex_range_rule(self):
        session = SisaSession(_graph(n=10), threads=2)
        with pytest.raises(ValidationError, match="root"):
            session.compile("bfs", root=99)
        with pytest.raises(ValidationError, match="pairs"):
            session.compile(
                "similarity_pairs", pairs=np.array([[0, 99]], dtype=np.int64)
            )

    def test_vertex_range_rule_builds_no_csr_after_churn(self):
        """The vertex count every submit checks against needs no CSR of
        the churned graph, and ``bfs`` runs on the live sets; an
        out-of-range root still fails with the same details."""
        graph = _graph(n=30)
        pool = SessionPool(threads=2)
        session = pool.session("g", graph)
        session.attach_stream().apply_batch(
            churn_stream(graph, churn=0.2, num_batches=1, seed=3).batches[0]
        )
        pool.submit("g", "triangles", tenant="t0")
        pool.submit("g", "bfs", root=4, tenant="t0")
        assert session._csr_version is None
        with pytest.raises(ValidationError) as exc:
            pool.submit("g", "bfs", root=30, tenant="t0")
        assert exc.value.details["violations"] == [
            {
                "rule": "vertices-in-range",
                "message": "parameter 'root' = 30 is outside the graph's "
                "vertex range [0, 30)",
                "param": "root",
                "value": 30,
                "num_vertices": 30,
            }
        ]
        parent = session.run("bfs", root=4).output
        assert session._csr_version is None
        reference = bfs_nonset(session.current_graph, 4).output
        assert ((parent >= 0) == (reference >= 0)).all()

    def test_pairs_shape_rule(self):
        session = SisaSession(_graph(), threads=2)
        with pytest.raises(ValidationError, match="shape"):
            session.compile(
                "similarity_pairs", pairs=np.array([0, 1], dtype=np.int64)
            )

    def test_view_runs_validate_through_same_door(self):
        session = SisaSession(_graph(), threads=2)
        session.attach_stream()
        snap = session.snapshot()
        with pytest.raises(ValidationError, match="bogus"):
            session.run("triangles", view=snap, bogus=1)

    def test_config_override_rule(self):
        with pytest.raises(ConfigError) as exc:
            validate_config_overrides({"threadz": 4})
        assert "threadz" in exc.value.details["unknown_keys"]

    def test_session_init_rejects_unknown_override_key(self):
        with pytest.raises(ConfigError) as exc:
            SisaSession(_graph(), threadz=4)
        assert "threadz" in exc.value.details["unknown_keys"]

    def test_pool_init_rejects_unknown_override_key(self):
        with pytest.raises(ConfigError) as exc:
            SessionPool(threadz=4)
        assert "threadz" in exc.value.details["unknown_keys"]
        with pytest.raises(ConfigError, match="ExecutionConfig"):
            SessionPool(config={"threads": 4})


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_quota_validation(self):
        with pytest.raises(ConfigError):
            TenantQuota(cycle_budget=0)
        with pytest.raises(ConfigError):
            TenantQuota(max_queue_depth=0)
        with pytest.raises(ConfigError):
            TenantQuota(max_deferred=-1)

    def test_decisions_are_deterministic(self):
        def trace():
            ac = AdmissionController(
                {"t": TenantQuota(cycle_budget=10.0, max_queue_depth=1)}
            )
            return [
                ac.decide("t", queued=0, deferred=0, spent=0.0).action,
                ac.decide("t", queued=1, deferred=0, spent=0.0).action,
                ac.decide("t", queued=1, deferred=8, spent=0.0).action,
                ac.decide("t", queued=0, deferred=0, spent=10.0).action,
            ]

        assert trace() == trace() == ["admit", "defer", "reject", "reject"]

    def test_budget_reject_raises_structured_error(self):
        pool = SessionPool(
            quotas={"t0": TenantQuota(cycle_budget=1.0)}, threads=2
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        pool.run()
        assert pool.tenant_cycles["t0"] > 1.0  # budget now exhausted
        with pytest.raises(AdmissionError) as exc:
            pool.submit("g", "triangles", tenant="t0")
        assert exc.value.details["reason"] == "budget-exhausted"
        assert exc.value.details["tenant"] == "t0"
        # Other tenants are unaffected.
        pool.submit("g", "triangles", tenant="t1")

    def test_defer_then_promote_in_order(self):
        pool = SessionPool(
            quotas={"t0": TenantQuota(max_queue_depth=1)}, threads=2
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        pool.submit("g", "local_clustering", tenant="t0")
        pool.submit("g", "kclique", k=3, tenant="t0")
        assert (pool.pending, pool.deferred) == (1, 2)
        first = pool.run()
        assert len(first) == 1 and first[0].workload == "triangles"
        # Queue drained: exactly one deferred plan promotes per run.
        second = pool.run()
        assert len(second) == 1 and second[0].workload == "local_clustering"
        third = pool.run()
        assert len(third) == 1 and third[0].workload == "kclique"
        assert pool.deferred == 0

    def test_deferral_window_overflow_rejects(self):
        pool = SessionPool(
            quotas={"t0": TenantQuota(max_queue_depth=1, max_deferred=1)},
            threads=2,
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        pool.submit("g", "local_clustering", tenant="t0")  # deferred
        with pytest.raises(AdmissionError) as exc:
            pool.submit("g", "kclique", k=3, tenant="t0")
        assert exc.value.details["reason"] == "queue-full"

    def test_default_quota_applies_to_unnamed_tenants(self):
        pool = SessionPool(
            default_quota=TenantQuota(max_queue_depth=1), threads=2
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="anyone")
        pool.submit("g", "local_clustering", tenant="anyone")
        assert pool.deferred == 1

    def test_controller_and_quotas_are_exclusive(self):
        with pytest.raises(ConfigError, match="not both"):
            SessionPool(
                admission=AdmissionController(),
                quotas={"t": TenantQuota()},
            )


# ---------------------------------------------------------------------------
# Fault isolation, retry, degradation
# ---------------------------------------------------------------------------


class _StageFault:
    """Minimal injector stub: fail named workloads' first N attempts."""

    def __init__(self, workload, times=1, exc=InjectedFault):
        self.workload = workload
        self.remaining = times
        self.exc = exc

    def before_batch(self, session, plans):
        pass

    def before_plan(self, session, plan):
        pass

    def on_stage(self, plan, stage):
        if plan.name == self.workload and self.remaining > 0:
            self.remaining -= 1
            raise self.exc(f"injected failure in {plan.name}")

    injected = {}


class TestFaultIsolation:
    def test_run_many_isolate_returns_failed_slot(self):
        session = SisaSession(_graph(), threads=2)
        results = session.run_many(
            ["triangles", "local_clustering"],
            isolate=True,
            fault_injector=_StageFault("local_clustering", times=99),
        )
        assert results[0].ok and results[0].workload == "triangles"
        assert isinstance(results[1], FailedResult)
        assert results[1].reason == "fault"
        # The session still serves follow-up work.
        assert session.run("triangles").ok

    def test_hardened_pool_retries_to_success(self):
        pool = SessionPool(
            retry=RetryPolicy(max_retries=2),
            fault_injector=_StageFault("triangles", times=1),
            threads=2,
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        (result,) = pool.run()
        assert result.ok
        baseline = SisaSession(_graph(), threads=2).run("triangles")
        assert result.output == baseline.output
        health = pool.health()
        assert health.retries == 1 and health.failed == 0
        assert health.degraded and not health.healthy

    def test_exhausted_retries_yield_failed_result_not_exception(self):
        pool = SessionPool(
            retry=RetryPolicy(max_retries=1),
            fault_injector=_StageFault("triangles", times=99),
            threads=2,
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        pool.submit("g", "local_clustering", tenant="t1")
        results = pool.run()
        assert isinstance(results[0], FailedResult)
        assert results[0].reason == "fault"
        assert results[0].attempts == 2
        # The batchmate completed untouched.
        assert results[1].ok
        assert pool.health().failed == 1

    def test_retry_cycles_charged_to_owning_tenant(self):
        class _FailAfterWork(_StageFault):
            # Fail at the finalize stage, after the burst stage has
            # dispatched real (charged) instructions — so the failed
            # attempt's modeled cycles are visibly nonzero.
            def on_stage(self, plan, stage):
                if plan.name != self.workload or self.remaining <= 0:
                    return
                if not stage.startswith("finalize"):
                    return
                self.remaining -= 1
                raise self.exc("late-stage failure")

        pool = SessionPool(
            retry=RetryPolicy(max_retries=2),
            fault_injector=_FailAfterWork("clustering_coefficient", times=1),
            threads=2,
        )
        pool.submit(
            "g", "clustering_coefficient", graph=_graph(), tenant="t0"
        )
        pool.submit("g", "local_clustering", tenant="t1")
        results = pool.run()
        assert all(r.ok for r in results)
        assert pool.tenant_retry_cycles["t0"] > 0.0
        assert pool.tenant_retry_cycles.get("t1", 0.0) == 0.0
        assert pool.health().wasted_cycles == pool.tenant_retry_cycles["t0"]

    def test_drift_recompile_and_retry(self):
        pool = SessionPool(retry=RetryPolicy(), threads=2)
        session = pool.session("g", _graph())
        session.attach_stream()
        pool.submit("g", "triangles", tenant="t0")
        FaultInjector(seed=5).inject_drift(session)
        assert pool._pending[0][2].stale
        (result,) = pool.run()
        assert result.ok
        baseline = SisaSession(_graph(), threads=2).run("triangles")
        assert result.output == baseline.output
        assert pool.health().drift_recompiles == 1

    def test_drift_without_recompile_policy_fails_structured(self):
        pool = SessionPool(
            retry=RetryPolicy(recompile_on_drift=False), threads=2
        )
        session = pool.session("g", _graph())
        session.attach_stream()
        pool.submit("g", "triangles", tenant="t0")
        FaultInjector(seed=5).inject_drift(session)
        (result,) = pool.run()
        assert isinstance(result, FailedResult)
        assert result.reason == "drift"
        assert result.details["pinned_version"] != result.details["stream_version"]

    def test_strict_pool_unchanged_by_default(self):
        pool = SessionPool(threads=2)
        session = pool.session("g", _graph())
        session.attach_stream()
        pool.submit("g", "triangles", tenant="t0")
        FaultInjector(seed=5).inject_drift(session)
        with pytest.raises(SisaError, match="recompile"):
            pool.run()
        assert pool.pending == 1  # nothing dequeued

    def test_budget_gate_stops_queued_plans_before_they_start(self):
        pool = SessionPool(
            quotas={"t0": TenantQuota(cycle_budget=1.0)},
            retry=RetryPolicy(),
            threads=2,
        )
        # Two plans queued while the budget is still clean; the first
        # consumes it, so the second must never start.
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        pool.submit("g", "local_clustering", tenant="t0")
        results = pool.run()
        assert results[0].ok
        assert isinstance(results[1], FailedResult)
        assert results[1].reason == "budget-exhausted"
        assert results[1].attempts == 0
        # Overshoot is bounded by the single plan that crossed the line.
        assert pool.tenant_runs["t0"] == 1


class TestDegradation:
    def test_cache_corruption_detected_and_recomputed(self):
        session = SisaSession(_graph(), threads=2)
        first = session.run("triangles")
        session._results.corrupt_one()
        again = session.run("triangles")
        assert session.cache_stats.corruptions == 1
        assert not again.cached  # recomputed, not served poisoned
        assert again.output == first.output

    def test_cache_eviction_degrades_to_recompute(self):
        session = SisaSession(_graph(), threads=2)
        first = session.run("triangles")
        assert session._results.evict_one()
        again = session.run("triangles")
        assert not again.cached
        assert again.output == first.output

    def test_orientation_desync_degrades_to_charged_resync(self):
        session = SisaSession(_graph(), threads=2)
        session.attach_stream()
        maintainer = session.maintain_orientation()
        before = session.run("triangles")
        maintainer.mark_desynced()
        session.invalidate_results()
        after = session.run("triangles")
        assert maintainer.stats.resyncs == 1
        assert after.output == before.output

    def test_health_snapshot_tenant_view(self):
        pool = SessionPool(
            quotas={"t0": TenantQuota(cycle_budget=1e12)},
            retry=RetryPolicy(),
            threads=2,
        )
        pool.submit("g", "triangles", graph=_graph(), tenant="t0")
        pool.run()
        health = pool.health()
        t0 = health.tenant("t0")
        assert t0.cycles > 0 and t0.cycle_budget == 1e12
        assert not t0.budget_exhausted
        assert t0.remaining_budget < 1e12
        with pytest.raises(KeyError):
            health.tenant("nobody")
        assert health.as_dict()["healthy"] == health.healthy

    def test_seeded_injector_schedule_is_reproducible(self):
        def injected_counts():
            inj = FaultInjector(
                seed=11, drift_rate=0.5, cache_rate=0.5, kernel_rate=0.3
            )
            pool = SessionPool(
                retry=RetryPolicy(max_retries=3),
                fault_injector=inj,
                threads=2,
            )
            session = pool.session("g", _graph())
            session.attach_stream()
            for w in ("triangles", "local_clustering", "triangles"):
                pool.submit("g", w, tenant="t0")
            pool.run()
            return dict(inj.injected)

        assert injected_counts() == injected_counts()


# ---------------------------------------------------------------------------
# Fault-equivalence property (the acceptance criterion)
# ---------------------------------------------------------------------------

_WORKLOAD_CHOICES = (
    ("triangles", {}),
    ("local_clustering", {}),
    ("kclique", {"k": 3}),
    ("bfs", {"root": 0}),
    ("clustering_coefficient", {}),
)


def _run_to_completion(pool, limit=50):
    results = []
    for _ in range(limit):
        results.extend(pool.run())
        if pool.pending == 0 and pool.deferred == 0:
            return results
    raise AssertionError("pool failed to drain")


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    picks=st.lists(st.integers(0, len(_WORKLOAD_CHOICES) - 1), min_size=2, max_size=6),
    drift_rate=st.floats(0.0, 1.0),
    cache_rate=st.floats(0.0, 1.0),
    kernel_rate=st.floats(0.0, 0.8),
)
def test_faulted_batch_bit_identical_to_fault_free(
    seed, picks, drift_rate, cache_rate, kernel_rate
):
    """A mixed multi-tenant batch under injected drift/cache/kernel
    faults (with retries bounded above the per-kind fault cap, so every
    plan can complete) returns outputs bit-identical to a fault-free
    run — no unhandled exceptions, queue limits respected."""
    graph = gnp_random_graph(16, 0.3, seed=3)
    quotas = {
        "alice": TenantQuota(max_queue_depth=4, max_deferred=16),
        "bob": TenantQuota(max_queue_depth=4, max_deferred=16),
    }
    # Worst case for one plan: 2 kernel faults plus 2 before-plan drift
    # injections (each staling the running attempt) = 4 burned attempts,
    # so 4 retries guarantee a clean 5th attempt once every fault kind
    # has hit its cap.
    retry = RetryPolicy(max_retries=4)

    def build(injector):
        pool = SessionPool(
            quotas=dict(quotas), retry=retry, fault_injector=injector, threads=2
        )
        session = pool.session("g", graph)
        session.attach_stream()
        for i, pick in enumerate(picks):
            name, params = _WORKLOAD_CHOICES[pick]
            pool.submit(
                "g", name, tenant=("alice", "bob")[i % 2], **params
            )
        return pool

    # Per-kind cap of 2 keeps total attempt-burning faults (kernel +
    # drift) below the retry allowance of any single plan.
    injector = FaultInjector(
        seed=seed,
        drift_rate=drift_rate,
        cache_rate=cache_rate,
        kernel_rate=kernel_rate,
        max_per_kind=2,
    )
    baseline = _run_to_completion(build(None))
    faulted = _run_to_completion(build(injector))

    assert len(baseline) == len(faulted) == len(picks)
    for clean, noisy in zip(baseline, faulted):
        assert clean.ok and noisy.ok
        assert clean.workload == noisy.workload
        assert repr(clean.output) == repr(noisy.output)
