"""The Observability hub: one object threaded through every layer.

A single :class:`Observability` instance is shared by a
:class:`~repro.session.pool.SessionPool`, its sessions, their contexts
and SCUs, the result caches, the admission controller and the
orientation maintainers.  Each layer holds a nullable reference
(``obs``/``self.obs``) and guards every feed with ``if obs is not
None`` — with observability disabled no instrumentation code runs at
all, and with it enabled every feed is observation-only (no engine
charge, no RNG, no SCU state), so modeled cycles and outputs are
bit-identical either way (asserted by ``bench_observability`` and the
observability tests).

The hub owns:

* ``registry`` — the :class:`MetricsRegistry` behind ``pool.metrics()``
  (families pre-declared here so hot paths skip name lookups);
* ``spans`` — the :class:`SpanRecorder` assembling per-request span
  trees (``submit → … → kernel``);
* ``set_sizes`` — one Fig. 9b-style
  :class:`~repro.runtime.trace.SetSizeHistogram` per tenant;
* ``sink`` — an optional periodic :class:`JsonlSink` the pool flushes
  every N ``run()`` calls.

``tenant``/``workload`` form the hub's *current attribution context*:
executors set them when a plan slice starts, so kernel-level feeds
(which know nothing about plans) still label their metrics correctly.
"""

from __future__ import annotations

from collections import Counter

from repro.runtime.trace import SetSizeHistogram
from repro.observability.registry import (
    CYCLE_BUCKETS,
    WALL_BUCKETS,
    MetricsRegistry,
)
from repro.observability.spans import SpanRecorder


class Observability:
    """Shared metrics + spans + per-tenant trace aggregation."""

    def __init__(
        self,
        *,
        max_series: int = 64,
        max_spans: int = 250_000,
        sink=None,
    ):
        self.registry = MetricsRegistry(max_series=max_series)
        self.spans = SpanRecorder(max_spans=max_spans)
        self.set_sizes: dict[str, SetSizeHistogram] = {}
        self.sink = sink
        # Current attribution context (set by plan executors).
        self.tenant = "default"
        self.workload = ""
        reg = self.registry
        # Pre-declared families, bound to attributes so the hot feed
        # paths are one dict update away from the counters.
        self._dispatch = reg.counter(
            "sisa_dispatch_total",
            "SISA instructions dispatched by the SCU",
            ("opcode", "backend"),
        )
        self._fused = reg.counter(
            "fused_macros_total",
            "cross-task fused count-burst macros issued",
            ("tenant",),
        )
        self._burst_cycles = reg.histogram(
            "burst_modeled_cycles",
            "modeled cycles per instrumented instruction burst",
            ("tenant", "workload"),
            buckets=CYCLE_BUCKETS,
        )
        self._run_wall = reg.histogram(
            "plan_wall_seconds",
            "wall-clock seconds per executed plan",
            ("tenant", "workload"),
            buckets=WALL_BUCKETS,
        )
        self._cache = reg.counter(
            "result_cache_events_total",
            "result-cache hits/misses/corruptions/evictions",
            ("event", "workload"),
        )
        self._orientation = reg.counter(
            "orientation_events_total",
            "incremental-orientation maintenance events",
            ("event",),
        )
        self._admission = reg.counter(
            "admission_decisions_total",
            "admission controller decisions",
            ("action", "tenant"),
        )
        self._dedup = reg.counter(
            "plan_dedup_total",
            "sub-requests answered by dedup instead of execution",
            ("tenant", "workload"),
        )
        self._tenant_cycles = reg.counter(
            "tenant_work_cycles_total",
            "modeled work cycles charged to each tenant (pool ledger)",
            ("tenant",),
        )
        self._tenant_retry = reg.counter(
            "tenant_retry_cycles_total",
            "modeled cycles charged to each tenant's retry ledger",
            ("tenant",),
        )
        self._runs = reg.counter(
            "pool_runs_total", "pool.run() calls completed"
        )
        self._plans = reg.counter(
            "plans_total", "plan executions by outcome", ("outcome",)
        )
        self._lane_util = reg.gauge(
            "parallel_lane_utilization",
            "per-lane work share of the last parallel run's makespan",
            ("lane",),
        )
        self._shard_vertices = reg.gauge(
            "parallel_shard_vertices",
            "vertices owned by each shard in the last parallel run",
            ("shard",),
        )
        self._parallel_units = reg.counter(
            "parallel_units_total",
            "count-burst units by execution path (offloaded/inline)",
            ("path",),
        )
        self._parallel_merge = reg.counter(
            "parallel_merge_cycles_total",
            "modeled host merge cycles charged across parallel runs",
        )

    # ------------------------------------------------------------------
    # Attribution context
    # ------------------------------------------------------------------

    def set_context(self, tenant: str, workload: str) -> None:
        self.tenant = tenant
        self.workload = workload

    # ------------------------------------------------------------------
    # SCU dispatch feeds (repro.isa.scu)
    # ------------------------------------------------------------------

    def dispatch(self, opcode, backend: str) -> None:
        self._dispatch.inc((opcode.name, backend))

    def dispatch_batch(self, opcodes, backends) -> None:
        self.dispatch_counts(Counter(zip(opcodes, backends)))

    def dispatch_counts(self, counts) -> None:
        """``{(opcode, backend): n}`` dispatches at once, keys in order
        of first occurrence."""
        inc = self._dispatch.inc
        for (opcode, backend), n in counts.items():
            inc((opcode.name, backend), n)

    def fused_macro(self) -> None:
        self._fused.inc((self.tenant,))

    # ------------------------------------------------------------------
    # Kernel burst feeds (repro.runtime.context)
    # ------------------------------------------------------------------

    def kernel_start(self, kind: str, n: int):
        """Open a kernel-level span for one instruction burst."""
        return self.spans.start(f"kernel:{kind}", {"ops": n})

    def kernel_end(self, span, cycles: float, size_a, sizes_b) -> None:
        """Close a kernel span: exact modeled burst cost on the span,
        the burst into the cycle histogram, and every processed input
        set size into the current tenant's Fig. 9b histogram.
        ``size_a=None`` skips the probe-operand observation (bursts
        with no shared probe operand, e.g. element updates)."""
        self.spans.end(span, cycles=cycles)
        self.burst(cycles, size_a, sizes_b)

    def burst(self, cycles: float, size_a, sizes_b) -> None:
        """One instruction burst's observations without its span (a
        fan-out chunk's kernel span covers several bursts)."""
        self._burst_cycles.observe((self.tenant, self.workload), cycles)
        hist = self.set_sizes.get(self.tenant)
        if hist is None:
            hist = self.set_sizes[self.tenant] = SetSizeHistogram()
        if size_a is not None:
            hist.observe(size_a)
        if sizes_b is not None:
            hist.observe_many(sizes_b)

    # ------------------------------------------------------------------
    # Serving-layer feeds
    # ------------------------------------------------------------------

    def cache_event(self, event: str, workload: str) -> None:
        self._cache.inc((event, workload))

    def orientation_event(self, event: str) -> None:
        self._orientation.inc((event,))

    def admission(self, action: str, tenant: str) -> None:
        self._admission.inc((action, tenant))

    def dedup(self, workload: str) -> None:
        self._dedup.inc((self.tenant, workload))

    def charge(self, tenant: str, cycles: float) -> None:
        """Mirror one pool ledger charge.  The counter accumulates with
        the same float additions in the same order as the pool's
        ``_tenant_cycles`` dict, so the two stay *exactly* equal."""
        self._tenant_cycles.inc((tenant,), cycles)

    def charge_retry(self, tenant: str, cycles: float) -> None:
        self._tenant_retry.inc((tenant,), cycles)

    def plan_done(self, outcome: str) -> None:
        self._plans.inc((outcome,))

    def parallel_run(self, report) -> None:
        """Publish one reconciled parallel run
        (:class:`~repro.parallel.merge.ParallelReport`): lane-
        utilization and shard-balance gauges, offload-path counters,
        the merge-charge counter, and one detached span per lane
        (modeled busy cycles) and per shard (owned vertices)."""
        makespan = report.makespan
        for lane, work in enumerate(report.lane_work):
            self._lane_util.set(
                (str(lane),),
                work / makespan if makespan > 0.0 else 0.0,
            )
        for shard, count in enumerate(report.shard_vertices):
            self._shard_vertices.set((str(shard),), float(count))
        self._parallel_units.inc(("offloaded",), report.offloaded_units)
        self._parallel_units.inc(("inline",), report.inline_units)
        self._parallel_merge.inc((), report.merge_cycles)
        for lane, busy in enumerate(report.lane_busy):
            span = self.spans.start_detached(
                f"parallel:lane:{lane}", None, {"lanes": report.lanes}
            )
            self.spans.end(span, cycles=busy)
        for shard, count in enumerate(report.shard_vertices):
            span = self.spans.start_detached(
                f"parallel:shard:{shard}", None, {"vertices": count}
            )
            self.spans.end(span, cycles=None)

    def run_done(self) -> None:
        self._runs.inc(())

    def plan_wall(self, tenant: str, workload: str, seconds: float) -> None:
        self._run_wall.observe((tenant, workload), seconds)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------

    def metrics(self) -> dict:
        """One JSON-safe snapshot of everything the hub aggregates."""
        return {
            "metrics": self.registry.snapshot(),
            "set_sizes": {
                tenant: hist.as_dict()
                for tenant, hist in sorted(self.set_sizes.items())
            },
            "spans": {
                "recorded": self.spans.count,
                "dropped": self.spans.dropped,
                "max_depth": self.spans.max_depth(),
            },
        }

    def prometheus_text(self) -> str:
        from repro.observability.export import prometheus_text

        return prometheus_text(self.registry)

    def flush_sink(self, health: dict, runs: int) -> bool:
        """Drive the periodic JSONL sink (no-op without one)."""
        if self.sink is None:
            return False
        return self.sink.maybe_write(self.registry, health, runs)
