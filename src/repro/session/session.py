"""SisaSession: the persistent software layer over one graph.

The paper's Fig. 3 software layer is a *persistent* runtime — set
storage, SMB state and representation decisions live across queries.
A :class:`SisaSession` makes the public API match: it owns one
:class:`~repro.runtime.context.SisaContext` for the lifetime of the
graph and lazily builds + caches the expensive derived structures

* the undirected :class:`~repro.runtime.setgraph.SetGraph`,
* the degeneracy order, and
* the degeneracy-oriented ``SetGraph`` (``N+`` sets),

so repeated runs of any workload skip all setup.  Each ``run`` is
bracketed by engine epoch marks (:meth:`SisaContext.mark`), so a warm
session still reports every run's own cycles, instruction stats and
set registrations in a uniform :class:`RunResult`.

Streaming workloads bind a
:class:`~repro.streaming.graph.DynamicSetGraph` to the same context via
:meth:`attach_stream`; snapshot analytics route through the same
:meth:`run` path (``session.run("triangles", view=snap)``).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import ConfigError, SisaError
from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph, orient_by_order
from repro.graphs.orientation import DegeneracyResult, degeneracy_order
from repro.runtime.setgraph import SetGraph
from repro.serving.validation import resolve_execution_config, validate_request
from repro.session.cache import CacheStats, ResultCache
from repro.session.config import ExecutionConfig
from repro.session.registry import WorkloadSpec, get_workload
from repro.session.result import RunResult


class SisaSession:
    """A long-lived workload runner bound to one graph + one machine.

    ::

        session = SisaSession(graph, ExecutionConfig(threads=32))
        cold = session.run("triangles")       # builds orientation + sets
        warm = session.run("triangles")       # reuses everything
        assert warm.output == cold.output

    Configuration can also be given as keyword overrides::

        SisaSession(graph, threads=8, mode="cpu-set")
    """

    def __init__(
        self,
        graph: CSRGraph,
        config: ExecutionConfig | None = None,
        *,
        decision_memo: dict | None = None,
        observability=None,
        **overrides: Any,
    ):
        # ``observability`` accepts a bool (folded into the config) or
        # a shared :class:`~repro.observability.Observability` hub (a
        # SessionPool passes its own, so every session feeds one
        # registry/span recorder).
        if isinstance(observability, bool):
            overrides.setdefault("observability", observability)
            observability = None
        # Override keys are validated by the serving rule engine before
        # any dataclass machinery sees them: a typo'd knob fails with a
        # ConfigError naming the bad key in ``details`` instead of a
        # bare TypeError (one code path shared with SessionPool).
        config = resolve_execution_config(config, overrides)
        self.graph = graph
        self.config = config
        if observability is None and config.observability:
            from repro.observability import Observability

            observability = Observability()
        self.obs = observability
        # ``decision_memo`` lets a SessionPool share one SCU decision
        # table across all sessions with the same machine configuration
        # (memoized values are pure functions of operand shapes and the
        # fixed configs, so sharing is bit-identical; see Scu).
        self.ctx = config.make_context(
            decision_memo=decision_memo, observability=observability
        )
        self.run_count = 0
        self._setgraph: SetGraph | None = None
        self._degeneracy: DegeneracyResult | None = None
        self._degeneracy_version: tuple[int, int] | None = None
        self._digraph: DiGraph | None = None
        self._oriented: SetGraph | None = None
        self._oriented_version: tuple[int, int] | None = None
        self._csr_cache: CSRGraph | None = None
        self._csr_version: tuple[int, int] | None = None
        self._stream = None
        self._orientation_maintainer = None
        self._digraph_key = None
        self._results = ResultCache(maxsize=config.result_cache_size)
        self._results.obs = observability

    # ------------------------------------------------------------------
    # Cached derived structures
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The stream epoch the session's graph state is at (0 when no
        stream is attached)."""
        return self._stream.epoch if self._stream is not None else 0

    @property
    def _version(self) -> tuple[int, int]:
        """Cache key for the stream state: (epoch, mutation count).

        The mutation count invalidates derived caches even for updates
        applied *mid-batch* (before ``finish_batch`` advances the
        epoch), so static runs never mix a stale CSR/orientation with
        the live mutated sets.
        """
        if self._stream is None:
            return (0, 0)
        return self._stream.version

    @property
    def current_graph(self) -> CSRGraph:
        """The CSR view of the current graph state.

        Identical to the construction graph until an attached stream
        mutates it; then it is rebuilt (model-internal, uncharged —
        graph loading is outside the measured region) and cached per
        stream version.
        """
        if self._stream is None or self._version == (0, 0):
            return self.graph
        if self._csr_version != self._version:
            edges = self._stream.edge_array()
            self._csr_cache = CSRGraph.from_edges(
                self._stream.num_vertices, edges
            )
            self._csr_version = self._version
        if self._csr_cache is None:  # pragma: no cover - internal invariant
            raise SisaError(
                "internal error: CSR cache missing after rebuild",
                details={
                    "version": list(self._version),
                    "csr_version": list(self._csr_version),
                },
            )
        return self._csr_cache

    @property
    def setgraph(self) -> SetGraph:
        """The undirected neighborhood SetGraph (built once).

        When a stream is attached it shares set IDs with the
        :class:`DynamicSetGraph`, so it always reflects the live state.
        """
        if self._setgraph is None:
            self._setgraph = SetGraph.from_graph(
                self.graph,
                self.ctx,
                t=self.config.t,
                budget=self.config.budget,
                policy=self.config.policy,
            )
        return self._setgraph

    @property
    def degeneracy(self) -> DegeneracyResult:
        """The degeneracy order of the current graph state (cached per
        stream version; host-side work, charges nothing)."""
        if self._degeneracy is None or self._degeneracy_version != self._version:
            self._degeneracy = degeneracy_order(self.current_graph)
            self._degeneracy_version = self._version
        return self._degeneracy

    def _orientation_is_current(self) -> bool:
        """True when the attached orientation maintainer has fully
        incorporated every stream mutation."""
        maintainer = self._orientation_maintainer
        return (
            maintainer is not None
            and maintainer.synced_mutations == self._stream.mutations
        )

    @property
    def oriented_setgraph(self) -> SetGraph:
        """The degeneracy-oriented ``N+`` SetGraph.

        With an orientation maintainer attached
        (:meth:`maintain_orientation`) the maintained sets are returned
        directly — no re-peel, no rebuild — after any epoch advance
        that streamed through the maintainer hooks; updates applied
        outside the hooks trigger a (charged) maintainer resync.
        Without a maintainer the orientation is rebuilt per stream
        version, as before.
        """
        maintainer = self._orientation_maintainer
        if maintainer is not None:
            if not self._orientation_is_current():
                maintainer.resync()
            self._oriented_version = self._version
            return maintainer.oriented
        if self._oriented is None or self._oriented_version != self._version:
            if self._oriented is not None:
                self._release_setgraph(self._oriented)
            self._digraph = orient_by_order(
                self.current_graph, self.degeneracy.order
            )
            self._oriented = SetGraph.from_digraph(
                self._digraph,
                self.ctx,
                t=self.config.t,
                budget=self.config.budget,
                policy=self.config.policy,
            )
            self._oriented_version = self._version
        return self._oriented

    @property
    def digraph(self) -> DiGraph:
        maintainer = self._orientation_maintainer
        if maintainer is not None:
            self.oriented_setgraph  # ensure synced
            key = (self._version, maintainer.revision)
            if self._digraph is None or self._digraph_key != key:
                self._digraph = maintainer.export_digraph()
                self._digraph_key = key
            return self._digraph
        self.oriented_setgraph  # ensure built
        if self._digraph is None:  # pragma: no cover - internal invariant
            raise SisaError(
                "internal error: orientation built without its DiGraph",
                details={"version": list(self._version)},
            )
        return self._digraph

    def _release_setgraph(self, sg: SetGraph) -> None:
        """Drop a stale derived SetGraph's SM entries.

        Registration was uncharged (graph loading); teardown of a stale
        epoch's orientation is likewise model-internal.
        """
        for sid in sg.set_ids:
            self.ctx.release(sid)

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------

    def attach_stream(self, *, dense_bits: float = 1.0, sparse_bits: float = 0.25):
        """Bind a :class:`DynamicSetGraph` over the session's sets.

        The dynamic view shares set IDs with :attr:`setgraph`, so every
        undirected workload automatically sees the evolving state;
        orientation-based workloads re-orient when the epoch advances.
        Returns the dynamic graph (drive it directly or through a
        :class:`~repro.streaming.engine.StreamingEngine`).
        """
        from repro.streaming.graph import DynamicSetGraph

        if self._stream is not None:
            raise ConfigError("a stream is already attached to this session")
        self._stream = DynamicSetGraph(
            self.setgraph, dense_bits=dense_bits, sparse_bits=sparse_bits
        )
        return self._stream

    @property
    def stream(self):
        """The attached :class:`DynamicSetGraph` (raises if none)."""
        if self._stream is None:
            raise ConfigError(
                "no stream attached; call session.attach_stream() first"
            )
        return self._stream

    def snapshot(self):
        """Capture the attached stream's current epoch as a consistent
        read-only view (copy-on-write)."""
        return self.stream.snapshot()

    def maintain_orientation(self, *, eps: float = 0.5, repair_limit: int = 64):
        """Keep the session's oriented ``N+`` sets warm across stream
        epochs.

        Subscribes an
        :class:`~repro.streaming.orientation.IncrementalOrientation`
        maintainer to the attached stream: every batch applied through
        :meth:`DynamicSetGraph.apply_batch` or a
        :class:`~repro.streaming.engine.StreamingEngine` updates the
        cached orientation in place (orienting new edges by the current
        rank, repairing only on drift past ``(2 + eps) * c``), so
        ``session.run("triangles")`` after an epoch advance reuses the
        maintained orientation instead of re-peeling.  Returns the
        maintainer (its ``stats`` record which batches re-peeled).
        """
        from repro.streaming.orientation import IncrementalOrientation

        stream = self.stream  # raises ConfigError when none attached
        existing = self._orientation_maintainer
        if existing is not None:
            if (existing.eps, existing.repair_limit) != (eps, repair_limit):
                raise ConfigError(
                    "an orientation maintainer with different parameters "
                    f"(eps={existing.eps}, repair_limit="
                    f"{existing.repair_limit}) is already attached"
                )
            return existing
        oriented = self.oriented_setgraph  # build at the current version
        maintainer = IncrementalOrientation(
            stream,
            oriented,
            self.degeneracy,
            eps=eps,
            repair_limit=repair_limit,
        )
        maintainer.obs = self.obs
        stream.subscribe(maintainer)
        self._orientation_maintainer = maintainer
        return maintainer

    @property
    def orientation_maintainer(self):
        """The attached orientation maintainer, or ``None``."""
        return self._orientation_maintainer

    @property
    def orientation_stats(self):
        """The orientation maintainer's
        :class:`~repro.streaming.orientation.OrientationStats` (raises
        when no maintainer is attached)."""
        if self._orientation_maintainer is None:
            raise ConfigError(
                "no orientation maintainer; call "
                "session.maintain_orientation() first"
            )
        return self._orientation_maintainer.stats

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss accounting of the session's result cache."""
        return self._results.stats

    def invalidate_results(self, workload: str | None = None) -> int:
        """Explicitly drop cached results (all of them, or one
        workload's).  Returns the number of entries dropped.  Stream
        mutations invalidate implicitly — the stream version is part of
        every cache key — so this is only needed when state *outside*
        the session changed (e.g. a parameter object was mutated in
        place).

        Per-workload invalidation also drops the sub-request entries
        the workload's plan stages may seed from (declared on
        ``WorkloadSpec.subrequests``, e.g. the triangle count inside
        ``clustering_coefficient``) — otherwise a fused re-run would
        quietly rebuild the "invalidated" result from a cached piece of
        it."""
        if workload is None:
            return self._results.invalidate(None)
        names = {workload}
        try:
            names.update(get_workload(workload).subrequests)
        except ConfigError:
            pass  # unregistered name: drop its own entries only
        return sum(self._results.invalidate(name) for name in names)

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------

    def _is_warm(self, spec: WorkloadSpec, view, params: dict) -> bool:
        if view is not None:
            return self.run_count > 0
        requires = spec.requires_for(params)
        undirected_ready = self._setgraph is not None
        oriented_ready = (
            self._oriented is not None and self._oriented_version == self._version
        ) or self._orientation_is_current()
        if requires == "undirected":
            return undirected_ready
        if requires == "oriented":
            return oriented_ready
        if requires == "both":
            return undirected_ready and oriented_ready
        return self.run_count > 0  # "none"

    def compile(self, workload: str, **params: Any):
        """Compile a registered workload into a
        :class:`~repro.session.plan.WorkloadPlan`.

        Compilation is declarative — no instructions issue and no
        cached structure is built — and pins the session's current
        stream version; executing a stale plan raises
        :class:`~repro.errors.SisaError`.  Plans are the unit the
        batch executors schedule: ``session.run_many([...])`` over one
        graph, :meth:`~repro.session.pool.SessionPool.submit` across
        graphs.
        """
        from repro.session.plan import compile_plan

        return compile_plan(self, workload, params)

    def run_many(
        self,
        plans,
        *,
        fuse: bool = True,
        isolate: bool = False,
        fault_injector=None,
        verify: bool = False,
    ) -> list[RunResult]:
        """Execute a batch of plans and return their
        :class:`RunResult`\\ s in batch order.

        Items may be :class:`WorkloadPlan` objects (from
        :meth:`compile`), workload names, or ``(name, params)`` pairs
        (compiled on the spot).  With ``fuse=True`` the executor shares
        prep once per graph, dedups identical sub-requests through the
        result cache before any instruction issues, and fuses
        compatible count-form frontier bursts from different plans into
        shared macro dispatches; with ``fuse=False`` the batch executes
        plan by plan, bit-identical to sequential :meth:`run` calls.

        ``isolate=True`` gives each plan its own blast radius: a plan
        that raises yields a structured
        :class:`~repro.session.result.FailedResult` in its slot instead
        of aborting the batch (no retries — that is the
        :class:`~repro.session.pool.SessionPool`'s job).
        ``fault_injector`` threads a serving
        :class:`~repro.serving.faults.FaultInjector` into the executor
        for soak testing.  ``verify=True`` statically certifies the
        batch hazard-free (:func:`repro.analysis.static.analyze_batch`)
        before anything executes, raising
        :class:`~repro.errors.HazardError` on failure.
        """
        from repro.session.plan import PlanExecutor, WorkloadPlan

        compiled = []
        for item in plans:
            if isinstance(item, WorkloadPlan):
                compiled.append(item)
            elif isinstance(item, str):
                compiled.append(self.compile(item))
            else:
                name, params = item
                compiled.append(self.compile(name, **params))
        executor = PlanExecutor(
            self,
            fuse=fuse,
            fault_injector=fault_injector,
            verify=verify,
        )
        if isolate:
            return executor.execute_isolated(compiled)
        return executor.execute(compiled)

    def run(
        self,
        workload: str | Callable[..., Any],
        *args: Any,
        view=None,
        **params: Any,
    ) -> RunResult:
        """Execute a workload and return its :class:`RunResult`.

        ``workload`` is a registered name (see
        :func:`~repro.session.registry.available_workloads`) or a
        kernel-style callable ``fn(graph, ctx, setgraph, *args,
        **params)`` run against the undirected SetGraph.

        ``view`` routes a view-capable workload against a
        :class:`GraphSnapshot` (or the live :class:`DynamicSetGraph`)
        instead of the session's static structures.

        Registered static runs are a one-plan wrapper over the plan
        API: the workload is compiled and handed to a fusion-disabled
        :class:`~repro.session.plan.PlanExecutor`, whose sequential
        mode reproduces the eager instruction stream bit for bit — so
        the PR 3 surface (outputs, cycles, stats, caching) is
        unchanged.  View runs and ad-hoc callables bypass planning.
        """
        if view is not None:
            from repro.streaming.graph import ensure_live_view

            ensure_live_view(view)
        if callable(workload):
            if view is not None:
                raise ConfigError("view runs require a registered workload")
            name = getattr(workload, "__name__", repr(workload))
            warm = self._setgraph is not None
            mark = self.ctx.mark()
            output = workload(
                self.current_graph, self.ctx, self.setgraph, *args, **params
            )
        else:
            if args:
                raise ConfigError(
                    "registered workloads take keyword parameters only"
                )
            if view is None:
                from repro.session.plan import PlanExecutor, compile_plan

                plan = compile_plan(self, workload, params)
                (result,) = PlanExecutor(self, fuse=False).execute([plan])
                return result
            # View runs bypass planning but not the door: the same rule
            # engine that guards compile_plan validates the name,
            # signature and parameter domains here.
            spec = validate_request(self, workload, params)
            name = spec.name
            if not spec.view_capable:
                raise ConfigError(
                    f"workload {name!r} cannot run against a view"
                )
            warm = self._is_warm(spec, view, params)
            mark = self.ctx.mark()
            output = spec.fn(self, view=view, **params)
        result = RunResult(
            workload=name,
            output=output,
            report=self.ctx.report_since(mark),
            stats=self.ctx.stats_since(mark),
            registrations=self.ctx.registrations_since(mark),
            config=self.config,
            params=dict(params),
            warm=warm,
            session=self,
        )
        self.run_count += 1
        return result

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SisaSession(n={self.graph.num_vertices}, "
            f"mode={self.config.mode!r}, threads={self.config.threads}, "
            f"runs={self.run_count}, epoch={self.epoch})"
        )


def run_workload(
    graph: CSRGraph,
    workload: str,
    *,
    config: ExecutionConfig | None = None,
    view=None,
    **params: Any,
) -> RunResult:
    """One-shot convenience: build a cold session and run one workload.

    Exists for scripts that genuinely run a single query; anything that
    issues repeated queries over the same graph should hold a
    :class:`SisaSession` instead.
    """
    return SisaSession(graph, config).run(workload, view=view, **params)
