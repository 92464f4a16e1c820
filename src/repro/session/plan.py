"""Compiled workload plans and the cross-plan fusing executor.

``session.run`` used to execute each workload eagerly and in
isolation; nothing in the API could see that a *batch* of queries was
about to run.  The plan/execute split introduces that visibility:

* :meth:`SisaSession.compile` returns a :class:`WorkloadPlan` — a
  declarative sequence of :class:`PlanStage` records naming the cached
  structures the workload reads (undirected SetGraph, orientation,
  degeneracy order) and, for the count-form workloads, exposing the
  per-task frontier bursts as schedulable :class:`BurstUnit` streams.
  A plan pins the session's stream version at compile time and fails
  fast (:class:`~repro.errors.SisaError`) if the stream drifted before
  execution.
* :class:`PlanExecutor` runs a batch of plans over one session.  With
  ``fuse=False`` it executes the plans strictly in order, issuing an
  instruction stream bit-identical to sequential ``session.run`` calls
  (outputs, simulated cycles, dispatch stats — asserted in tests and
  benchmarks).  With ``fuse=True`` it steps the plans round-robin
  through one step loop and additionally

  - shares prep once per graph (the first plan needing a cached
    structure builds it; all others find it built),
  - dedups identical sub-requests through the session's epoch-keyed
    result cache *before any instruction issues* (a plan or plan stage
    whose ``(workload, params, version)`` key another plan in the
    batch owns simply waits and reuses the value), and
  - fuses compatible count-form frontier bursts from *different* plans
    into shared macro dispatches of at most :data:`FUSE_WIDTH` bursts —
    the first crossing of the ``begin_task`` boundary.

  Given a certified schedule, the executor replays the batch node by
  node in the schedule's order on the same step loop, with burst fusion
  off; a node runs to completion, so a neighbourhood fan-out stage
  (:class:`Fanout`) is one chunked
  :meth:`~repro.runtime.context.SisaContext.fanout_counts` program.

Fusion lane-placement rule (the explicit contract the ROADMAP's
"cross-task batching" item asked for): every constituent burst still
opens its own task when the executor reaches it and its per-op model
costs land on that task's lane, exactly as unfused; what the macro
elides is the per-op SCU decode and the per-op probe-metadata fetch —
the macro decode is charged once, to the lane (and tenant) of the
macro's first constituent, and each constituent's probe lookup once, to
its own lane.  A macro's constituents are issued in buffer order: each
run of consecutive neighbourhood fan-out tasks
(:class:`FanoutStep`) as one
:meth:`~repro.runtime.context.SisaContext.fused_fanout` call over the
stages' chunked :class:`~repro.runtime.context.FanoutProgram` objects, every
other burst (:class:`BurstUnit`) through
:meth:`~repro.runtime.context.SisaContext.count_burst`.  Burst
fusion is an SCU capability: on the ``cpu-set`` host baseline the
executor falls back to the unfused batched stream (prep sharing and
dedup still apply), issuing each fan-out task's burst in place as soon
as the task opens.

Per-plan accounting under fusion uses the engine's per-tenant marks
(:meth:`~repro.hw.engine.ExecutionEngine.set_tenant`): every execution
slice is attributed to its owning plan, so each
:class:`~repro.session.result.RunResult` still reports its own cycles,
instruction stats and registrations even though the instruction
streams interleave.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from repro.errors import (
    ConfigError,
    HazardError,
    InjectedFault,
    ReproError,
    SisaError,
)
from repro.runtime.context import FanoutProgram
from repro.serving.validation import validate_request
from repro.session.cache import canonical_param, isolate_output
from repro.session.registry import WorkloadSpec
from repro.session.result import FailedResult, RunResult

#: The most bursts one fused macro carries (the fusion buffer bound).
FUSE_WIDTH = 8


@dataclass
class BurstUnit:
    """One schedulable count-form frontier burst (one task's worth).

    Produced lazily by a burst stage's generator, which has already
    opened the unit's task (``lane``) and paid any charged pre-work
    (e.g. the neighborhood iterator).  The executor runs the burst
    through :meth:`~repro.runtime.context.SisaContext.count_burst`,
    unfused or as a fused-macro constituent, and hands the counts to
    ``sink``, which performs the remaining charged work of the task
    (e.g. cardinality fetches) and folds the counts into the stage
    state.  Burst stages without a :class:`Fanout`
    (``similarity_pairs``) run as units on every path; a fan-out
    stage's units (:meth:`Fanout.units`) are its per-burst reference,
    which the dynamic effect checker walks and the tests compare every
    execution form against.
    """

    a: int
    bs: list
    kind: str  # "intersect" or "union"
    lane: int
    sink: Callable[[np.ndarray], None]
    # Effect tokens the sink writes (``state:<slot>`` namespace; see
    # repro.analysis.static.effects).  The static verifier unions these
    # with the owning stage's declared writes; the dynamic checker uses
    # them to know which slots a deferred sink may legally touch.
    writes: tuple[str, ...] = ()


class FanoutStep(NamedTuple):
    """One task of a :class:`Fanout` stage under fused execution, opened
    (``begin_task`` and the charged scan of ``N(v)``) on ``lane``; its
    burst is issued when the executor flushes the macro, and ``sink(v,
    s)`` folds the burst sum ``s`` into the stage state."""

    program: FanoutProgram
    v: int
    lane: int
    sink: Callable[[int, Any], None]
    kind: str = "intersect"


@dataclass(frozen=True)
class Fanout:
    """A burst stage's neighbourhood fan-out, declared once.

    For every vertex ``v`` of the session's ``structure`` SetGraph
    (``"oriented"`` or ``"undirected"``), in order: one task that scans
    ``N(v)`` and issues the count burst ``N(v) ∩ N(u)`` for every
    ``u ∈ N(v)``.  ``init(state, n)`` installs the stage's empty value
    in ``state[slot]``; ``fold(state, v, s)`` folds the burst sums ``s``
    (NumPy integers) of vertices ``v`` into it.

    Every execution form derives from this one declaration and issues
    the same instruction stream.  :meth:`run` executes the whole stage
    as one :meth:`~repro.runtime.context.SisaContext.fanout_counts`
    program and folds every vertex at once (``v``/``s`` aligned
    arrays), for sequential execution and scheduled replay (whose
    parallel form passes the program a count provider).  :meth:`steps`
    opens the tasks one by one for the round-robin step loop, which
    issues their bursts over the same chunked program, macro by macro
    when fused and in place on the ``cpu-set`` fallback.  :meth:`units`
    yields one :class:`BurstUnit` per non-empty neighbourhood: the
    per-burst reference form.  The last two fold one vertex at a time
    (``v``/``s`` scalars).
    """

    structure: str
    slot: str
    init: Callable[[dict, int], None]
    fold: Callable[[dict, Any, Any], None]

    def setgraph(self, session):
        if self.structure == "oriented":
            return session.oriented_setgraph
        return session.setgraph

    def run(self, session, state: dict, *, provider=None) -> None:
        sums = session.ctx.fanout_counts(
            self.setgraph(session).set_ids, provider=provider
        )
        self.init(state, sums.size)
        self.fold(state, np.arange(sums.size), sums)

    def steps(self, session, state: dict) -> Iterator[FanoutStep]:
        ctx = session.ctx
        program = FanoutProgram(ctx.sm, self.setgraph(session).set_ids)
        fold = self.fold
        self.init(state, program.size)

        def sink(v, s):
            fold(state, v, s)

        for v, lane in ctx.fanout_tasks(program):
            yield FanoutStep(program, v, lane, sink)

    def units(self, session, state: dict) -> Iterator[BurstUnit]:
        ids = self.setgraph(session).set_ids
        ctx = session.ctx
        fold = self.fold
        writes = (f"state:{self.slot}",)
        self.init(state, len(ids))
        for v, a in enumerate(ids):
            lane = ctx.begin_task()
            nbrs = ctx.elements(a)
            if nbrs.size:

                def sink(counts, *, _v=v):
                    fold(state, _v, counts.sum())

                yield BurstUnit(
                    a=a,
                    bs=[ids[u] for u in nbrs.tolist()],
                    kind="intersect",
                    lane=lane,
                    sink=sink,
                    writes=writes,
                )


def fanout_stage(label: str, key: tuple | None, fanout: Fanout) -> "PlanStage":
    """The burst stage that executes ``fanout`` and yields
    ``state[fanout.slot]``: it reads the fan-out's SetGraph, writes (or,
    when deduped, seeds) the slot, and runs as one chunked program on
    every path (see :class:`Fanout`)."""
    slot = fanout.slot
    return PlanStage(
        kind="bursts",
        label=label,
        reads=(fanout.structure,),
        key=key,
        units=fanout.units,
        result=lambda state: state[slot],
        seed=lambda state, value: state.__setitem__(slot, value),
        writes=(f"state:{slot}",),
        seeds=(f"state:{slot}",),
        fanout=fanout,
    )


@dataclass
class PlanStage:
    """One declarative step of a compiled plan.

    ``kind="call"`` stages run ``run(session, state)`` as one opaque
    slice (prep builds, finalization math, non-decomposable kernels).
    ``kind="bursts"`` stages expose their work as a :class:`BurstUnit`
    generator; ``result(state)`` extracts the stage value once every
    unit's sink has run, and ``seed(state, value)`` installs a deduped
    value instead of executing (``key`` names the sub-request the stage
    computes — shared between plans, e.g. the triangle count inside
    ``clustering_coefficient``).

    Burst-generator contract: producing a unit may open its task and
    charge engine costs (``begin_task``, the neighborhood iterator) but
    must not dispatch SISA instructions or register sets — those belong
    in the burst itself and its ``sink``, whose execution the fused
    scheduler defers (generation may run ahead of earlier units'
    sinks, so it must not depend on their effects either).

    Effect declarations (``reads``/``writes``/``seeds``) use the token
    vocabulary of :mod:`repro.analysis.static.effects` — ``struct:``,
    ``state:``, ``sets:`` namespaces, with bare structure names like
    ``"oriented"`` accepted and expanded.  ``writes`` is what executing
    the stage mutates; ``seeds`` is the (``state:``) slots its ``seed``
    hook installs when the stage is deduped instead of executed — the
    verifier certifies the two can never diverge.
    """

    kind: str
    label: str
    reads: tuple[str, ...] = ()  # cached structures the stage touches
    key: tuple | None = None  # (workload, canonical params); version appended
    run: Callable[[Any, dict], Any] | None = None
    units: Callable[[Any, dict], Iterator[BurstUnit]] | None = None
    result: Callable[[dict], Any] | None = None
    seed: Callable[[dict, Any], None] | None = None
    writes: tuple[str, ...] = ()  # effect tokens executing the stage mutates
    seeds: tuple[str, ...] = ()  # state slots the seed hook installs
    # A whole-graph fan-out every executor runs as a chunked program
    # (``units`` then derives from it; see fanout_stage).
    fanout: Fanout | None = None


def subrequest_key(name: str, params: dict) -> tuple | None:
    """The version-less dedup key of a sub-request (``None`` when the
    parameters cannot be canonicalized safely)."""
    canon = canonical_param(params)
    if canon is None:
        return None
    return (name, canon)


class WorkloadPlan:
    """A compiled, executable description of one workload run.

    Compilation is declarative — no instructions issue, no structures
    build — and pins the session's stream version: executing a plan
    after the stream advanced raises :class:`SisaError` (recompile at
    the new version instead of silently mixing epochs).
    """

    def __init__(
        self,
        session,
        spec: WorkloadSpec,
        params: dict,
        stages: list[PlanStage],
        *,
        tenant: str | None = None,
    ):
        self.session = session
        self.spec = spec
        self.name = spec.name
        self.params = params
        # Cache/dedup keys use the spec-normalized parameters, so every
        # spelling of the same request — eager run, plan, or another
        # plan's sub-request — shares one key.
        self.cache_params = (
            spec.normalize(session, params) if spec.normalize else params
        )
        self.stages = stages
        self.version = session._version
        self.requires = spec.requires_for(params)
        self.tenant = tenant
        self.fusable = any(stage.kind == "bursts" for stage in stages)

    @property
    def stale(self) -> bool:
        """True when the session's stream advanced past the pinned
        version."""
        return self.session._version != self.version

    def check_version(self) -> None:
        if self.stale:
            raise SisaError(
                f"plan for {self.name!r} was compiled at stream version "
                f"{self.version} but the session is at "
                f"{self.session._version}; recompile the plan"
            )

    def describe(self) -> list[str]:
        """The stage labels, in execution order (for logging/tests)."""
        return [stage.label for stage in self.stages]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"WorkloadPlan({self.name!r}, stages={self.describe()}, "
            f"version={self.version}, requires={self.requires!r})"
        )


def failure_reason(plan: WorkloadPlan, exc: BaseException) -> str:
    """The stable :class:`FailedResult` reason tag for one execution
    failure."""
    if isinstance(exc, InjectedFault):
        return "fault"
    if isinstance(exc, SisaError) and plan.stale:
        return "drift"
    return "error"


def compile_plan(
    session, workload: str, params: dict, *, tenant: str | None = None
) -> WorkloadPlan:
    """Compile one registered workload into a :class:`WorkloadPlan`."""
    if not isinstance(workload, str):
        raise ConfigError("plans compile registered workloads by name")
    if "view" in params:
        raise ConfigError(
            "view runs are not plannable; use session.run(..., view=...)"
        )
    obs = getattr(session, "obs", None)
    rec = obs.spans if obs is not None else None
    cspan = (
        rec.start(
            "compile",
            {"workload": str(workload), "tenant": tenant or "default"},
        )
        if rec is not None
        else None
    )
    try:
        return _compile(session, workload, params, tenant=tenant, rec=rec)
    finally:
        if rec is not None:
            rec.end(cspan)


def _compile(session, workload, params, *, tenant, rec):
    # A decomposed plan never calls spec.fn, so a misspelled parameter
    # the eager path would have rejected with TypeError must be caught
    # here — silently ignoring it would return a wrong result (e.g. a
    # typo'd ``measur=`` scoring the default measure).  The serving
    # rule engine is the single door: name, signature and domain rules
    # all run here (and on the eager paths) before any plan exists.
    vspan = rec.start("validate") if rec is not None else None
    spec = validate_request(session, workload, params)
    if rec is not None:
        rec.end(vspan)
    stages = spec.stages(session, dict(params)) if spec.stages else None
    if stages is None:
        # Opaque fallback: the whole kernel runs as one call stage —
        # not burst-fusable, but still schedulable and whole-plan
        # dedupable.
        def run(sess, state, *, _spec=spec, _params=params):
            return _spec.fn(sess, **_params)

        stages = [
            PlanStage(
                kind="call",
                label=f"run:{spec.name}",
                # The opaque kernel's effects come from the spec's
                # registration-time declaration: what structures it
                # reads plus any extra domains (e.g. sets:scratch for
                # kernels that register/release their own sets).
                reads=(spec.requires_for(params),) + tuple(spec.effect_reads),
                writes=tuple(spec.effect_writes),
                run=run,
            )
        ]
    return WorkloadPlan(session, spec, dict(params), stages, tenant=tenant)


class _PlanRun:
    """Execution-time state of one plan inside a fused batch."""

    def __init__(self, plan: WorkloadPlan, tag: object):
        self.plan = plan
        self.tag = tag
        self.state: dict = {}
        self.stage_idx = 0
        self.value: Any = None
        self.started = False
        self.finished = False
        self.warm = False
        self.cached = False
        self.output: Any = None
        self.cache_key: tuple | None = None
        self.gen: Iterator[BurstUnit | FanoutStep] | None = None
        self.stats = None  # DispatchStats accumulator (set on start)
        self.registrations = 0
        # Observability (None when disabled): the plan's detached span,
        # the currently-open stage span, and the tenant-work reading at
        # the stage's start (for the stage span's cycle delta).
        self.span = None
        self.stage_span = None
        self.stage_w0 = 0.0


class PlanExecutor:
    """Executes a batch of compiled plans over one session.

    ``fuse=False`` is the reference mode: plans run strictly in batch
    order and each :class:`RunResult` is bit-identical to the one a
    sequential ``session.run`` call would have produced (``session.run``
    itself is a one-plan wrapper over this mode).  ``fuse=True`` enables
    shared prep, result-cache sub-request dedup and cross-plan burst
    fusion; one fused macro carries at most :data:`FUSE_WIDTH` buffered
    bursts.  With a ``schedule`` the batch replays node by node on the
    same step loop (:meth:`_advance`), bursts unfused and each fan-out
    stage one chunked program (:meth:`_fanout`).
    """

    def __init__(
        self,
        session,
        *,
        fuse: bool = True,
        fault_injector=None,
        verify: bool = False,
        schedule=None,
        access_log=None,
    ):
        if access_log is not None and schedule is None:
            raise ConfigError(
                "an access_log needs a schedule to attribute accesses to"
            )
        self.session = session
        self.fuse = fuse
        # verify=True runs the static hazard verifier over every batch
        # before execution and raises HazardError on certification
        # failure; the report is kept on ``last_analysis`` either way.
        self.verify = verify
        self.last_analysis = None
        # A CertifiedSchedule (repro.analysis.static.schedule): execute
        # the batch in the schedule's explicit topological node order —
        # the replay mode the certifier's bit-identity guarantee is
        # proven against.  Turns burst fusion off (node isolation is the
        # point; whole-plan and stage-key dedup still apply, driven by
        # the schedule's dedup edges).  With an AccessLog
        # (repro.analysis.static.racecheck) every node's execution is
        # bracketed so shared-structure hooks attribute to it.
        self.schedule = schedule
        self.access_log = access_log
        # A serving FaultInjector (soak testing): its on_stage hook may
        # raise InjectedFault at any stage boundary.
        self.fault_injector = fault_injector
        # Burst fusion needs the SCU; the host baseline executes the
        # unfused batched stream (dedup/prep sharing still apply).
        self._fuse_bursts = (
            fuse and schedule is None and session.ctx.mode == "sisa"
        )
        self._done: dict[tuple, Any] = {}
        self._owners: dict[tuple, _PlanRun] = {}

    def _inject(self, plan: WorkloadPlan, stage_label: str) -> None:
        """Give the fault injector a shot at this stage boundary.

        Whatever the injector raises *is* an injected fault: foreign
        exception types (soak scripts simulating, say, a kernel
        ``RuntimeError``) are wrapped into
        :class:`~repro.errors.InjectedFault` here so the retry and
        isolation machinery — which deliberately handles only the
        package's own failure taxonomy — treats them as the transients
        they simulate, while a genuine bug in executing code still
        propagates."""
        if self.fault_injector is None:
            return
        try:
            self.fault_injector.on_stage(plan, stage_label)
        except ReproError:
            raise
        except Exception as exc:  # repolint: disable=overbroad-except -- injector raises are faults by definition
            raise InjectedFault(
                f"fault injector raised {type(exc).__name__} at stage "
                f"{stage_label!r}",
                details={"workload": plan.name, "stage": stage_label},
            ) from exc

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, plans: list[WorkloadPlan]) -> list[RunResult]:
        session = self.session
        for plan in plans:
            if plan.session is not session:
                raise ConfigError(
                    "plan belongs to a different session; route cross-graph "
                    "batches through a SessionPool"
                )
            plan.check_version()
        if self.verify:
            # Deferred import: the analysis package is optional at
            # execution time and imports nothing from the hot path.
            from repro.analysis.static.verifier import analyze_batch

            report = analyze_batch(plans)
            self.last_analysis = report
            if not report.certified:
                raise HazardError(
                    f"plan batch failed static verification: "
                    f"{report.summary()}",
                    details=report.as_dict(),
                )
        if self.schedule is not None:
            if not self.schedule.matches(plans):
                raise ConfigError(
                    "the certified schedule was built for a different plan "
                    "batch (workloads or stage lists differ); re-certify"
                )
            return self._execute_batch(
                plans, self._execute_scheduled, scheduled=True
            )
        if not self.fuse:
            return [self._execute_sequential(plan) for plan in plans]
        return self._execute_batch(plans, self._execute_fused, fused=True)

    def execute_isolated(
        self, plans: list[WorkloadPlan]
    ) -> list[RunResult | FailedResult]:
        """Execute each plan in its own blast radius: a plan that
        raises yields a structured :class:`FailedResult` in its slot
        instead of aborting the batch.  No retries here — bounded retry
        with cycle accounting is the :class:`SessionPool`'s job; this
        is the session-level primitive underneath it.  Isolation costs
        fusion *across* plans (each plan runs through its own
        sub-executor), but in-plan dedup against the shared result
        cache still applies."""
        results: list[RunResult | FailedResult] = []
        for plan in plans:
            sub = PlanExecutor(
                self.session,
                fuse=self.fuse,
                fault_injector=self.fault_injector,
                verify=self.verify,
            )
            try:
                results.append(sub.execute([plan])[0])
            except ReproError as exc:
                # Only the package's own failure taxonomy converts to a
                # structured FailedResult (injected faults, drift,
                # validation); anything else is a bug and propagates.
                results.append(
                    FailedResult(
                        workload=plan.name,
                        params=dict(plan.params),
                        tenant=plan.tenant,
                        reason=failure_reason(plan, exc),
                        error=exc,
                        attempts=1,
                    )
                )
        return results

    # ------------------------------------------------------------------
    # Sequential (reference) mode
    # ------------------------------------------------------------------

    def _execute_sequential(self, plan: WorkloadPlan) -> RunResult:
        """Run one plan exactly as the eager ``session.run`` did:
        result-cache consult, warm probe, one engine mark bracketing
        the stage stream (which reproduces the eager instruction stream
        op for op).  Observability hooks (``obs``/``rec``) are nullable
        and observation-only: they read the engine, never charge it."""
        session = self.session
        ctx = session.ctx
        obs = getattr(session, "obs", None)
        rec = obs.spans if obs is not None else None
        tenant = plan.tenant or "default"
        if obs is not None:
            obs.set_context(tenant, plan.name)
        pspan = (
            rec.start(
                f"plan:{plan.name}",
                {"tenant": tenant, "version": str(plan.version)},
            )
            if rec is not None
            else None
        )
        try:
            cache_key = None
            if session.config.result_cache:
                lspan = rec.start("cache:lookup") if rec is not None else None
                cache_key = session._results.make_key(
                    plan.name, plan.cache_params, plan.version
                )
                hit = (
                    session._results.get(cache_key)
                    if cache_key is not None
                    else None
                )
                if rec is not None:
                    rec.end(lspan)
                if hit is not None:
                    mark = ctx.mark()
                    session.run_count += 1
                    result = RunResult(
                        workload=plan.name,
                        output=hit[0],
                        report=ctx.report_since(mark),
                        stats=ctx.stats_since(mark),
                        registrations=0,
                        config=session.config,
                        params=dict(plan.params),
                        warm=True,
                        session=session,
                        cached=True,
                    )
                    if rec is not None:
                        rec.end(pspan, cycles=0.0)
                        result.spans = pspan
                        obs.plan_wall(tenant, plan.name, pspan.wall_seconds)
                        obs.plan_done("cached")
                    return result
            warm = session._is_warm(plan.spec, None, plan.params)
            mark = ctx.mark()
            state: dict = {}
            value: Any = None
            for stage in plan.stages:
                self._inject(plan, stage.label)
                if rec is not None:
                    sspan = rec.start(f"stage:{stage.label}")
                    w0 = ctx.engine.work_cycles()
                if stage.kind == "call":
                    value = stage.run(session, state)
                elif stage.fanout is not None:
                    stage.fanout.run(session, state)
                    value = stage.result(state)
                else:
                    for unit in stage.units(session, state):
                        unit.sink(self._counts(unit))
                    value = stage.result(state)
                if rec is not None:
                    rec.end(sspan, cycles=ctx.engine.work_cycles() - w0)
            report = ctx.report_since(mark)
            result = RunResult(
                workload=plan.name,
                output=value,
                report=report,
                stats=ctx.stats_since(mark),
                registrations=ctx.registrations_since(mark),
                config=session.config,
                params=dict(plan.params),
                warm=warm,
                session=session,
            )
            if cache_key is not None:
                session._results.put(cache_key, value)
            session.run_count += 1
            if rec is not None:
                rec.end(pspan, cycles=report.work_cycles)
                result.spans = pspan
                obs.plan_wall(tenant, plan.name, pspan.wall_seconds)
                obs.plan_done("ok")
            return result
        except BaseException:
            # End the plan span (popping any abandoned inner spans) so
            # a faulted plan cannot wedge the recorder's stack.
            if rec is not None and pspan.t1 is None:
                rec.end(pspan)
            raise

    # ------------------------------------------------------------------
    # Fused mode
    # ------------------------------------------------------------------

    @contextmanager
    def _slice(self, run: _PlanRun):
        """Attribute one execution slice (charges, stats, set
        registrations) to ``run``'s plan.

        With observability on, the slice also switches the hub's
        tenant/workload context and re-enters the run's open span, so
        kernel-level feeds issued during the slice label and nest under
        the owning plan even when slices of different plans interleave
        (``_flush`` executing deferred units of another run)."""
        ctx = self.session.ctx
        obs = getattr(self.session, "obs", None)
        span = None
        if obs is not None:
            obs.set_context(run.plan.tenant or "default", run.plan.name)
            span = run.stage_span or run.span
            if span is not None:
                obs.spans.enter(span)
        ctx.engine.set_tenant(run.tag)
        stats_mark = ctx.scu.stats.snapshot()
        reg_mark = ctx.sm.registrations
        try:
            yield
        finally:
            ctx.engine.set_tenant(None)
            run.stats.add(ctx.scu.stats.since(stats_mark))
            run.registrations += ctx.sm.registrations - reg_mark
            if span is not None:
                obs.spans.exit(span)

    @contextmanager
    def _attribute(self, run: _PlanRun):
        """Cycle-only attribution for slices that cannot dispatch SISA
        instructions: the generator pulls that open a burst's task
        (``begin_task`` and the neighborhood scan charge the engine but
        record no stats and register no sets), which need no stats
        snapshot."""
        engine = self.session.ctx.engine
        engine.set_tenant(run.tag)
        try:
            yield
        finally:
            engine.set_tenant(None)

    def _execute_batch(
        self,
        plans: list[WorkloadPlan],
        drive: Callable[[list[_PlanRun]], None],
        **mode: bool,
    ) -> list[RunResult]:
        """Set up one :class:`_PlanRun` per plan, let ``drive`` execute
        them, and build each plan's :class:`RunResult` from its tenant
        marks; ``mode`` is the result's mode flag (``fused=True`` or
        ``scheduled=True``)."""
        from repro.isa.scu import DispatchStats

        session = self.session
        engine = session.ctx.engine
        obs = getattr(session, "obs", None)
        rec = obs.spans if obs is not None else None
        # Interleaved plans get detached spans under whatever span is
        # current at batch entry (a pool's session span, usually); the
        # recorder re-enters them slice by slice via _slice.
        self._span_parent = rec.current if rec is not None else None
        runs = []
        for i, plan in enumerate(plans):
            run = _PlanRun(plan, ("plan", i, plan.name))
            run.stats = DispatchStats()
            runs.append(run)
        try:
            drive(runs)
        except BaseException:
            # A failed batch must not leak per-plan shadow lanes into
            # the long-lived engine (pool callers retry batches).
            for run in runs:
                engine.drop_tenant(run.tag)
            raise
        results = []
        for run in runs:
            report = engine.tenant_report(run.tag)
            engine.drop_tenant(run.tag)
            result = RunResult(
                workload=run.plan.name,
                output=run.output,
                report=report,
                stats=run.stats,
                registrations=run.registrations,
                config=session.config,
                params=dict(run.plan.params),
                warm=run.warm,
                session=session,
                cached=run.cached,
                **mode,
            )
            if rec is not None and run.span is not None:
                if run.span.t1 is None:
                    # The plan span's cycles are the engine's attributed
                    # tenant work — the exact quantity the pool charges
                    # to this plan's tenant ledger.
                    rec.end(run.span, cycles=report.work_cycles)
                result.spans = run.span
                obs.plan_wall(
                    run.plan.tenant or "default",
                    run.plan.name,
                    run.span.wall_seconds,
                )
                obs.plan_done("cached" if run.cached else "ok")
            results.append(result)
            session.run_count += 1
        return results

    def _execute_fused(self, runs: list[_PlanRun]) -> None:
        """Step every run round-robin until all finish, fusing buffered
        bursts into macros."""
        buffer: list[tuple[BurstUnit | FanoutStep, _PlanRun]] = []
        pending = list(runs)
        while pending:
            progressed = False
            still = []
            for run in pending:
                progressed |= self._advance(run, buffer)
                if not run.finished:
                    still.append(run)
            pending = still
            if pending and not progressed:
                # Every remaining run waits on a key whose owner sits
                # in the buffer: drain it so owners can publish.
                if buffer:
                    self._flush(buffer)
                else:  # pragma: no cover - ownership chains are acyclic
                    raise SisaError("plan batch deadlocked on dedup keys")
        self._flush(buffer)

    # ------------------------------------------------------------------
    # Scheduled (certified-replay) mode
    # ------------------------------------------------------------------

    def _execute_scheduled(self, runs: list[_PlanRun]) -> None:
        """Execute the batch in the certified schedule's explicit node
        order.

        Each ``(plan, stage)`` node runs to completion on the fused
        mode's step loop (:meth:`_step_node`), in exactly the order
        ``schedule.order`` dictates — the dependency DAG's dedup edges
        guarantee every cache-key owner publishes before a follower
        starts, so any topological order is output-identical (the
        certifier's core claim, property-tested).  Bursts execute
        unfused (node isolation is the point of a replay); whole-plan
        and stage-key dedup still apply.  Each node's attributed
        tenant-work delta is recorded back into the schedule
        (:meth:`CertifiedSchedule.record_cost`), feeding the measured
        what-if model; with an access log, execution is bracketed per
        node so shared-structure hooks attribute to it.
        """
        schedule = self.schedule
        log = self.access_log
        session = self.session
        engine = session.ctx.engine
        for node_id in schedule.order:
            node = schedule.nodes[node_id]
            run = runs[node.plan_index]
            stage = run.plan.stages[node.stage_index]
            self._before_node(node_id)
            w0 = engine.tenant_work_cycles(run.tag)
            if log is not None:
                log.refresh(session)
                log.declared(node_id, stage)
                with log.at(node_id, stage.label):
                    self._step_node(run, node.stage_index)
            else:
                self._step_node(run, node.stage_index)
            cycles = engine.tenant_work_cycles(run.tag) - w0
            schedule.record_cost(node_id, cycles)
            self._after_node(node_id, cycles)

    def _step_node(self, run: _PlanRun, stage_index: int) -> None:
        """Advance ``run`` until stage ``stage_index`` is done, and after
        the plan's last stage until the plan is finished."""
        last = stage_index + 1 == len(run.plan.stages)
        while not run.finished and (last or run.stage_idx <= stage_index):
            if not self._advance(run, []):  # pragma: no cover - dedup edges
                raise SisaError(
                    "certified schedule ordered a follower before its "
                    "dedup owner published; the dependency DAG is wrong"
                )

    # -- per-unit and per-node extension points ------------------------

    def _fanout(self, fanout: Fanout, state: dict) -> None:
        """Execute one fan-out stage in place as one chunked program
        (scheduled replay).

        The shard-parallel executor overrides this seam to supply the
        program's counts from worker processes, chunk by chunk."""
        fanout.run(self.session, state)

    def _counts(self, unit: BurstUnit) -> np.ndarray:
        """Execute one burst unit's count batch in place, unfused (the
        units of burst stages without a fan-out, e.g.
        ``similarity_pairs``, on the sequential path, the ``cpu-set``
        fallback and scheduled replay).

        The per-unit seam the shard-parallel executor
        (:class:`repro.parallel.executor.ParallelExecutor`) overrides
        beside :meth:`_fanout`: it computes the intersection
        cardinalities on worker processes and feeds them back through
        the same dispatch, so modeled cycles and outputs stay
        bit-identical to this reference implementation.
        """
        return self.session.ctx.count_burst(unit.a, unit.bs, kind=unit.kind)

    def _before_node(self, node_id: int) -> None:
        """Hook before one schedule node executes (no-op here; the
        parallel executor's lane gate admits the node)."""

    def _after_node(self, node_id: int, cycles: float) -> None:
        """Hook after one schedule node's cost is recorded (no-op here;
        the parallel executor's lane gate marks it complete)."""

    # -- key lookup ----------------------------------------------------

    def _lookup(self, key: tuple):
        """Resolve a dedup key against the batch map and the session's
        result cache.  Returns ``(found, value)``."""
        if key in self._done:
            return True, isolate_output(self._done[key])
        session = self.session
        if session.config.result_cache:
            hit = session._results.get(key)
            if hit is not None:
                return True, hit[0]
        return False, None

    def _publish(self, key: tuple, value: Any) -> None:
        self._done[key] = isolate_output(value)
        self._owners.pop(key, None)
        if self.session.config.result_cache:
            self.session._results.put(key, value)

    def _stage_key(self, stage: PlanStage, plan: WorkloadPlan) -> tuple | None:
        if stage.key is None:
            return None
        return (*stage.key, plan.version)

    # -- one scheduling step -------------------------------------------

    def _advance(self, run: _PlanRun, buffer) -> bool:
        """Advance one run by one step; returns False when blocked on a
        key another run owns."""
        plan = run.plan
        if not run.started:
            return self._start(run)
        if run.stage_idx >= len(plan.stages):
            self._finish(run)
            return True
        stage = plan.stages[run.stage_idx]
        if stage.kind == "call":
            # Call stages may register/release sets; drain deferred
            # bursts first so no unit observes mutated SM state.
            self._flush(buffer)
            self._open_stage(run, stage)
            with self._slice(run):
                run.value = stage.run(self.session, run.state)
            self._close_stage(run)
            return True
        return self._advance_bursts(run, stage, buffer)

    def _open_stage(self, run: _PlanRun, stage: PlanStage) -> None:
        """Enter an executing stage: the fault injector's shot at it
        and, with observability on, its detached stage span."""
        self._inject(run.plan, stage.label)
        obs = getattr(self.session, "obs", None)
        if obs is not None:
            run.stage_span = obs.spans.start_detached(
                f"stage:{stage.label}", run.span
            )
            run.stage_w0 = self.session.ctx.engine.tenant_work_cycles(run.tag)

    def _close_stage(self, run: _PlanRun) -> None:
        """Leave the current stage; its span carries the tenant work
        charged since :meth:`_open_stage`."""
        run.stage_idx += 1
        obs = getattr(self.session, "obs", None)
        if obs is not None and run.stage_span is not None:
            obs.spans.end(
                run.stage_span,
                cycles=self.session.ctx.engine.tenant_work_cycles(run.tag)
                - run.stage_w0,
            )
            run.stage_span = None

    def _start(self, run: _PlanRun) -> bool:
        session = self.session
        plan = run.plan
        obs = getattr(session, "obs", None)
        if obs is not None and run.span is None:
            run.span = obs.spans.start_detached(
                f"plan:{plan.name}",
                self._span_parent,
                {
                    "tenant": plan.tenant or "default",
                    "version": str(plan.version),
                },
            )
        key = session._results.make_key(
            plan.name, plan.cache_params, plan.version
        )
        run.cache_key = key
        if key is not None:
            found, value = self._lookup(key)
            if found:
                run.output = value
                run.cached = True
                run.warm = True
                run.started = True
                run.finished = True
                if obs is not None:
                    obs.spans.end(run.span, cycles=0.0)
                return True
            owner = self._owners.get(key)
            if owner is not None and owner is not run:
                return False  # an identical plan is already executing
            if self.schedule is None:
                # Claim the key for the run's whole lifetime.  A replay
                # needs no claim (dedup edges finish every whole-plan
                # owner before its followers start), and one held across
                # nodes would block an earlier plan's sub-request stage
                # that computes the same key.
                self._owners[key] = run
        run.warm = session._is_warm(plan.spec, None, plan.params)
        run.started = True
        return True

    def _advance_bursts(self, run: _PlanRun, stage: PlanStage, buffer) -> bool:
        obs = getattr(self.session, "obs", None)
        key = self._stage_key(stage, run.plan)
        if run.gen is None:
            if key is not None:
                found, value = self._lookup(key)
                if found:
                    # Sub-request dedup: install the shared value with
                    # zero instructions issued.
                    stage.seed(run.state, value)
                    run.value = stage.result(run.state)
                    run.stage_idx += 1
                    if obs is not None:
                        obs.set_context(run.plan.tenant or "default", run.plan.name)
                        obs.dedup(run.plan.name)
                    return True
                owner = self._owners.get(key)
                if owner is not None and owner is not run:
                    return False
                self._owners[key] = run
            self._open_stage(run, stage)
            if stage.fanout is not None and self.schedule is not None:
                # A replay runs the node to completion: the whole stage
                # is one chunked program in one slice.
                with self._slice(run):
                    self._fanout(stage.fanout, run.state)
                self._end_stage(run, stage, key)
                return True
            with self._attribute(run):
                if stage.fanout is not None:
                    run.gen = stage.fanout.steps(self.session, run.state)
                else:
                    run.gen = stage.units(self.session, run.state)
        with self._attribute(run):
            unit = next(run.gen, None)
        if unit is None:
            # Generator exhausted: drain deferred units so the stage
            # value is complete, then publish it.
            self._flush(buffer)
            run.gen = None
            self._end_stage(run, stage, key)
            return True
        if self._fuse_bursts:
            buffer.append((unit, run))
            if len(buffer) >= FUSE_WIDTH:
                self._flush(buffer)
        else:
            # Host baseline, or a unit of scheduled replay: execute in
            # place, unfused.  The unit's task is still current
            # (nothing ran since its begin_task), so charges land on
            # its lane naturally.
            with self._slice(run):
                if type(unit) is FanoutStep:
                    unit.sink(
                        unit.v,
                        self.session.ctx.fanout_burst(unit.program, unit.v),
                    )
                else:
                    unit.sink(self._counts(unit))
        return True

    def _end_stage(self, run: _PlanRun, stage: PlanStage, key) -> None:
        """Take an executed burst stage's value, publish it under its
        dedup key and leave the stage."""
        run.value = stage.result(run.state)
        if key is not None:
            self._publish(key, run.value)
        self._close_stage(run)

    def _finish(self, run: _PlanRun) -> None:
        run.output = run.value
        if run.cache_key is not None:
            self._publish(run.cache_key, run.output)
        run.finished = True

    def _flush(self, buffer) -> None:
        """Issue every buffered burst as fused macros: one macro per
        maximal same-kind group, whose first constituent carries the
        macro decode.  Within a macro, each run of consecutive
        :class:`FanoutStep` records is one :meth:`_flush_fanout` call and
        every :class:`BurstUnit` one attributed slice, in buffer order."""
        if not buffer:
            return
        ctx = self.session.ctx
        i = 0
        n = len(buffer)
        while i < n:
            kind = buffer[i][0].kind
            j = i
            first = True
            while j < n and buffer[j][0].kind == kind:
                unit, run = buffer[j]
                if type(unit) is FanoutStep:
                    k = j + 1
                    while k < n and type(buffer[k][0]) is FanoutStep:
                        k += 1
                    self._flush_fanout(buffer[j:k], first)
                    j = k
                else:
                    with self._slice(run), ctx.on_lane(unit.lane):
                        counts = ctx.count_burst(
                            unit.a, unit.bs, kind=kind, include_decode=first
                        )
                        unit.sink(counts)
                    j += 1
                first = False
            i = j
        buffer.clear()

    def _flush_fanout(self, steps, include_decode: bool) -> None:
        """Issue a macro's run of fan-out steps with one
        :meth:`~repro.runtime.context.SisaContext.fused_fanout` call.

        Attribution is per plan and per macro rather than per slice:
        each step's charges land under its plan's tenant, each plan's
        stats take one delta, and (with observability on) each plan gets
        one kernel span carrying the sum of its bursts' cycles."""
        session = self.session
        engine = session.ctx.engine
        obs = getattr(session, "obs", None)
        runs = [run for __, run in steps]
        owners: dict[_PlanRun, int] = {}
        groups = [owners.setdefault(run, len(owners)) for run in runs]

        def enter(c):
            run = runs[c]
            engine.set_tenant(run.tag)
            if obs is not None:
                obs.set_context(run.plan.tenant or "default", run.plan.name)

        try:
            macro = session.ctx.fused_fanout(
                [(step.program, step.v, step.lane) for step, __ in steps],
                groups,
                include_decode=include_decode,
                enter=enter,
            )
        finally:
            engine.set_tenant(None)
        for (step, __), s in zip(steps, macro.sums):
            step.sink(step.v, s)
        for run, stats in zip(owners, macro.stats):
            run.stats.add(stats)
        if obs is None:
            return
        for run, g in owners.items():
            ops = 0
            cycles = 0.0
            for (step, __), owner, burst in zip(steps, groups, macro.cycles):
                if owner == g:
                    ops += step.program.rows.cards[step.v]
                    cycles += burst
            parent = run.stage_span or run.span
            if parent is not None:
                obs.spans.enter(parent)
            obs.spans.end(obs.kernel_start("fused_intersect", int(ops)), cycles=cycles)
            if parent is not None:
                obs.spans.exit(parent)
