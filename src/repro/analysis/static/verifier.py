"""Static hazard verification of compiled plan batches.

:func:`analyze_batch` builds the dataflow graph over a batch of
compiled :class:`~repro.session.plan.WorkloadPlan`\\ s from their
declared effect sets (:mod:`repro.analysis.static.effects`) and
certifies, *without executing anything*, the three properties the
fused :class:`~repro.session.plan.PlanExecutor` relies on:

1. **Fusion legality** — burst units from different plans may be
   buffered into one macro dispatch, and their sinks deferred past
   other plans' unit generation, only if no RAW/WAR/WAW hazard exists
   between the constituents: every ``bursts`` stage must write only
   its own plan-private ``state:`` slots (a burst stage writing
   ``sets:``/``struct:`` tokens would mutate state another buffered
   unit reads), and cross-plan effect sets must be disjoint after
   plan-qualification.  ``call`` stages may freely write ``sets:``/
   ``struct:`` tokens because the executor drains the buffer before
   running them — the verifier checks the declaration, the executor
   provides the barrier.
2. **Dedup-key soundness** — a stage carrying a result-cache ``key``
   can be *seeded* from another plan's published value instead of
   executing.  Seeding must be unobservable: the stage's declared
   writes must be exactly the slots its ``seed`` installs, and every
   stage sharing one key must declare the same effect shape.  A later
   stage reading a ``state:`` slot must find it provided by an earlier
   stage (whether that stage executed or seeded), so a seeded plan can
   never diverge from an executed one.
3. **Stream-version pin consistency** — all plans of one session in
   the batch are pinned at one stream version, and none is stale;
   result-cache keys embed the pinned version, so a certified batch
   can never mix epochs through the dedup path.

The report is structured (:class:`AnalysisReport`): each
:class:`Hazard` names the kind, the offending token and the plans and
stages involved, machine-readably — the same shape the serving
validation engine gives rejected requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.static.effects import (
    EffectSet,
    stage_effects,
)

#: Hazard kinds the verifier can report.
HAZARD_KINDS = (
    "RAW",
    "WAR",
    "WAW",
    "illegal-burst-write",
    "unsatisfied-read",
    "dedup-divergence",
    "version-pin",
    "stale-plan",
)


@dataclass(frozen=True)
class Hazard:
    """One certification failure."""

    kind: str
    message: str
    token: str | None = None
    plans: tuple[str, ...] = ()
    stages: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "message": self.message,
            "token": self.token,
            "plans": list(self.plans),
            "stages": list(self.stages),
        }


@dataclass
class AnalysisReport:
    """The structured result of one :func:`analyze_batch` call."""

    hazards: list[Hazard] = field(default_factory=list)
    plans: list[dict[str, Any]] = field(default_factory=list)
    checks: dict[str, int] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        """True when the batch carries zero hazards — fused execution
        is provably equivalent to the sequential reference."""
        return not self.hazards

    def count(self, check: str, n: int = 1) -> None:
        self.checks[check] = self.checks.get(check, 0) + n

    def summary(self) -> str:
        if self.certified:
            return (
                f"certified: {len(self.plans)} plan(s), "
                f"{sum(self.checks.values())} check(s), 0 hazards"
            )
        kinds: dict[str, int] = {}
        for h in self.hazards:
            kinds[h.kind] = kinds.get(h.kind, 0) + 1
        detail = ", ".join(f"{k}×{v}" for k, v in sorted(kinds.items()))
        return f"{len(self.hazards)} hazard(s): {detail}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "certified": self.certified,
            "summary": self.summary(),
            "plans": list(self.plans),
            "checks": dict(self.checks),
            "hazards": [h.as_dict() for h in self.hazards],
        }


def _plan_id(index: int, plan) -> str:
    return f"p{index}:{plan.name}"


class PlanVerifier:
    """Certifies a batch of compiled plans conflict-free.

    Certification is independent of the fusion width: any two
    cross-plan units may share a macro at any width ≥ 2.
    """

    def analyze(self, plans: list) -> AnalysisReport:
        report = AnalysisReport()
        by_session: dict[int, list[tuple[str, Any]]] = {}
        order: list[Any] = []
        for i, plan in enumerate(plans):
            pid = _plan_id(i, plan)
            report.plans.append(
                {
                    "id": pid,
                    "workload": plan.name,
                    "version": list(plan.version),
                    "stages": plan.describe(),
                    "fusable": plan.fusable,
                    "tenant": plan.tenant,
                }
            )
            key = id(plan.session)
            if plan.session not in order:
                order.append(plan.session)
            by_session.setdefault(key, []).append((pid, plan))
        for session in order:
            group = by_session[id(session)]
            self._check_version_pins(session, group, report)
            for pid, plan in group:
                self._check_plan_dataflow(pid, plan, report)
            self._check_fusion(group, report)
            self._check_dedup_groups(group, report)
        return report

    # ------------------------------------------------------------------
    # Stream-version pins
    # ------------------------------------------------------------------

    def _check_version_pins(self, session, group, report) -> None:
        report.count("version-pin", len(group))
        versions = {plan.version for __, plan in group}
        if len(versions) > 1:
            report.hazards.append(
                Hazard(
                    kind="version-pin",
                    message=(
                        "plans of one session are pinned at different "
                        f"stream versions {sorted(versions)}; a fused batch "
                        "would mix epochs"
                    ),
                    plans=tuple(pid for pid, __ in group),
                )
            )
        for pid, plan in group:
            if plan.stale:
                report.hazards.append(
                    Hazard(
                        kind="stale-plan",
                        message=(
                            f"plan {pid} pinned at version {plan.version} "
                            f"but the session is at {session._version}; "
                            "recompile before executing"
                        ),
                        plans=(pid,),
                    )
                )

    # ------------------------------------------------------------------
    # Per-plan dataflow (RAW within one plan's stage order)
    # ------------------------------------------------------------------

    def _check_plan_dataflow(self, pid, plan, report) -> None:
        available: set[str] = set()
        for stage in plan.stages:
            eff = stage_effects(stage)
            report.count("dataflow-stage")
            for token in sorted(eff.reads):
                if token.startswith("state:") and token not in available:
                    report.hazards.append(
                        Hazard(
                            kind="unsatisfied-read",
                            message=(
                                f"stage {stage.label!r} of {pid} reads "
                                f"{token!r} but no earlier stage writes or "
                                "seeds it"
                            ),
                            token=token,
                            plans=(pid,),
                            stages=(stage.label,),
                        )
                    )
            available.update(eff.writes)
            available.update(f"state:{slot}" for slot in _seed_slots(stage))
            if stage.key is not None:
                self._check_keyed_stage(pid, stage, eff, report)

    def _check_keyed_stage(self, pid, stage, eff: EffectSet, report) -> None:
        """Dedup-key soundness for one stage: the seeded path must be
        indistinguishable from the executed path."""
        report.count("dedup-soundness")
        label = stage.label
        if stage.seed is None or stage.result is None:
            report.hazards.append(
                Hazard(
                    kind="dedup-divergence",
                    message=(
                        f"keyed stage {label!r} of {pid} lacks a "
                        f"{'seed' if stage.seed is None else 'result'} hook; "
                        "a deduped plan could not install the shared value"
                    ),
                    plans=(pid,),
                    stages=(label,),
                )
            )
            return
        state_writes = {t for t in eff.writes if t.startswith("state:")}
        seeded = {f"state:{slot}" for slot in _seed_slots(stage)}
        if state_writes != seeded:
            report.hazards.append(
                Hazard(
                    kind="dedup-divergence",
                    message=(
                        f"keyed stage {label!r} of {pid} writes "
                        f"{sorted(state_writes)} but its seed installs "
                        f"{sorted(seeded)}; a seeded plan would diverge from "
                        "an executed one"
                    ),
                    plans=(pid,),
                    stages=(label,),
                )
            )
        non_state = {t for t in eff.writes if not t.startswith("state:")}
        if non_state:
            report.hazards.append(
                Hazard(
                    kind="dedup-divergence",
                    message=(
                        f"keyed stage {label!r} of {pid} declares shared "
                        f"effect(s) {sorted(non_state)}; seeding would skip "
                        "them"
                    ),
                    token=sorted(non_state)[0],
                    plans=(pid,),
                    stages=(label,),
                )
            )

    # ------------------------------------------------------------------
    # Cross-plan fusion legality
    # ------------------------------------------------------------------

    def _check_fusion(self, group, report) -> None:
        """Burst stages of different plans may interleave unit
        generation, macro execution and deferred sinks in any order:
        their qualified effect sets must be conflict-free, and no burst
        stage may write outside its plan-private state."""
        bursts: list[tuple[str, Any, Any, EffectSet]] = []
        for pid, plan in group:
            for stage in plan.stages:
                if stage.kind != "bursts":
                    continue
                eff = stage_effects(stage)
                report.count("fusion-legality")
                illegal = {
                    t for t in eff.writes if not t.startswith("state:")
                }
                for token in sorted(illegal):
                    report.hazards.append(
                        Hazard(
                            kind="illegal-burst-write",
                            message=(
                                f"burst stage {stage.label!r} of {pid} "
                                f"declares write {token!r}; deferred sinks "
                                "would mutate shared state other buffered "
                                "units read"
                            ),
                            token=token,
                            plans=(pid,),
                            stages=(stage.label,),
                        )
                    )
                bursts.append((pid, plan, stage, eff.qualified(pid)))
        for i in range(len(bursts)):
            pid_a, plan_a, stage_a, eff_a = bursts[i]
            for j in range(i + 1, len(bursts)):
                pid_b, plan_b, stage_b, eff_b = bursts[j]
                if plan_a is plan_b:
                    continue  # stages of one plan execute in order
                if _same_key(stage_a, plan_a, stage_b, plan_b):
                    continue  # dedup group: one executes, others seed
                report.count("fusion-pair")
                for kind, token in eff_a.conflicts(eff_b):
                    report.hazards.append(
                        Hazard(
                            kind=kind,
                            message=(
                                f"{kind} hazard on {token!r} between fused "
                                f"burst stages {stage_a.label!r} ({pid_a}) "
                                f"and {stage_b.label!r} ({pid_b})"
                            ),
                            token=token,
                            plans=(pid_a, pid_b),
                            stages=(stage_a.label, stage_b.label),
                        )
                    )

    # ------------------------------------------------------------------
    # Cross-plan dedup groups
    # ------------------------------------------------------------------

    def _check_dedup_groups(self, group, report) -> None:
        """Every stage sharing one (version-qualified) cache key must
        declare the same effect shape — otherwise which plan happens to
        execute first changes what the others are seeded with."""
        groups: dict[tuple, list[tuple[str, Any]]] = {}
        for pid, plan in group:
            for stage in plan.stages:
                if stage.key is not None:
                    groups.setdefault(
                        (*stage.key, plan.version), []
                    ).append((pid, stage))
        for key, members in groups.items():
            if len(members) < 2:
                continue
            report.count("dedup-group")
            shapes = {
                (
                    frozenset(stage_effects(stage).writes),
                    frozenset(_seed_slots(stage)),
                )
                for __, stage in members
            }
            if len(shapes) > 1:
                report.hazards.append(
                    Hazard(
                        kind="dedup-divergence",
                        message=(
                            "stages sharing dedup key "
                            f"{key[0]!r} declare different effect shapes; "
                            "seeding one from the other would diverge"
                        ),
                        plans=tuple(pid for pid, __ in members),
                        stages=tuple(s.label for __, s in members),
                    )
                )


def _seed_slots(stage) -> tuple[str, ...]:
    from repro.analysis.static.effects import state_slot

    slots = []
    for token in stage.seeds:
        slot = state_slot(token)
        slots.append(slot if slot is not None else token)
    return tuple(slots)


def _same_key(stage_a, plan_a, stage_b, plan_b) -> bool:
    if stage_a.key is None or stage_b.key is None:
        return False
    return (*stage_a.key, plan_a.version) == (*stage_b.key, plan_b.version)


def analyze_batch(plans: list) -> AnalysisReport:
    """Statically certify a batch of compiled plans conflict-free.

    Pure host-side analysis: no instructions dispatch, no structures
    build, modeled cycles are untouched.  Consulted by
    ``PlanExecutor(verify=True)`` / ``session.run_many(verify=True)`` /
    ``pool.run(verify=True)``, which raise
    :class:`~repro.errors.HazardError` when certification fails.
    """
    return PlanVerifier().analyze(list(plans))
