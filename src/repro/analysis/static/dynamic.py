"""Dynamic checking of the burst-generator contract.

The static verifier certifies what stages *declare*; this module
checks what they *do*.  The plan IR's burst-generator contract
(:class:`~repro.session.plan.PlanStage`) says: under fusion, unit
generation may run ahead of earlier units' sinks, so generation must
not depend on (read) — or race with (write) — the state slots the
sinks fold counts into.

:func:`check_plan_dynamic` executes one plan under the contract's
*worst legal schedule*: every burst stage's generator is drained to
exhaustion first (maximal sink deferral), then every deferred burst
executes on its own lane and its sink runs.  The plan's state dict is
replaced by an instrumented mapping that records every read/write with
the phase it happened in, which catches:

* **generator-reads-sink-state** — the generator touched a slot a sink
  writes after units were already outstanding (the canonical contract
  violation: under fusion it would have observed a partial value);
* **generator-writes-sink-state** — the generator mutated a deferred
  sink's slot mid-stream (a write-race under deferral);
* **undeclared-effect** — a sink wrote a state slot the stage (or its
  units) never declared, so the static verifier certified the plan on
  a false effect set.

The checker also re-runs the plan through the sequential reference
executor and compares outputs bit-for-bit (``repr`` equality) — a
violation that slipped past the tracing (e.g. state smuggled outside
the dict) still surfaces as a divergence.  Test-harness tool: it
charges the engine like a normal run and is not meant for serving
paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.static.effects import state_slot, stage_effects


@dataclass(frozen=True)
class ContractViolation:
    """One observed violation of the burst-generator contract."""

    kind: str  # generator-reads-sink-state | generator-writes-sink-state | undeclared-effect
    stage: str
    slot: str
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "slot": self.slot,
            "message": self.message,
        }


@dataclass
class DynamicReport:
    """Result of one :func:`check_plan_dynamic` run."""

    workload: str
    output: Any = None
    violations: list[ContractViolation] = field(default_factory=list)
    matches_reference: bool | None = None

    @property
    def certified(self) -> bool:
        return not self.violations and self.matches_reference is not False

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "certified": self.certified,
            "matches_reference": self.matches_reference,
            "violations": [v.as_dict() for v in self.violations],
        }


class _TracingState(dict):
    """A state dict that reports reads/writes to the checker."""

    def __init__(self, on_access):
        super().__init__()
        self._on_access = on_access

    def __getitem__(self, key):
        self._on_access("read", key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._on_access("read", key)
        return super().get(key, default)

    def __setitem__(self, key, value):
        self._on_access("write", key)
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self._on_access("write", key)
        return super().setdefault(key, default)


def check_plan_dynamic(
    session, plan, *, compare: bool = True
) -> DynamicReport:
    """Execute ``plan`` under maximal sink deferral with instrumented
    state; returns a :class:`DynamicReport` of observed contract
    violations (empty = the generators honored the contract even on
    the worst legal schedule)."""
    plan.check_version()
    report = DynamicReport(workload=plan.name)
    ctx = session.ctx
    phase = {"mode": "call", "outstanding": 0, "stage": "", "slots": set()}

    def on_access(op: str, key: Any) -> None:
        if phase["mode"] != "generate" or phase["outstanding"] == 0:
            return
        if key not in phase["slots"]:
            return
        kind = (
            "generator-reads-sink-state"
            if op == "read"
            else "generator-writes-sink-state"
        )
        report.violations.append(
            ContractViolation(
                kind=kind,
                stage=phase["stage"],
                slot=str(key),
                message=(
                    f"burst generator of stage {phase['stage']!r} {op}s "
                    f"state slot {key!r} while {phase['outstanding']} "
                    "unit(s) have deferred sinks writing it"
                ),
            )
        )

    state = _TracingState(on_access)
    value: Any = None
    for stage in plan.stages:
        if stage.kind == "call":
            phase["mode"] = "call"
            value = stage.run(session, state)
            continue
        eff = stage_effects(stage)
        declared = {
            slot
            for slot in (state_slot(t) for t in eff.writes)
            if slot is not None
        }
        phase.update(
            mode="generate", outstanding=0, stage=stage.label, slots=declared
        )
        produced = []
        gen = stage.units(session, state)
        while True:
            unit = next(gen, None)
            if unit is None:
                break
            produced.append(unit)
            phase["outstanding"] += 1
            for token in unit.writes:
                slot = state_slot(token)
                if slot is not None:
                    phase["slots"].add(slot)
        phase["mode"] = "sink"
        written: set = set()
        before = dict.copy(state)
        for unit in produced:
            with ctx.on_lane(unit.lane):
                unit.sink(ctx.count_burst(unit.a, unit.bs, kind=unit.kind))
        for key in dict.keys(state):
            if key not in before or before[key] is not dict.__getitem__(
                state, key
            ):
                written.add(key)
        for slot in sorted(written - declared, key=str):
            report.violations.append(
                ContractViolation(
                    kind="undeclared-effect",
                    stage=stage.label,
                    slot=str(slot),
                    message=(
                        f"sinks of stage {stage.label!r} wrote state slot "
                        f"{slot!r} outside the declared effect set "
                        f"{sorted(declared)}"
                    ),
                )
            )
        phase["mode"] = "call"
        value = stage.result(state)
    report.output = value
    if compare:
        from repro.session.plan import PlanExecutor, compile_plan

        reference = compile_plan(session, plan.name, dict(plan.params))
        (ref,) = PlanExecutor(session, fuse=False).execute([reference])
        report.matches_reference = repr(ref.output) == repr(value)
    return report
