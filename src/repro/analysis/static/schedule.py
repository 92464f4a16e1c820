"""The schedule certifier: from a certified batch to a provable plan.

:func:`analyze_batch` certifies that a plan batch *has no hazards*;
this module goes one step further and says *what order is legal*.
:func:`certify_schedule` lowers a certified
:class:`~repro.analysis.static.verifier.AnalysisReport` into an
explicit dependency DAG over every ``(plan, stage)`` node of the
batch, with the effect tokens of :mod:`repro.analysis.static.effects`
as the edges:

* ``program`` edges keep each plan's own stages in compile order;
* ``struct:`` edges order every consumer of a build-once structure
  after its designated builder (the first writer in batch order —
  further writers are idempotent no-ops once the builder ran);
* ``dedup`` edges order each result-cache key's owner (the first
  stage/plan carrying the key in batch order) before every follower
  that will be *seeded* from the published value, so which plan
  executes and which seeds is the same in every admissible order;
* remaining cross-plan effect conflicts (``sets:scratch`` WAW between
  opaque call stages, any RAW/WAR the effect sets expose) become
  edges in batch order — the conservative serialization a shared
  set-manager demands until per-shard contexts land (ROADMAP item 1).

Any topological order of the DAG executes bit-identically to the
sequential reference (property-tested over the registered-workload
grid), which is exactly the freedom a concurrent scheduler needs.

On top of the DAG, the certifier computes a deterministic lane
assignment under a ``lanes=N`` width (critical-path list scheduling)
and a **what-if model** mirroring the engine's multi-lane cost rule
(:meth:`~repro.hw.engine.ExecutionEngine.on_lane`): modeled parallel
cycles are the makespan — max over lane finish times — plus a host
merge charge per cross-lane dependency edge, against the sequential
cycles of the same measured work.  Per-node costs are measured during
a scheduled replay (``PlanExecutor(schedule=...)`` records each
node's attributed tenant-work delta), so the speedup curve is a
*modeled, provable* number for ROADMAP item 1 before any
``multiprocessing`` exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro.analysis.static.effects import stage_effects
from repro.analysis.static.verifier import AnalysisReport, analyze_batch, _plan_id
from repro.errors import ConfigError, HazardError, SisaError
from repro.session.cache import canonical_param

#: Modeled host cycles charged per cross-lane dependency edge: the
#: coordinator synchronizing one producer lane's published value into a
#: consumer lane's context (the software analogue of the fused macro's
#: host merge in the paper's multi-lane model).  Deliberately larger
#: than one SCU dispatch and far smaller than any kernel stage, so the
#: model punishes gratuitous cross-lane chatter without drowning real
#: parallelism.
MERGE_CYCLES_PER_EDGE = 32.0

#: Cost assumed for a node before its replay measurement lands —
#: certification-time lane assignment only needs relative structure.
_UNMEASURED_COST = 1.0


@dataclass(frozen=True)
class ScheduleNode:
    """One schedulable unit: a single stage of one plan in the batch."""

    node_id: int
    plan_index: int
    stage_index: int
    plan_id: str  # verifier-style "p<i>:<workload>"
    label: str  # the stage label
    kind: str  # "call" | "bursts"

    def as_dict(self) -> dict[str, Any]:
        return {
            "node": self.node_id,
            "plan": self.plan_id,
            "stage": self.label,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class ScheduleEdge:
    """One happens-before constraint, labeled with why it exists."""

    src: int
    dst: int
    kind: str  # "program" | "struct" | "dedup" | "RAW" | "WAR" | "WAW"
    token: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "src": self.src,
            "dst": self.dst,
            "kind": self.kind,
            "token": self.token,
        }


@dataclass(frozen=True)
class ScheduleModel:
    """One what-if evaluation of a schedule at a given lane width."""

    lanes: int
    parallel_cycles: float  # makespan + host merge charge
    sequential_cycles: float  # sum of all node costs
    makespan: float  # max over lane finish times
    merge_cycles: float  # total host merge charge
    cross_edges: int  # dependency edges crossing lanes
    lane_busy: tuple[float, ...]  # per-lane busy time
    measured: bool  # True when every cost came from a replay

    @property
    def speedup(self) -> float:
        """Modeled sequential/parallel ratio (1.0 for an empty batch)."""
        if self.parallel_cycles <= 0.0:
            return 1.0
        return self.sequential_cycles / self.parallel_cycles

    def as_dict(self) -> dict[str, Any]:
        return {
            "lanes": self.lanes,
            "parallel_cycles": self.parallel_cycles,
            "sequential_cycles": self.sequential_cycles,
            "makespan": self.makespan,
            "merge_cycles": self.merge_cycles,
            "cross_edges": self.cross_edges,
            "speedup": self.speedup,
            "measured": self.measured,
        }


class CertifiedSchedule:
    """An admissible parallel schedule for one certified plan batch.

    Carries the dependency DAG, a deterministic lane assignment at the
    certified width, the canonical execution order (the list
    scheduler's simulated order — always topological), per-node costs
    (recorded by the scheduled executor's replay) and the happens-
    before relation the race detector checks against.  ``order`` may
    be swapped for *any* topological order via :meth:`with_order`;
    certification guarantees every such order is output-identical.
    """

    def __init__(
        self,
        nodes: list[ScheduleNode],
        edges: list[ScheduleEdge],
        *,
        lanes: int,
        report: AnalysisReport,
        plan_names: tuple[str, ...],
        stage_labels: tuple[tuple[str, ...], ...],
        merge_cycles_per_edge: float = MERGE_CYCLES_PER_EDGE,
        order: tuple[int, ...] | None = None,
        costs: dict[int, float] | None = None,
    ):
        if lanes < 1:
            raise ConfigError("lanes must be positive")
        self.nodes = list(nodes)
        self.edges = list(edges)
        self.lanes = int(lanes)
        self.report = report
        self.plan_names = plan_names
        self.stage_labels = stage_labels
        self.merge_cycles_per_edge = float(merge_cycles_per_edge)
        n = len(self.nodes)
        self.preds: list[tuple[int, ...]] = [()] * n
        self.succs: list[tuple[int, ...]] = [()] * n
        pred_sets: list[set[int]] = [set() for _ in range(n)]
        succ_sets: list[set[int]] = [set() for _ in range(n)]
        for edge in self.edges:
            pred_sets[edge.dst].add(edge.src)
            succ_sets[edge.src].add(edge.dst)
        self.preds = [tuple(sorted(s)) for s in pred_sets]
        self.succs = [tuple(sorted(s)) for s in succ_sets]
        # Measured per-node work cycles; shared (not copied) by
        # with_order() so a replay under any order feeds one cost table.
        self.costs: dict[int, float] = {} if costs is None else costs
        self._ancestors: list[int] | None = None
        self._clocks: list[tuple[int, ...]] | None = None
        if order is None:
            self.lane_of, self.order = self._assign(self.lanes)
        else:
            order = tuple(int(i) for i in order)
            if not self.is_topological(order):
                raise SisaError(
                    "order is not a topological order of the certified "
                    "schedule's dependency DAG",
                    details={"order": list(order)},
                )
            self.lane_of, __ = self._assign(self.lanes)
            self.order = order

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def measured(self) -> bool:
        """True once a scheduled replay recorded every node's cost."""
        return len(self.costs) == len(self.nodes)

    def record_cost(self, node_id: int, cycles: float) -> None:
        """Record one node's measured work cycles (replay feedback)."""
        self.costs[int(node_id)] = float(cycles)

    def matches(self, plans: Iterable[Any]) -> bool:
        """True when ``plans`` is the batch this schedule certifies
        (same workloads, same stage labels, same order)."""
        plans = list(plans)
        if len(plans) != len(self.plan_names):
            return False
        for i, plan in enumerate(plans):
            if plan.name != self.plan_names[i]:
                return False
            if tuple(plan.describe()) != self.stage_labels[i]:
                return False
        return True

    def is_topological(self, order: Iterable[int]) -> bool:
        """Whether ``order`` is a permutation of the nodes respecting
        every dependency edge."""
        order = list(order)
        if sorted(order) != list(range(len(self.nodes))):
            return False
        position = {node: i for i, node in enumerate(order)}
        return all(position[e.src] < position[e.dst] for e in self.edges)

    def with_order(self, order: Iterable[int]) -> "CertifiedSchedule":
        """This schedule under a different (validated) topological
        execution order; the cost table is shared."""
        return CertifiedSchedule(
            self.nodes,
            self.edges,
            lanes=self.lanes,
            report=self.report,
            plan_names=self.plan_names,
            stage_labels=self.stage_labels,
            merge_cycles_per_edge=self.merge_cycles_per_edge,
            order=tuple(order),
            costs=self.costs,
        )

    def random_topological_order(self, seed: int) -> tuple[int, ...]:
        """A seeded random topological order (Kahn with random choice
        among ready nodes) — the property tests' interleaving source."""
        rng = np.random.default_rng(seed)
        indeg = [len(p) for p in self.preds]
        ready = sorted(i for i, d in enumerate(indeg) if d == 0)
        out: list[int] = []
        while ready:
            pick = ready.pop(int(rng.integers(len(ready))))
            out.append(pick)
            for succ in self.succs[pick]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
            ready.sort()
        if len(out) != len(self.nodes):  # pragma: no cover - DAG by construction
            raise SisaError("schedule dependency graph has a cycle")
        return tuple(out)

    # ------------------------------------------------------------------
    # Happens-before
    # ------------------------------------------------------------------

    def _ancestor_masks(self) -> list[int]:
        """Per-node ancestor sets as bitmasks, in one topological pass."""
        if self._ancestors is None:
            masks = [0] * len(self.nodes)
            for node in self.order:
                acc = 0
                for pred in self.preds[node]:
                    acc |= masks[pred] | (1 << pred)
                masks[node] = acc
            self._ancestors = masks
        return self._ancestors

    def happens_before(self, a: int, b: int) -> bool:
        """True when the dependency DAG orders node ``a`` before ``b``.

        This is DAG reachability, independent of the lane assignment:
        the certificate must hold for *every* admissible schedule, not
        just the one lane placement this object happens to carry.
        """
        return bool((self._ancestor_masks()[b] >> a) & 1)

    def vector_clocks(self) -> list[tuple[int, ...]]:
        """Per-node vector clocks over the certified logical lanes.

        Each node's clock is the elementwise max of its DAG
        predecessors' clocks and its same-lane predecessor's clock,
        with its own lane component incremented — the classic
        happens-before witness for the *chosen* lane assignment.  The
        race checker's ordering test is the stricter lane-independent
        :meth:`happens_before`; the clocks are reported alongside each
        race so the offending interleaving is concrete.
        """
        if self._clocks is None:
            clocks: list[tuple[int, ...]] = [()] * len(self.nodes)
            counters = [0] * self.lanes
            last_on_lane: list[int | None] = [None] * self.lanes
            for node in self.order:
                lane = self.lane_of[node]
                clock = [0] * self.lanes
                chain = list(self.preds[node])
                if last_on_lane[lane] is not None:
                    chain.append(last_on_lane[lane])
                for pred in chain:
                    for i, value in enumerate(clocks[pred]):
                        if value > clock[i]:
                            clock[i] = value
                counters[lane] += 1
                clock[lane] = counters[lane]
                clocks[node] = tuple(clock)
                last_on_lane[lane] = node
            self._clocks = clocks
        return self._clocks

    # ------------------------------------------------------------------
    # Lane assignment and the what-if model
    # ------------------------------------------------------------------

    def _cost(self, node_id: int) -> float:
        return self.costs.get(node_id, _UNMEASURED_COST)

    def _critical_path(self) -> list[float]:
        """Longest-path-to-exit length per node (list-scheduler
        priority)."""
        cp = [0.0] * len(self.nodes)
        for node in reversed(self.order):
            tail = max((cp[s] for s in self.succs[node]), default=0.0)
            cp[node] = self._cost(node) + tail
        return cp

    def _assign(
        self, lanes: int
    ) -> tuple[dict[int, int], tuple[int, ...]]:
        """Deterministic critical-path list scheduling onto ``lanes``.

        Among ready nodes the longest remaining critical path goes
        first (ties by node id); each node starts at the max of its
        predecessors' finish times and lands on the lane that finishes
        it earliest (ties to the lowest lane).  Returns the lane map
        and the simulated execution order (by start time, then id) —
        topological by construction.
        """
        n = len(self.nodes)
        # Bootstrap priority: before lane_of/order exist, compute the
        # critical path over a plain Kahn order.
        indeg = [len(p) for p in self.preds]
        topo: list[int] = [i for i, d in enumerate(indeg) if d == 0]
        head = 0
        indeg_work = list(indeg)
        while head < len(topo):
            node = topo[head]
            head += 1
            for succ in self.succs[node]:
                indeg_work[succ] -= 1
                if indeg_work[succ] == 0:
                    topo.append(succ)
        if len(topo) != n:  # pragma: no cover - DAG by construction
            raise SisaError("schedule dependency graph has a cycle")
        cp = [0.0] * n
        for node in reversed(topo):
            tail = max((cp[s] for s in self.succs[node]), default=0.0)
            cp[node] = self._cost(node) + tail
        lane_free = [0.0] * lanes
        finish = [0.0] * n
        start = [0.0] * n
        lane_of: dict[int, int] = {}
        indeg_work = list(indeg)
        ready = [i for i, d in enumerate(indeg) if d == 0]
        scheduled = 0
        while ready:
            ready.sort(key=lambda i: (-cp[i], i))
            node = ready.pop(0)
            est = max((finish[p] for p in self.preds[node]), default=0.0)
            lane = min(
                range(lanes), key=lambda l: (max(lane_free[l], est), l)
            )
            t0 = max(lane_free[lane], est)
            t1 = t0 + self._cost(node)
            start[node] = t0
            finish[node] = t1
            lane_free[lane] = t1
            lane_of[node] = lane
            scheduled += 1
            for succ in self.succs[node]:
                indeg_work[succ] -= 1
                if indeg_work[succ] == 0:
                    ready.append(succ)
        if scheduled != n:  # pragma: no cover - DAG by construction
            raise SisaError("schedule dependency graph has a cycle")
        order = tuple(sorted(range(n), key=lambda i: (start[i], i)))
        return lane_of, order

    def assign(self, lanes: int) -> tuple[dict[int, int], tuple[int, ...]]:
        """The deterministic lane assignment (and simulated order) this
        schedule's list scheduler produces at ``lanes``, using whatever
        costs are recorded *now*.

        This is the public seam the parallel executor uses twice: at
        admission time (certification costs) the assignment is the lane
        ticket each node must present, and at reconcile time (measured
        costs) it is the assignment :meth:`what_if` prices — calling it
        here guarantees both sides simulate the identical placement.
        """
        if lanes < 1:
            raise ConfigError("lanes must be positive")
        return self._assign(int(lanes))

    def what_if(self, lanes: int | None = None) -> ScheduleModel:
        """Modeled parallel cycles at ``lanes`` (default: the certified
        width), mirroring the engine's lane rule: max over lane finish
        times plus a host merge charge per cross-lane dependency edge.
        """
        lanes = self.lanes if lanes is None else int(lanes)
        if lanes < 1:
            raise ConfigError("lanes must be positive")
        lane_of, __ = self._assign(lanes)
        n = len(self.nodes)
        lane_busy = [0.0] * lanes
        finish = [0.0] * n
        # Re-simulate with the chosen assignment to read lane times.
        for node in self.order:
            est = max((finish[p] for p in self.preds[node]), default=0.0)
            lane = lane_of[node]
            t0 = max(lane_busy[lane], est)
            t1 = t0 + self._cost(node)
            finish[node] = t1
            lane_busy[lane] = t1
        cross = sum(
            1 for e in self.edges if lane_of[e.src] != lane_of[e.dst]
        )
        makespan = max(lane_busy, default=0.0)
        merge = self.merge_cycles_per_edge * cross
        return ScheduleModel(
            lanes=lanes,
            parallel_cycles=makespan + merge,
            sequential_cycles=float(
                sum(self._cost(i) for i in range(n))
            ),
            makespan=makespan,
            merge_cycles=merge,
            cross_edges=cross,
            lane_busy=tuple(lane_busy),
            measured=self.measured,
        )

    # ------------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "lanes": self.lanes,
            "nodes": [n.as_dict() for n in self.nodes],
            "edges": [e.as_dict() for e in self.edges],
            "order": list(self.order),
            "lane_of": {str(k): v for k, v in sorted(self.lane_of.items())},
            "measured": self.measured,
        }
        if self.measured:
            out["model"] = self.what_if().as_dict()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"CertifiedSchedule(nodes={len(self.nodes)}, "
            f"edges={len(self.edges)}, lanes={self.lanes}, "
            f"measured={self.measured})"
        )


# ---------------------------------------------------------------------------
# DAG construction
# ---------------------------------------------------------------------------


def certify_schedule(
    plans: list,
    *,
    lanes: int = 4,
    report: AnalysisReport | None = None,
    merge_cycles_per_edge: float = MERGE_CYCLES_PER_EDGE,
) -> CertifiedSchedule:
    """Lower a certified batch into a :class:`CertifiedSchedule`.

    Runs :func:`analyze_batch` first when no ``report`` is supplied;
    an uncertified batch raises :class:`~repro.errors.HazardError` —
    the schedule certifier only reorders work the verifier admitted.
    All plans must share one session (cross-graph batches schedule per
    session inside the pool).
    """
    plans = list(plans)
    if lanes < 1:
        raise ConfigError("lanes must be positive")
    sessions = {id(plan.session) for plan in plans}
    if len(sessions) > 1:
        raise ConfigError(
            "certify_schedule takes a single-session batch; the pool "
            "certifies one schedule per session"
        )
    if report is None:
        report = analyze_batch(plans)
    if not report.certified:
        raise HazardError(
            f"cannot schedule an uncertified batch: {report.summary()}",
            details=report.as_dict(),
        )
    nodes: list[ScheduleNode] = []
    node_of: dict[tuple[int, int], int] = {}
    effects = []
    for i, plan in enumerate(plans):
        pid = _plan_id(i, plan)
        for j, stage in enumerate(plan.stages):
            node_id = len(nodes)
            nodes.append(
                ScheduleNode(
                    node_id=node_id,
                    plan_index=i,
                    stage_index=j,
                    plan_id=pid,
                    label=stage.label,
                    kind=stage.kind,
                )
            )
            node_of[(i, j)] = node_id
            effects.append(stage_effects(stage).qualified(pid))
    seen: set[tuple[int, int, str, str | None]] = set()
    edges: list[ScheduleEdge] = []

    def add(src: int, dst: int, kind: str, token: str | None) -> None:
        if src == dst:
            return
        key = (src, dst, kind, token)
        if key not in seen:
            seen.add(key)
            edges.append(ScheduleEdge(src, dst, kind, token))

    # 1. Program order: each plan's stages in compile order.
    for i, plan in enumerate(plans):
        for j in range(1, len(plan.stages)):
            add(node_of[(i, j - 1)], node_of[(i, j)], "program", None)

    # 2. Build-once structures: the first writer in batch order is the
    #    builder; every other toucher (reader or redundant writer) is
    #    ordered after it.  A struct nobody writes is session-prebuilt
    #    and needs no edges.
    touchers: dict[str, list[int]] = {}
    builders: dict[str, int] = {}
    for node_id, eff in enumerate(effects):
        for token in sorted(eff.reads | eff.writes):
            if token.startswith("struct:"):
                touchers.setdefault(token, []).append(node_id)
        for token in sorted(eff.writes):
            if token.startswith("struct:") and token not in builders:
                builders[token] = node_id
    for token, members in touchers.items():
        builder = builders.get(token)
        if builder is None:
            continue
        for node_id in members:
            add(builder, node_id, "struct", token)

    # 3. Dedup groups: owner executes, followers seed from the
    #    published value — the owner must come first in every order.
    #    (a) stage-level sub-request keys, (b) whole-plan cache keys
    #    (owner's last stage before the follower's first).
    stage_groups: dict[tuple, list[int]] = {}
    for i, plan in enumerate(plans):
        for j, stage in enumerate(plan.stages):
            if stage.key is not None:
                stage_groups.setdefault(
                    (*stage.key, plan.version), []
                ).append(node_of[(i, j)])
    for key, members in stage_groups.items():
        owner = members[0]
        for node_id in members[1:]:
            add(owner, node_id, "dedup", f"cache:{key[0]}")
    plan_groups: dict[tuple, list[int]] = {}
    for i, plan in enumerate(plans):
        canon = canonical_param(plan.cache_params)
        if canon is None:
            continue  # uncacheable plan: never deduped, never seeded
        plan_groups.setdefault(
            (plan.name, canon, plan.version), []
        ).append(i)
    for key, members in plan_groups.items():
        owner = members[0]
        owner_last = node_of[(owner, len(plans[owner].stages) - 1)]
        for i in members[1:]:
            add(owner_last, node_of[(i, 0)], "dedup", f"cache:{key[0]}")

    # 4. Remaining cross-plan effect conflicts, serialized in batch
    #    order.  ``state:`` tokens are already plan-qualified (never
    #    collide cross-plan); ``struct:`` conflicts were handled by the
    #    builder edges above.  What is left is the shared set-ID
    #    domain: opaque kernels registering and releasing scratch sets
    #    contend on one set manager, so their WAW serializes until
    #    per-shard contexts land.
    for a in range(len(nodes)):
        pa = nodes[a].plan_index
        for b in range(a + 1, len(nodes)):
            if nodes[b].plan_index == pa:
                continue
            for kind, token in effects[a].conflicts(effects[b]):
                if token.startswith("struct:"):
                    continue
                add(a, b, kind, token)

    return CertifiedSchedule(
        nodes,
        edges,
        lanes=lanes,
        report=report,
        plan_names=tuple(plan.name for plan in plans),
        stage_labels=tuple(tuple(plan.describe()) for plan in plans),
        merge_cycles_per_edge=merge_cycles_per_edge,
    )
