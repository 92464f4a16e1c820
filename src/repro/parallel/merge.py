"""Deterministic host-side merges and the model reconciliation.

Two merge notions meet here, deliberately kept distinct:

* the **data merge** — :func:`merge_partials` reduces the per-shard
  partial count rows of the shared arena in fixed ascending shard
  order.  The shards partition the vertex universe, so the reduction
  is an exact integer sum; the fixed order makes the determinism
  *obvious* (auditable), not merely true.
* the **model merge charge** — :class:`MergeLedger` charges the
  schedule certifier's 32-cycle host fee
  (:data:`~repro.analysis.static.schedule.MERGE_CYCLES_PER_EDGE`) for
  every dependency edge that crosses lanes under the admission lane
  assignment, exactly as ``ScheduleModel`` predicts.  Merge charges
  are model-level coordinator work: they price the synchronization,
  they are **not** added to any tenant's cycle ledger — tenant
  accounting stays bit-identical to sequential.

:func:`reconcile` closes the loop after a parallel run: it re-simulates
the lane timeline with the measured costs in the certifier's exact
float-op order and asserts — term by term, exact equality — that the
run matches :meth:`CertifiedSchedule.what_if`, and that the ledger's
execution-time charges match the admission assignment's cross-edge
count.  A mismatch is a :class:`~repro.errors.SisaError` with the full
diff in ``details``: the parallel subsystem refuses to *report* numbers
the certifier would not have *predicted*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigError, SisaError


def merge_partials(arena: np.ndarray, shards: int, width: int) -> np.ndarray:
    """Reduce the first ``width`` columns of the per-shard arena rows
    in fixed ascending shard order; returns the merged int64 counts."""
    if shards < 1:
        raise ConfigError("shards must be positive")
    merged = arena[0, :width].copy()
    for k in range(1, shards):
        merged += arena[k, :width]
    return merged


@dataclass
class MergeLedger:
    """Execution-time record of the host merge charges of one run.

    Built at admission from the certified schedule and the admission
    lane assignment: every dependency edge whose endpoints sit on
    different lanes owes one host merge when its *destination* node
    runs (the coordinator synchronizes the producer lane's published
    value into the consumer's context).  :meth:`charge` is called by
    the executor as each node completes, so at the end of the run the
    ledger holds exactly the charges the model predicted — or
    :func:`reconcile` raises.
    """

    merge_cycles_per_edge: float
    cross_in_edges: dict[int, int]
    charged_nodes: list[int] = field(default_factory=list)
    cross_edges: int = 0

    @classmethod
    def from_schedule(cls, schedule, lane_of: dict[int, int]) -> "MergeLedger":
        cross_in: dict[int, int] = {}
        for edge in schedule.edges:
            if lane_of[edge.src] != lane_of[edge.dst]:
                cross_in[edge.dst] = cross_in.get(edge.dst, 0) + 1
        return cls(
            merge_cycles_per_edge=float(schedule.merge_cycles_per_edge),
            cross_in_edges=cross_in,
        )

    def charge(self, node_id: int) -> int:
        """Charge the host merges owed by ``node_id``'s cross-lane
        in-edges; returns how many were charged (0 for a node fed
        entirely from its own lane)."""
        owed = self.cross_in_edges.get(int(node_id), 0)
        if owed:
            self.charged_nodes.append(int(node_id))
            self.cross_edges += owed
        return owed

    @property
    def expected_cross_edges(self) -> int:
        """Total cross-lane edges under the admission assignment."""
        return sum(self.cross_in_edges.values())

    @property
    def merge_cycles(self) -> float:
        return self.merge_cycles_per_edge * self.cross_edges

    def as_dict(self) -> dict[str, Any]:
        return {
            "merge_cycles_per_edge": self.merge_cycles_per_edge,
            "cross_edges": self.cross_edges,
            "merge_cycles": self.merge_cycles,
            "charged_nodes": list(self.charged_nodes),
        }


@dataclass(frozen=True)
class ParallelReport:
    """The reconciled outcome of one parallel batch execution."""

    lanes: int
    shards: int
    makespan: float
    merge_cycles: float
    cross_edges: int
    parallel_cycles: float  # makespan + merge charge, == what_if()
    sequential_cycles: float
    lane_busy: tuple[float, ...]
    lane_work: tuple[float, ...]  # pure per-lane work (no idle gaps)
    lane_max_occupancy: float  # max lane work / makespan
    lane_mean_occupancy: float  # mean lane work / makespan
    admission_cross_edges: int  # ledger charges (admission lane map)
    admission_merge_cycles: float
    shard_vertices: tuple[int, ...]
    offloaded_units: int
    inline_units: int

    @property
    def speedup(self) -> float:
        """Modeled sequential/parallel ratio (1.0 for an empty run)."""
        if self.parallel_cycles <= 0.0:
            return 1.0
        return self.sequential_cycles / self.parallel_cycles

    def as_dict(self) -> dict[str, Any]:
        return {
            "lanes": self.lanes,
            "shards": self.shards,
            "makespan": self.makespan,
            "merge_cycles": self.merge_cycles,
            "cross_edges": self.cross_edges,
            "parallel_cycles": self.parallel_cycles,
            "sequential_cycles": self.sequential_cycles,
            "speedup": self.speedup,
            "lane_busy": list(self.lane_busy),
            "lane_work": list(self.lane_work),
            "lane_max_occupancy": self.lane_max_occupancy,
            "lane_mean_occupancy": self.lane_mean_occupancy,
            "admission_cross_edges": self.admission_cross_edges,
            "admission_merge_cycles": self.admission_merge_cycles,
            "shard_vertices": list(self.shard_vertices),
            "offloaded_units": self.offloaded_units,
            "inline_units": self.inline_units,
        }


def reconcile(
    schedule,
    lanes: int,
    ledger: MergeLedger,
    *,
    shards: int,
    shard_vertices: tuple[int, ...],
    offloaded_units: int,
    inline_units: int,
) -> ParallelReport:
    """Reconcile one parallel run against the certifier's model.

    Re-simulates the lane timeline with the measured costs in
    :meth:`CertifiedSchedule.what_if`'s exact float-op order (same
    ``max``/add sequencing, so equality can be exact, not approximate)
    and asserts every modeled component matches; separately asserts the
    execution-time ledger charged exactly the admission assignment's
    cross-lane edges.  Raises :class:`~repro.errors.SisaError` with the
    full mismatch in ``details`` rather than reporting unreconciled
    numbers.
    """
    if not schedule.measured:
        raise SisaError(
            "cannot reconcile an unmeasured schedule: the replay must "
            "record every node cost",
            details={
                "nodes": len(schedule.nodes),
                "measured": len(schedule.costs),
            },
        )
    lane_of, __ = schedule.assign(lanes)
    n = len(schedule.nodes)
    lane_busy = [0.0] * lanes
    lane_work = [0.0] * lanes
    finish = [0.0] * n
    for node in schedule.order:
        est = max((finish[p] for p in schedule.preds[node]), default=0.0)
        lane = lane_of[node]
        t0 = max(lane_busy[lane], est)
        t1 = t0 + schedule.costs[node]
        finish[node] = t1
        lane_busy[lane] = t1
        lane_work[lane] += schedule.costs[node]
    cross = sum(
        1 for e in schedule.edges if lane_of[e.src] != lane_of[e.dst]
    )
    makespan = max(lane_busy, default=0.0)
    merge = schedule.merge_cycles_per_edge * cross
    model = schedule.what_if(lanes)
    mismatches: dict[str, Any] = {}
    if makespan != model.makespan:
        mismatches["makespan"] = [makespan, model.makespan]
    if merge != model.merge_cycles:
        mismatches["merge_cycles"] = [merge, model.merge_cycles]
    if cross != model.cross_edges:
        mismatches["cross_edges"] = [cross, model.cross_edges]
    if tuple(lane_busy) != model.lane_busy:
        mismatches["lane_busy"] = [list(lane_busy), list(model.lane_busy)]
    if makespan + merge != model.parallel_cycles:
        mismatches["parallel_cycles"] = [
            makespan + merge, model.parallel_cycles
        ]
    if mismatches:
        raise SisaError(
            "parallel run does not reconcile with the certified "
            "schedule's what-if model",
            details={"lanes": lanes, "mismatches": mismatches},
        )
    if ledger.cross_edges != ledger.expected_cross_edges:
        raise SisaError(
            "merge ledger charges do not match the admission "
            "assignment's cross-lane edges",
            details={
                "charged": ledger.cross_edges,
                "expected": ledger.expected_cross_edges,
            },
        )
    if makespan > 0.0:
        max_occ = max(lane_work) / makespan
        mean_occ = sum(lane_work) / (lanes * makespan)
    else:
        max_occ = 0.0
        mean_occ = 0.0
    return ParallelReport(
        lanes=lanes,
        shards=shards,
        makespan=makespan,
        merge_cycles=merge,
        cross_edges=cross,
        parallel_cycles=makespan + merge,
        sequential_cycles=model.sequential_cycles,
        lane_busy=tuple(lane_busy),
        lane_work=tuple(lane_work),
        lane_max_occupancy=max_occ,
        lane_mean_occupancy=mean_occ,
        admission_cross_edges=ledger.cross_edges,
        admission_merge_cycles=ledger.merge_cycles,
        shard_vertices=tuple(int(v) for v in shard_vertices),
        offloaded_units=int(offloaded_units),
        inline_units=int(inline_units),
    )
