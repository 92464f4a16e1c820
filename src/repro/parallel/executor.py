"""The parallel executor: a certified schedule on real worker shards.

:class:`ParallelExecutor` subclasses the scheduled
:class:`~repro.session.plan.PlanExecutor` replay and overrides exactly
four seams:

* :meth:`_before_node` — the :class:`LaneGate` admits a node only when
  every ``happens_before`` ancestor completed, presenting the lane
  ticket the certifier's deterministic list scheduler assigned;
* :meth:`_fanout` — a neighbourhood fan-out stage runs as the
  sequential replay's chunked program with the
  :class:`~repro.parallel.workers.ShardRuntime` as its count provider:
  each chunk's offloaded bursts go to the workers in one ``pairs``
  message;
* :meth:`_counts` — every other count-form burst unit (the
  ``similarity_pairs`` frontiers) goes to the runtime on its own: one
  ``pairs`` message per offloaded burst, through the same worker
  kernel;
* :meth:`_after_node` — the gate marks the node complete and the
  :class:`~repro.parallel.merge.MergeLedger` charges the modeled host
  merges owed by the node's cross-lane in-edges.

Worker counts are per-shard partials merged in fixed shard order and
fed back into the runtime's dispatch seams, which still perform the
identical SCU dispatch, engine charge and tracing — so modeled cycles,
ledgers and outputs are bit-identical to the sequential replay.

After the batch, :meth:`execute` reconciles measured per-node costs
against :meth:`CertifiedSchedule.what_if` (exact equality, or
:class:`~repro.errors.SisaError`) and publishes the
:class:`~repro.parallel.merge.ParallelReport` plus per-shard spans and
lane-utilization gauges to the observability hub.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.errors import ConfigError, SisaError
from repro.parallel.merge import MergeLedger, ParallelReport, reconcile
from repro.session.plan import BurstUnit, Fanout, PlanExecutor


class LaneGate:
    """Admission control over one schedule's dependency DAG.

    Carries the certification-time lane assignment as the admission
    ticket: a node may start only when every DAG predecessor has
    completed (checked against a completion bitmask — the certifier's
    own ``happens_before`` representation), and its ticket names the
    lane whose logical context executes it.  Violations are certifier
    bugs, not user errors, and raise structured
    :class:`~repro.errors.SisaError`.
    """

    def __init__(self, schedule, lane_of: dict[int, int]):
        self.schedule = schedule
        self.lane_of = dict(lane_of)
        self._done_mask = 0

    def admit(self, node_id: int) -> int:
        """Admit ``node_id``; returns its lane ticket."""
        node_id = int(node_id)
        missing = [
            p
            for p in self.schedule.preds[node_id]
            if not (self._done_mask >> p) & 1
        ]
        if missing:
            raise SisaError(
                f"schedule node {node_id} admitted before its "
                "happens-before ancestors completed",
                details={"node": node_id, "incomplete_preds": missing},
            )
        return self.lane_of[node_id]

    def complete(self, node_id: int) -> None:
        self._done_mask |= 1 << int(node_id)


class ParallelExecutor(PlanExecutor):
    """Scheduled replay whose count bursts execute on shard workers.

    Construction mirrors the scheduled :class:`PlanExecutor` (the pool
    passes ``schedule=`` and optionally ``access_log=``) plus the
    shard ``runtime`` and the lane width.  The host thread still drives
    every node in the certified topological order — lane parallelism is
    priced by the model, shard parallelism is physical — which keeps
    SCU state, set-ID allocation and the SMB trajectory identical to
    the sequential reference while the actual set scans fan out across
    worker processes.
    """

    def __init__(self, session, *, runtime, lanes: int | None = None, **kwargs):
        super().__init__(session, **kwargs)
        if self.schedule is None:
            raise ConfigError(
                "ParallelExecutor requires a certified schedule"
            )
        if runtime is None:
            raise ConfigError(
                "ParallelExecutor requires a ShardRuntime"
            )
        self.runtime = runtime
        self.lanes = int(lanes) if lanes is not None else self.schedule.lanes
        if self.lanes < 1:
            raise ConfigError("lanes must be positive")
        # Admission assignment: the list scheduler's placement under
        # whatever costs are recorded *now* (certification costs on a
        # fresh schedule).  Reconcile re-derives it under measured
        # costs; both run through the same public seam.
        lane_of, __ = self.schedule.assign(self.lanes)
        self.gate = LaneGate(self.schedule, lane_of)
        self.ledger = MergeLedger.from_schedule(self.schedule, lane_of)
        self._offloaded_before = runtime.offloaded_units
        self._inline_before = runtime.inline_units
        self.report: ParallelReport | None = None

    # -- the four seams ------------------------------------------------

    def _before_node(self, node_id: int) -> None:
        self.gate.admit(node_id)

    def _after_node(self, node_id: int, cycles: float) -> None:
        self.gate.complete(node_id)
        self.ledger.charge(node_id)

    def _fanout(self, fanout: Fanout, state: dict) -> None:
        provider = partial(self.runtime.fanout_partials, self.session)
        fanout.run(self.session, state, provider=provider)

    def _counts(self, unit: BurstUnit) -> np.ndarray:
        inter = self.runtime.partial_counts(
            self.session, unit.a, unit.bs
        )
        return self.session.ctx.count_burst(
            unit.a, unit.bs, kind=unit.kind, inter=inter
        )

    # -- entry point ---------------------------------------------------

    def execute(self, plans):
        results = super().execute(plans)
        self.report = reconcile(
            self.schedule,
            self.lanes,
            self.ledger,
            shards=self.runtime.shards,
            shard_vertices=self.runtime.plan.vertex_counts,
            offloaded_units=self.runtime.offloaded_units
            - self._offloaded_before,
            inline_units=self.runtime.inline_units - self._inline_before,
        )
        for result in results:
            result.parallel = True
        obs = getattr(self.session, "obs", None)
        if obs is not None:
            obs.parallel_run(self.report)
        return results
