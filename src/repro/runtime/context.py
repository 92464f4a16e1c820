"""The SISA runtime context: functional execution plus timing simulation.

A :class:`SisaContext` is the entry point for running set-centric
algorithms.  It plays the role of the whole simulated machine:

* it holds the Set Metadata table and hands out logical set IDs,
* every set operation runs *functionally* (exact results, via
  ``repro.sets.kernels``) and is *costed* by the SCU dispatch model,
* costs land on the simulated thread lane of the currently running
  task (``repro.hw.engine``), giving deterministic parallel runtimes.

Execution modes (the three bars of the paper's Fig. 6):

* ``mode="sisa"``      — set ops offloaded to PIM (SISA-PUM/PNM),
* ``mode="cpu-set"``   — same set-centric algorithms, set ops executed
  by the host CPU model (the ``_set-based`` baseline),

The ``_non-set`` baselines do not use a SisaContext at all; they charge
a :class:`~repro.baselines.cpu_kernels.CpuCostModel` directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ConfigError
from repro.hw.config import CpuConfig, HardwareConfig
from repro.hw.cost import Cost
from repro.hw.engine import EngineMark, EngineReport, ExecutionEngine
from repro.isa.metadata import SetMetadataTable
from repro.isa.opcodes import Opcode, SetOp
from repro.isa.scu import DispatchStats, OperandTable, Scu
from repro.runtime import batch as batchmod
from repro.runtime.trace import Trace, TraceEvent
from repro.sets import kernels
from repro.sets.base import Representation, VertexSet
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import WORD_BITS, SparseArray

MODES = ("sisa", "cpu-set")

#: Budgets of one chunk of a :class:`FanoutProgram`: at most this many
#: instructions, and at most this much probe volume (the elements the
#: chunk's flat probe searches, ``Σ min(|N(u)|, |N(v)|)`` over its ops).
#: A chunk ends at the last task boundary within both (or after one
#: task, if that task alone exceeds one), so its transient arrays and
#: per-op cost lists stay small whatever the graph's size and however
#: large its hubs.
FANOUT_CHUNK_OPS = 1024
FANOUT_CHUNK_PROBE = 16384

#: Each scalar binary op's function in :mod:`repro.sets.kernels`, by
#: name (looked up per call, as a direct ``kernels.<name>(...)`` call
#: is, so a patched module function is the one that runs), and whether
#: the op is a count form.
_KERNELS = {
    SetOp.INTERSECT: ("intersect", False),
    SetOp.UNION: ("union", False),
    SetOp.DIFFERENCE: ("difference", False),
    SetOp.INTERSECT_COUNT: ("intersect_cardinality", True),
    SetOp.UNION_COUNT: ("union_cardinality", True),
    SetOp.DIFFERENCE_COUNT: ("difference_cardinality", True),
}


class FanoutProgram:
    """A neighbourhood fan-out as a chunked array program.

    ``set_ids[v]`` names ``N(v)``, whose elements are vertices; task
    ``v`` is the count burst ``N(v) ∩ N(u)`` for every ``u ∈ N(v)``.
    The operand table (:class:`~repro.isa.scu.OperandTable`) and the
    element rows (:class:`~repro.runtime.batch.FanoutRows`) are built
    once; chunks of consecutive tasks are built one at a time, on
    demand: each chunk's op rows, its counts, and its operand shape
    codes.  Building touches no modeled state.

    ``provider``, when given, is called once per chunk that has ops,
    with the program (chunk current, op rows built), and returns the
    chunk's per-op ``|N(v) ∩ N(u)|`` array, or ``None`` to count with
    the host's flat probe (:meth:`~repro.runtime.batch.FanoutRows.
    intersect_counts`) — the fan-out analogue of
    :meth:`SisaContext.count_burst`'s ``inter``, through which the
    shard-parallel workers of :mod:`repro.parallel` feed their counts.
    """

    def __init__(self, sm, set_ids, provider=None):
        metas = sm.metas_of(set_ids)
        self.set_ids = set_ids
        self.provider = provider
        self.table = OperandTable(SetOp.INTERSECT_COUNT, metas)
        self.rows = batchmod.FanoutRows(
            sm.values_of(set_ids), metas[0].universe if metas else 0
        )
        self.size = len(metas)
        self.v0 = self.v1 = 0
        self.bounds = [0]

    def chunk(self, v0: int) -> None:
        """Make the chunk that starts at task ``v0`` current: tasks
        ``v0 .. v1 - 1``, whose ops ``bounds[t] .. bounds[t + 1] - 1``
        belong to task ``v0 + t``, which sums their counts to
        ``sums[t]``.  Op ``i`` is row ``a_rows[i]`` against row
        ``b_rows[i]`` (set id ``ids[i]``, cardinality ``cards[i]``), with
        ``counts[i]`` and shape ``codes[i]``."""
        rows = self.rows
        table = self.table
        v1 = rows.chunk_end(v0, FANOUT_CHUNK_OPS, FANOUT_CHUNK_PROBE)
        lo = int(rows.indptr[v0])
        bounds = rows.indptr[v0:v1 + 1] - lo
        k = int(bounds[-1])
        self.v0, self.v1 = v0, v1
        self.bounds = bounds.tolist()
        if not k:
            return
        self.a_rows = np.repeat(np.arange(v0, v1), rows.cards[v0:v1])
        self.b_rows = rows.col[lo:lo + k]
        self.ids = table.ids[self.b_rows].tolist()
        self.cards = table.cards[self.b_rows].tolist()
        counts = self.provider(self) if self.provider is not None else None
        if counts is None:
            counts = rows.intersect_counts(self.a_rows, self.b_rows)
        self.counts = counts
        self.codes = table.shape_codes(self.a_rows, self.b_rows).tolist()
        cum = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(self.counts, out=cum[1:])
        self.sums = cum[bounds[1:]] - cum[bounds[:-1]]


class BfsProgram:
    """A BFS's level tasks as chunked array programs.

    ``set_ids[v]`` names ``N(v)``; ``parent`` is the traversal's parent
    array, which every chunk updates.  The operand table (rows are the
    neighbourhoods; its decision columns fill with the intersect shapes
    of every level) and the element rows are built once per traversal.
    Building touches no modeled state.
    """

    def __init__(self, sm, set_ids, parent: np.ndarray):
        self.table = OperandTable(SetOp.INTERSECT, sm.metas_of(set_ids))
        self.rows = batchmod.SetRows(sm.values_of(set_ids))
        self.parent = parent


@dataclass
class FusedFanout:
    """Outcome of :meth:`SisaContext.fused_fanout`: each constituent's
    burst sum and (with observability on) modeled burst cycles, and each
    owner's stats delta."""

    sums: list
    cycles: list[float] | None
    stats: list[DispatchStats]


@dataclass(frozen=True)
class ContextMark:
    """Run boundary on a long-lived context (see :meth:`SisaContext.mark`)."""

    engine: "EngineMark"
    stats: "DispatchStats"
    registrations: int


class SisaContext:
    """Simulated machine state for one algorithm run."""

    def __init__(
        self,
        *,
        threads: int = 32,
        mode: str = "sisa",
        hw: HardwareConfig | None = None,
        cpu: CpuConfig | None = None,
        gallop_threshold: float | None = None,
        smb_enabled: bool = True,
        trace: bool = False,
        decision_memo: dict | None = None,
        observability=None,
    ):
        if mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.hw = hw or HardwareConfig()
        self.cpu = cpu or CpuConfig()
        self.threads = threads
        self.scu = Scu(
            self.hw,
            host_fallback=(mode == "cpu-set"),
            cpu=self.cpu,
            gallop_threshold=gallop_threshold,
            smb_enabled=smb_enabled,
            decision_memo=decision_memo,
        )
        self.sm = SetMetadataTable()
        self.trace = Trace(enabled=trace)
        if mode == "sisa":
            # Bandwidth proportionality (Tesseract): each lane maps to a
            # vault whose full bandwidth it enjoys.
            lanes = min(threads, self.hw.num_vaults)
            bytes_per_cycle = self.hw.vault_bytes_per_cycle
            self.engine = ExecutionEngine(lanes, bytes_per_cycle)
        else:
            lanes = min(threads, self.cpu.max_threads)
            bytes_per_cycle = self.cpu.effective_bandwidth_bytes_per_cycle(lanes)
            self.engine = ExecutionEngine(lanes, bytes_per_cycle)
        self._current_lane = 0
        # Scan costs are pure functions of the set size; cache them so
        # the per-iteration model bookkeeping stays off the hot path.
        self._scan_costs: dict[int, Cost] = {}
        # Optional observability hub (repro.observability), shared with
        # the SCU.  Nullable and observation-only: kernel spans and
        # burst histograms are fed at batch granularity, after the
        # engine charge, from the same BatchDispatch components — so
        # enabling it cannot change modeled cycles or outputs.
        self.obs = observability
        self.scu.obs = observability

    # ------------------------------------------------------------------
    # Task scheduling
    # ------------------------------------------------------------------

    def begin_task(self) -> int:
        """Start a parallel task ("[in par]" loop body in the listings)."""
        self._current_lane = self.engine.begin_task()
        return self._current_lane

    @contextmanager
    def on_lane(self, lane: int) -> Iterator[int]:
        """Pin charging to an already-placed task's lane (fused burst
        execution: ops of a deferred unit must land where its
        ``begin_task`` placed it)."""
        prev = self._current_lane
        with self.engine.on_lane(lane):
            self._current_lane = lane
            try:
                yield lane
            finally:
                self._current_lane = prev

    # ------------------------------------------------------------------
    # Set lifecycle
    # ------------------------------------------------------------------

    def create_set(
        self,
        elements: Iterable[int] | np.ndarray = (),
        *,
        universe: int,
        dense: bool = False,
        sorted_: bool | None = None,
        charge: bool = True,
    ) -> int:
        """Create a set and return its logical set ID.

        ``dense=True`` requests a dense bitvector.  Auxiliary bitsets
        are honored on the ``cpu-set`` host baseline too (tuned CPU
        set-centric codes use std::bitset-style auxiliaries; the paper
        notes matching Eppstein's bound requires bitvector P and X) —
        what the host lacks is SISA's *neighborhood* DB representation
        and the PIM execution of the operations.
        """
        if dense:
            value: VertexSet = DenseBitvector.from_elements(
                np.asarray(list(elements) if not isinstance(elements, np.ndarray) else elements),
                universe,
            )
        else:
            value = SparseArray(
                np.asarray(list(elements) if not isinstance(elements, np.ndarray) else elements),
                universe,
                sorted_=sorted_,
            )
        return self.register(value, charge=charge)

    def register(self, value: VertexSet, *, charge: bool = True) -> int:
        """Register an existing set value; optionally charge allocation."""
        set_id = self.sm.register(value)
        if charge:
            dispatch = self.scu.dispatch_create(
                value.cardinality,
                dense=isinstance(value, DenseBitvector),
                universe=value.universe,
            )
            self.engine.charge(dispatch.cost)
        return set_id

    def free(self, set_id: int) -> None:
        dispatch = self.scu.dispatch_delete(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        self.sm.delete(set_id)

    def release(self, set_id: int) -> None:
        """Model-internal set teardown (graph unloading): drop the SM
        entry and invalidate any cached SMB entry without dispatching a
        DELETE instruction.  Counterpart of ``register(charge=False)``
        — used for structures whose setup was outside the measured
        region.  The SMB invalidation matters: freed IDs are recycled,
        and a stale SMB entry would turn a recycled set's first
        metadata fetch into a false hit."""
        self.scu.smb.invalidate(set_id)
        self.sm.delete(set_id)

    def clone(self, set_id: int) -> int:
        dispatch = self.scu.dispatch_clone(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        return self.sm.register(self.sm.value(set_id))

    def value(self, set_id: int) -> VertexSet:
        """Raw set value (model-internal; charges nothing)."""
        return self.sm.value(set_id)

    # ------------------------------------------------------------------
    # Binary operations
    # ------------------------------------------------------------------

    def _binary(self, op: SetOp, a: int, b: int):
        """Binary op ``a op b``: exact result plus modeled cost.

        Materializing ops return the result set; count forms (§6.2.3)
        return its cardinality, computed by the zero-materialization
        kernels — no result set is allocated for any representation
        pair.
        """
        name, count_only = _KERNELS[op]
        va, vb = self.sm.value(a), self.sm.value(b)
        result = getattr(kernels, name)(va, vb)
        size = result if count_only else result.cardinality
        dispatch = self.scu.dispatch_binary(
            op,
            self.sm.meta(a),
            self.sm.meta(b),
            output_size=0 if count_only else size,
            count_only=count_only,
        )
        self.engine.charge(dispatch.cost)
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(
                    opcode=dispatch.opcode,
                    lane=self._current_lane,
                    size_a=va.cardinality,
                    size_b=vb.cardinality,
                    output_size=size,
                    backend=dispatch.backend,
                    variant=dispatch.variant,
                )
            )
        return result

    def intersect(self, a: int, b: int) -> int:
        return self.sm.register(self._binary(SetOp.INTERSECT, a, b))

    def union(self, a: int, b: int) -> int:
        return self.sm.register(self._binary(SetOp.UNION, a, b))

    def difference(self, a: int, b: int) -> int:
        return self.sm.register(self._binary(SetOp.DIFFERENCE, a, b))

    def intersect_count(self, a: int, b: int) -> int:
        return self._binary(SetOp.INTERSECT_COUNT, a, b)

    def union_count(self, a: int, b: int) -> int:
        return self._binary(SetOp.UNION_COUNT, a, b)

    def difference_count(self, a: int, b: int) -> int:
        return self._binary(SetOp.DIFFERENCE_COUNT, a, b)

    # ------------------------------------------------------------------
    # Batched count operations (amortized dispatch over a frontier)
    # ------------------------------------------------------------------

    def count_burst(
        self,
        a: int,
        bs,
        *,
        kind: str = "intersect",
        inter=None,
        include_decode: bool | None = None,
    ) -> np.ndarray:
        """Count-form ``|A ∩ B_i|`` (``kind="intersect"``) or ``|A ∪
        B_i|`` (``kind="union"``) for a whole frontier ``bs``.

        Functionally one vectorized kernel over the concatenated
        operand arrays (see :mod:`repro.runtime.batch`).  Timing-wise,
        with ``include_decode=None``, an amortized SCU dispatch
        (:meth:`~repro.isa.scu.Scu.dispatch_binary_batch`) whose per-op
        costs, stats and SMB behaviour — and therefore simulated cycles —
        are identical to issuing the ops sequentially on the current
        task's lane.  With ``include_decode`` a bool, the burst is one
        constituent of a fused cross-task macro, charged to the current
        lane under the fused rule of
        :meth:`~repro.isa.scu.Scu.dispatch_binary_batch` (one macro
        decode per fused group, charged when ``include_decode``; one
        probe-metadata lookup per constituent).
        Plan executors wrap each constituent in :meth:`on_lane` so the
        charges land on the lane the unit's task was placed on.

        ``inter`` supplies the per-operand intersection cardinalities
        precomputed elsewhere (a fan-out program's chunk probe, or the
        shard-parallel workers of :mod:`repro.parallel`, which merge
        per-shard partials into exactly the array
        :func:`repro.runtime.batch.intersect_counts` would have
        produced); the functional kernel is then skipped while the SCU
        dispatch, engine charge, SMB trajectory and trace are issued
        unchanged — the simulated machine cannot tell who computed the
        counts.
        """
        sm = self.sm
        n = len(bs)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        obs = self.obs
        fused = include_decode is not None
        span = (
            obs.kernel_start(f"fused_{kind}" if fused else f"{kind}_count", n)
            if obs is not None
            else None
        )
        va = sm.value(a)
        metas = sm.metas_of(bs)
        if inter is None:
            inter = batchmod.intersect_counts(va, sm.values_of(bs))
        if kind == "intersect":
            op, counts = SetOp.INTERSECT_COUNT, inter
        else:
            cards = np.fromiter((m.cardinality for m in metas), np.int64, n)
            op = SetOp.UNION_COUNT
            counts = batchmod.derive_counts(kind, va.cardinality, cards, inter)
        bd = self.scu.dispatch_binary_batch(
            op, sm.meta(a), metas, count_only=True, include_decode=include_decode
        )
        self._charge_burst(bd, span, va.cardinality, metas, counts)
        return counts

    def intersect_count_batch(self, a: int, bs, *, inter=None) -> np.ndarray:
        """``|A ∩ B_i|`` for every set id in ``bs`` (one batched
        instruction burst; no result sets are materialized)."""
        return self.count_burst(a, bs, inter=inter)

    def union_count_batch(self, a: int, bs, *, inter=None) -> np.ndarray:
        """``|A ∪ B_i|`` for every set id in ``bs``."""
        return self.count_burst(a, bs, kind="union", inter=inter)

    def intersect_batch(self, a: int, bs) -> list[int]:
        """Materializing batched intersection ``A ∩ B_i`` over a
        frontier: returns one new set id per operand.

        Functionally one vectorized probe pass (results are zero-copy
        slices of the flattened hit array); the modeled cost, stats and
        SMB behaviour are identical to issuing the ``intersect`` ops
        sequentially (results are registered after the dispatch phase,
        which charges nothing and touches no modeled state)."""
        if not len(bs):
            return []
        sm = self.sm
        obs = self.obs
        span = (
            obs.kernel_start("intersect_batch", len(bs)) if obs is not None else None
        )
        va = sm.value(a)
        metas = sm.metas_of(bs)
        results = batchmod.intersect_values(va, sm.values_of(bs))
        output_sizes = [r.cardinality for r in results]
        bd = self.scu.dispatch_binary_batch(
            SetOp.INTERSECT,
            sm.meta(a),
            metas,
            output_sizes=output_sizes,
            count_only=False,
        )
        self._charge_burst(bd, span, va.cardinality, metas, output_sizes)
        register = sm.register
        return [register(r) for r in results]

    def _charge_burst(self, bd, span, size_a: int, metas, outputs) -> None:
        """The shared tail of a frontier burst: charge the batched
        dispatch ``bd`` to the current lane, close the burst's kernel
        ``span`` and record one trace event per operand (``outputs[i]``
        is operand ``i``'s result size)."""
        self.engine.charge_batch(bd.compute, bd.memory, bd.latency)
        obs = self.obs
        if obs is not None:
            obs.kernel_end(
                span,
                sum(bd.compute)
                + sum(bd.latency)
                + sum(bd.memory) / self.engine.bytes_per_cycle,
                size_a,
                (m.cardinality for m in metas),
            )
        if self.trace.enabled:
            lane = self._current_lane
            for i, meta in enumerate(metas):
                self.trace.record(
                    TraceEvent(
                        opcode=bd.opcodes[i],
                        lane=lane,
                        size_a=size_a,
                        size_b=meta.cardinality,
                        output_size=int(outputs[i]),
                        backend=bd.backends[i],
                        variant=bd.variants[i],
                    )
                )

    def fanout_counts(self, set_ids, *, provider=None) -> np.ndarray:
        """Per-vertex ``Σ_{u ∈ N(v)} |N(v) ∩ N(u)|`` over a whole
        neighbourhood fan-out, run as one chunked array program
        (``provider`` as :class:`FanoutProgram` takes it).

        ``set_ids[v]`` names ``N(v)``, whose elements are vertices.  The
        instruction stream, and with it every modeled cycle, stat, SMB
        entry and trace event, is exactly that of the per-burst loop::

            for v in range(len(set_ids)):
                begin_task()
                nbrs = elements(set_ids[v])
                if nbrs.size:
                    intersect_count_batch(set_ids[v], [set_ids[u] for u in nbrs])

        Only host work is amortized.  Each chunk of a
        :class:`FanoutProgram` has its SMB trajectory, variant decisions
        and per-op costs dispatched by one
        :meth:`~repro.isa.scu.Scu.dispatch_count_fanout`; the task loop
        then places each task, charges its scan and its ops, and feeds
        each burst's observations.  One kernel span covers a chunk.
        """
        n = len(set_ids)
        sums = np.zeros(n, dtype=np.int64)
        if n == 0:
            return sums
        program = FanoutProgram(self.sm, set_ids, provider)
        while program.v1 < n:
            program.chunk(program.v1)
            self._fanout_chunk(program, sums)
        return sums

    def _fanout_chunk(self, program: FanoutProgram, sums: np.ndarray) -> None:
        """The current chunk of :meth:`fanout_counts`; its tasks' burst
        sums land in ``sums``."""
        engine = self.engine
        scan_costs = self._scan_costs
        v0, v1 = program.v0, program.v1
        bounds = program.bounds
        degrees = program.rows.cards[v0:v1].tolist()
        k = bounds[-1]
        if k == 0:
            for size in degrees:
                self._current_lane = engine.begin_task()
                engine.charge(scan_costs.get(size) or self._scan_cost(size))
            return
        obs = self.obs
        span = obs.kernel_start("intersect_fanout", k) if obs is not None else None
        table = program.table
        cards, counts = program.cards, program.counts
        sums[v0:v1] = program.sums
        fd = self.scu.dispatch_count_fanout(
            table, program.a_rows, program.b_rows, program.codes
        )
        compute, memory, latency = fd.compute, fd.memory, fd.latency
        tracing = self.trace.enabled
        span_cycles = 0.0
        for t, size in enumerate(degrees):
            lane = self._current_lane = engine.begin_task()
            engine.charge(scan_costs.get(size) or self._scan_cost(size))
            i0 = bounds[t]
            i1 = bounds[t + 1]
            if i0 == i1:
                continue
            engine.charge_batch(compute[i0:i1], memory[i0:i1], latency[i0:i1])
            if obs is not None:
                cycles = (
                    sum(compute[i0:i1])
                    + sum(latency[i0:i1])
                    + sum(memory[i0:i1]) / engine.bytes_per_cycle
                )
                span_cycles += cycles
                obs.burst(cycles, size, cards[i0:i1])
            if tracing:
                self._trace_table_ops(
                    table, fd.shape[i0:i1], lane, size, cards[i0:i1], counts[i0:i1]
                )
        if obs is not None:
            obs.spans.end(span, cycles=span_cycles)

    def fanout_tasks(self, program: FanoutProgram) -> Iterator[tuple[int, int]]:
        """Open ``program``'s tasks one by one, as the per-burst loop of
        :meth:`fanout_counts` opens them (``begin_task`` and the charged
        scan of ``N(v)``), yielding ``(v, lane)`` for every task whose
        burst is non-empty; :meth:`fused_fanout` issues those bursts."""
        engine = self.engine
        scan_costs = self._scan_costs
        for v, size in enumerate(program.rows.cards.tolist()):
            lane = self._current_lane = engine.begin_task()
            engine.charge(scan_costs.get(size) or self._scan_cost(size))
            if size:
                yield v, lane

    def fanout_burst(self, program: FanoutProgram, v: int):
        """Issue task ``v``'s burst of ``program`` unfused, in place, on
        the current lane (the task :meth:`fanout_tasks` just opened):
        the instruction stream of ``intersect_count_batch(set_ids[v],
        [set_ids[u] for u in N(v)])``, counted by the program's chunk
        probe.  Returns the burst sum."""
        if not program.v0 <= v < program.v1:
            program.chunk(v)
        t = v - program.v0
        i0 = program.bounds[t]
        i1 = program.bounds[t + 1]
        self.count_burst(
            program.set_ids[v], program.ids[i0:i1], inter=program.counts[i0:i1]
        )
        return program.sums[t]

    def fused_fanout(
        self, tasks, groups: list[int], *, include_decode: bool, enter
    ) -> FusedFanout:
        """A fused macro's run of fan-out constituent bursts.

        ``tasks`` holds one ``(program, v, lane)`` per constituent, in
        issue order: the count burst of task ``v`` of ``program``, whose
        task :meth:`fanout_tasks` opened on ``lane``.  ``groups[c]``
        numbers constituent ``c``'s owner, and ``enter(c)`` is called
        before anything of constituent ``c`` is charged or observed (the
        macro's dispatch counts as constituent 0's).

        Modeled state ends exactly as after one fused :meth:`count_burst`
        per constituent, in order, each on its lane, with
        ``include_decode`` on the first.  The counts come from the
        programs' chunk probes, the SCU work is one
        :meth:`~repro.isa.scu.Scu.dispatch_fused_fanout`, and each
        constituent is charged with one ``charge_batch`` on its lane and
        keeps its burst observations and trace events.
        """
        bursts = []
        views = []
        for program, v, __ in tasks:
            if not program.v0 <= v < program.v1:
                program.chunk(v)
            t = v - program.v0
            i0 = program.bounds[t]
            i1 = program.bounds[t + 1]
            bursts.append(
                (
                    program.table,
                    v,
                    program.codes[i0:i1],
                    program.b_rows[i0:i1],
                    program.ids[i0:i1],
                )
            )
            # The chunk may be replaced by a later constituent's.
            views.append(
                (program.cards[i0:i1], program.counts[i0:i1], program.sums[t])
            )
        enter(0)
        fd = self.scu.dispatch_fused_fanout(
            bursts, groups, include_decode=include_decode
        )
        engine = self.engine
        bpc = engine.bytes_per_cycle
        obs = self.obs
        tracing = self.trace.enabled
        compute, memory, latency = fd.compute, fd.memory, fd.latency
        cycles: list[float] | None = [] if obs is not None else None
        i0 = 0
        for c, ((program, v, lane), (cards, counts, __)) in enumerate(
            zip(tasks, views)
        ):
            i1 = i0 + len(cards)
            enter(c)
            with engine.on_lane(lane):
                engine.charge_batch(compute[i0:i1], memory[i0:i1], latency[i0:i1])
            size_a = int(program.rows.cards[v])
            if cycles is not None:
                burst = (
                    sum(compute[i0:i1])
                    + sum(latency[i0:i1])
                    + sum(memory[i0:i1]) / bpc
                )
                cycles.append(burst)
                obs.burst(burst, size_a, cards)
            if tracing:
                self._trace_table_ops(
                    program.table, fd.shape[i0:i1], lane, size_a, cards, counts
                )
            i0 = i1
        return FusedFanout([s for __, __, s in views], cycles, fd.owners)

    def bfs_level(
        self,
        program: BfsProgram,
        tasks: np.ndarray,
        x: int,
        target: int,
        *,
        bottom_up: bool,
    ) -> None:
        """One BFS level's tasks, run as chunked array programs.

        ``x`` is the dense frontier (bottom-up) or unvisited set
        (top-down) and ``target`` the dense new frontier.  The
        instruction stream, and with it every modeled cycle, stat, SMB
        entry, SM record and trace event, is exactly that of the
        per-vertex loop::

            for v in tasks:
                begin_task()
                r = intersect(N(v), x)
                if bottom_up:
                    if cardinality(r) > 0:
                        parent[v] = elements(r)[0]
                        insert(target, v)
                else:
                    for w in elements(r):
                        if parent[w] == -1:
                            parent[w] = v
                            insert(target, w)
                free(r)

        Each chunk (tasks up to the last task boundary within
        ``FANOUT_CHUNK_OPS`` instructions, bounding a task's by ``3 +
        |N(v)|``, and ``FANOUT_CHUNK_PROBE`` probed elements) computes
        its tasks' results in one flat probe
        (:func:`~repro.runtime.batch.bfs_tasks`), registers and frees
        its transients as one recycled SM slot, and dispatches its ops
        with one :meth:`~repro.isa.scu.Scu.dispatch_bfs_chunk`; the task
        loop then places each task and charges its ops in program order.
        """
        degrees = program.rows.cards[tasks]
        volume = np.zeros(tasks.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=volume[1:])
        ops = volume + 3 * np.arange(tasks.size + 1)
        t0 = 0
        while t0 < tasks.size:
            t1 = batchmod.chunk_end(
                ops, volume, t0, FANOUT_CHUNK_OPS, FANOUT_CHUNK_PROBE
            )
            self._bfs_chunk(program, tasks[t0:t1], x, target, bottom_up)
            t0 = t1

    def _bfs_chunk(
        self,
        program: BfsProgram,
        tasks: np.ndarray,
        x: int,
        target: int,
        bottom_up: bool,
    ) -> None:
        """One chunk of :meth:`bfs_level`."""
        sm = self.sm
        table = program.table
        xval = sm.value(x)
        universe = xval.universe
        sizes, inserts, inserted = batchmod.bfs_tasks(
            program.rows, tasks, xval.words, program.parent, bottom_up=bottom_up
        )
        # N(v) ∩ x is dense exactly when N(v) is (x is dense).
        dense = table.dense[tasks]
        slot = sm.register_transients(
            np.where(dense, universe, WORD_BITS * sizes),
            Representation.DENSE if dense[-1] else Representation.SPARSE_SORTED,
            int(sizes[-1]),
            universe,
        )
        # Bottom-up scans a result only once it counted it non-empty.
        scanned = sizes > 0 if bottom_up else np.ones(tasks.size, dtype=bool)
        fd = self.scu.dispatch_bfs_chunk(
            table,
            tasks,
            sizes,
            sm.meta(x),
            slot,
            target,
            inserts,
            scanned,
            self._scan_cost,
            counted=bottom_up,
        )
        if inserted.size:
            sm.update(target, sm.value(target).with_elements(inserted))
        engine = self.engine
        tracing = self.trace.enabled
        compute, memory, latency = fd.compute, fd.memory, fd.latency
        bounds = fd.bounds
        for t, v in enumerate(tasks.tolist()):
            lane = self._current_lane = engine.begin_task()
            i0 = bounds[t]
            i1 = bounds[t + 1]
            engine.charge_batch(compute[i0:i1], memory[i0:i1], latency[i0:i1])
            if tracing:
                self._trace_table_ops(
                    table,
                    fd.shape[t:t + 1],
                    lane,
                    int(table.cards[v]),
                    (xval.cardinality,),
                    sizes[t:t + 1],
                )

    def _trace_table_ops(
        self, table: OperandTable, entries, lane: int, size_a: int, sizes_b, outputs
    ) -> None:
        """Record one trace event per binary op of a table-based
        dispatch on ``lane``: op ``i`` is ``table``'s decision-column
        entry ``entries[i]``, of operand sizes ``size_a`` and
        ``sizes_b[i]`` and result size ``outputs[i]``."""
        record = self.trace.record
        for j, size_b, output in zip(entries, sizes_b, outputs):
            record(
                TraceEvent(
                    opcode=table.opcodes[j],
                    lane=lane,
                    size_a=size_a,
                    size_b=size_b,
                    output_size=int(output),
                    backend=table.backends[j],
                    variant=table.variants[j],
                )
            )

    def intersect_many(self, *set_ids: int) -> int:
        """Multi-set intersection ``A1 ∩ ... ∩ Al`` (paper Section 11's
        proposed CISC-style extension), modeled as a chain of binary
        intersections, smallest set first.

        Each chained step is dispatched as a binary instruction: it pays
        one SCU decode and two SM lookups, and records its binary opcode
        in the dispatch stats (``INTERSECT_MANY`` appears only in the
        trace).  The one saving over separate binary instructions is the
        intermediate write-backs: the intermediates stay in the
        accelerator, and only the final result is written.
        """
        if len(set_ids) < 2:
            raise ConfigError("intersect_many needs at least two sets")
        from repro.isa.metadata import SetMeta

        ordered = sorted(set_ids, key=lambda sid: self.sm.meta(sid).cardinality)
        values = [self.sm.value(sid) for sid in ordered]
        result = values[0]
        total_cost = Cost()
        sizes_trace = []
        for sid, value in zip(ordered[1:], values[1:]):
            # The running intermediate stays inside the accelerator; it
            # is described by an ephemeral metadata record, not an SM
            # entry.
            running_meta = SetMeta(
                set_id=ordered[0],
                representation=result.representation,
                cardinality=result.cardinality,
                universe=result.universe,
                address=0,
            )
            inter = kernels.intersect(result, value)
            # Chain step cost: the binary-op cost without the output
            # write (output_size=0), since the intermediate never
            # leaves the accelerator.
            step = self.scu.dispatch_binary(
                SetOp.INTERSECT,
                running_meta,
                self.sm.meta(sid),
                output_size=0,
                count_only=False,
            )
            sizes_trace.append((result.cardinality, value.cardinality))
            result = inter
            total_cost += step.cost
        # One final output write.
        total_cost += Cost(
            memory_bytes=result.cardinality * self.hw.word_bits / 8
        )
        self.engine.charge(total_cost)
        if self.trace.enabled:
            self.trace.record(
                TraceEvent(
                    opcode=Opcode.INTERSECT_MANY,
                    lane=self._current_lane,
                    size_a=sizes_trace[0][0] if sizes_trace else 0,
                    size_b=sizes_trace[0][1] if sizes_trace else 0,
                    output_size=result.cardinality,
                    backend="pim",
                    variant="chained",
                )
            )
        return self.sm.register(result)

    # In-place variants ("∩=", "∪=", "\\=" in the listings).

    def intersect_into(self, a: int, b: int) -> None:
        self.sm.update(a, self._binary(SetOp.INTERSECT, a, b))

    def union_into(self, a: int, b: int) -> None:
        self.sm.update(a, self._binary(SetOp.UNION, a, b))

    def difference_into(self, a: int, b: int) -> None:
        self.sm.update(a, self._binary(SetOp.DIFFERENCE, a, b))

    # ------------------------------------------------------------------
    # Scalar / element operations
    # ------------------------------------------------------------------

    def cardinality(self, set_id: int) -> int:
        dispatch = self.scu.dispatch_cardinality(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        return self.sm.meta(set_id).cardinality

    def member(self, set_id: int, x: int) -> bool:
        dispatch = self.scu.dispatch_member(self.sm.meta(set_id))
        self.engine.charge(dispatch.cost)
        return self.sm.value(set_id).contains(x)

    def insert(self, set_id: int, x: int) -> None:
        """``A ∪= {x}`` (Table 5 opcode 0x5 for DBs)."""
        dispatch = self.scu.dispatch_element_update(
            self.sm.meta(set_id), insert=True
        )
        self.engine.charge(dispatch.cost)
        value = self.sm.value(set_id)
        self.sm.update(set_id, value.with_element(x))

    def remove(self, set_id: int, x: int) -> None:
        """``A \\= {x}`` (Table 5 opcode 0x6 for DBs)."""
        dispatch = self.scu.dispatch_element_update(
            self.sm.meta(set_id), insert=False
        )
        self.engine.charge(dispatch.cost)
        value = self.sm.value(set_id)
        self.sm.update(set_id, value.without_element(x))

    # ------------------------------------------------------------------
    # Batched element updates (one functional rewrite per target set)
    # ------------------------------------------------------------------

    def _element_update_batch(self, updates, *, insert: bool) -> np.ndarray:
        """Apply ``(set_id, x)`` element updates as one dispatch burst.

        Functionally each target set is rewritten once by a bulk
        ``with_elements``/``without_elements`` merge; timing-wise the
        SCU dispatches one element-update instruction per requested
        update (:meth:`~repro.isa.scu.Scu.dispatch_element_update`), in
        stream order, each observing the cardinality the
        equivalent sequential ``insert``/``remove`` stream would have
        seen (no-op updates — element already present/absent — still
        dispatch and pay, exactly like the scalar path).  Returns a
        bool array marking which updates took effect (the changed-bit
        an update instruction reports back).
        """
        n = len(updates)
        if n == 0:
            return np.zeros(0, dtype=bool)
        obs = self.obs
        span = (
            obs.kernel_start("insert" if insert else "remove", n)
            if obs is not None
            else None
        )
        sm = self.sm
        # Group updates per target set, remembering stream positions.
        groups: dict[int, list[tuple[int, int]]] = {}
        for pos, (set_id, x) in enumerate(updates):
            groups.setdefault(int(set_id), []).append((pos, int(x)))
        metas = [sm.meta(int(set_id)) for set_id, _ in updates]
        cards = [0] * n
        effective = np.zeros(n, dtype=bool)
        new_values: list[tuple[int, VertexSet]] = []
        for set_id, items in groups.items():
            value = sm.value(set_id)
            xs = np.asarray([x for _, x in items], dtype=np.int64)
            present = value.contains_many(xs)
            card = value.cardinality
            applied: set[int] = set()
            changed: list[int] = []
            for (pos, x), was_present in zip(items, present):
                cards[pos] = card
                takes_effect = (
                    (not was_present and x not in applied)
                    if insert
                    else (was_present and x not in applied)
                )
                if takes_effect:
                    applied.add(x)
                    changed.append(x)
                    card += 1 if insert else -1
                    effective[pos] = True
            if changed:
                arr = np.asarray(changed, dtype=np.int64)
                new_values.append(
                    (set_id, value.with_elements(arr) if insert else value.without_elements(arr))
                )
        update = self.scu.dispatch_element_update
        costs = [
            update(meta, insert=insert, cardinality=card).cost
            for meta, card in zip(metas, cards)
        ]
        for cost in costs:
            self.engine.charge(cost)
        if obs is not None:
            obs.kernel_end(
                span,
                sum(cost.compute_cycles for cost in costs)
                + sum(cost.latency_cycles for cost in costs)
                + sum(cost.memory_bytes for cost in costs)
                / self.engine.bytes_per_cycle,
                None,
                cards,
            )
        for set_id, value in new_values:
            sm.update(set_id, value)
        return effective

    def insert_batch(self, updates) -> np.ndarray:
        """Batched ``A_i ∪= {x_i}`` for ``(set_id, x)`` pairs: one
        dispatch burst, leaving the machine as the sequential ``insert``
        stream does."""
        return self._element_update_batch(updates, insert=True)

    def remove_batch(self, updates) -> np.ndarray:
        """Batched ``A_i \\= {x_i}`` for ``(set_id, x)`` pairs."""
        return self._element_update_batch(updates, insert=False)

    def convert_representation(self, set_id: int, *, dense: bool) -> bool:
        """Re-materialize a set in the other representation (SA ↔ DB).

        The paper fixes representations at program start (Section 6.1);
        a streaming workload re-decides them as neighborhoods grow or
        shrink across the density threshold.  Modeled as one streaming
        read of the old representation plus a CREATE of the new one;
        the logical set id (and its SM entry) is preserved.  Returns
        True when a conversion actually happened.
        """
        value = self.sm.value(set_id)
        if isinstance(value, DenseBitvector) == dense:
            return False
        size = value.cardinality
        self.engine.charge(self._scan_cost(size))
        dispatch = self.scu.dispatch_create(
            size, dense=dense, universe=value.universe
        )
        self.engine.charge(dispatch.cost)
        arr = value.to_array()
        new_value: VertexSet
        if dense:
            new_value = DenseBitvector.from_elements(arr, value.universe)
        else:
            new_value = SparseArray.from_sorted(arr, value.universe)
        self.sm.update(set_id, new_value)
        return True

    def elements(self, set_id: int) -> np.ndarray:
        """Iterate a set (the software layer's set iterator): streams
        the set out of memory once."""
        value = self.sm.value(set_id)
        size = value.cardinality
        cost = self._scan_costs.get(size)
        if cost is None:
            cost = self._scan_cost(size)
        self.engine.charge(cost)
        return value.to_array()

    def _scan_cost(self, size: int) -> Cost:
        """Modeled cost of streaming a ``size``-element set out of
        memory once (memoized per size)."""
        cost = self._scan_costs.get(size)
        if cost is None:
            if self.mode == "cpu-set":
                cost = self.scu.cpu.neighborhood_scan(size)
            else:
                cost = self.scu.pnm.scan(size)
            self._scan_costs[size] = cost
        return cost

    # ------------------------------------------------------------------
    # Host-side (non-SISA) work
    # ------------------------------------------------------------------

    def charge_host(self, cost: Cost) -> None:
        """Charge non-SISA instruction work (loop control, scoring, ...)."""
        self.engine.charge(cost)

    def charge_host_ops(self, operations: float) -> None:
        self.engine.charge(Cost(compute_cycles=operations))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def mark(self) -> "ContextMark":
        """Snapshot engine + SCU + SM state (start of a run).

        The session API brackets each ``run`` with a mark so a
        long-lived context can still report per-run cycles, instruction
        stats and set registrations.  On a fresh context the deltas are
        bit-identical to the absolute report.
        """
        return ContextMark(
            engine=self.engine.mark(),
            stats=self.scu.stats.snapshot(),
            registrations=self.sm.registrations,
        )

    def report_since(self, mark: "ContextMark") -> EngineReport:
        return self.engine.report_since(mark.engine)

    def stats_since(self, mark: "ContextMark"):
        return self.scu.stats.since(mark.stats)

    def registrations_since(self, mark: "ContextMark") -> int:
        return self.sm.registrations - mark.registrations

    def report(self) -> EngineReport:
        return self.engine.report()

    @property
    def runtime_cycles(self) -> float:
        return self.engine.runtime_cycles

    @property
    def instruction_count(self) -> int:
        return self.scu.stats.instructions

    def opcode_counts(self) -> dict[Opcode, int]:
        return dict(self.scu.stats.by_opcode)
