"""The SISA Controller Unit (SCU).

The SCU receives SISA instructions from the host core, looks up operand
metadata (through the SMB cache), and schedules execution on the most
beneficial accelerator (paper Sections 3, 8.2):

* two dense bitvectors  -> SISA-PUM (in-situ bulk bitwise),
* anything else         -> SISA-PNM (logic-layer cores), with the
  merge-vs-galloping choice made by the Section 8.3 performance models.

In ``host_fallback`` mode the same decisions are made but the set
algorithms run on the host CPU model instead of PIM — this is the
paper's ``_set-based`` baseline (set-centric formulations without
memory acceleration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from repro.errors import IsaError, SetError
from repro.hw.cache import LruCache
from repro.hw.config import CpuConfig, HardwareConfig
from repro.hw.cost import ZERO_COST, Cost
from repro.hw.cpu import CpuBackend
from repro.hw.pnm import PnmBackend
from repro.hw.pum import PumBackend
from repro.isa.metadata import SetMeta
from repro.isa.opcodes import Opcode, SetOp
from repro.isa.perfmodel import choose_intersection_variant
from repro.sets.base import Representation


@dataclass
class DispatchStats:
    """Counters the evaluation section reports on."""

    instructions: int = 0
    pum_ops: int = 0
    pnm_ops: int = 0
    host_ops: int = 0
    merge_picks: int = 0
    gallop_picks: int = 0
    fused_macros: int = 0  # cross-task fused count-burst macros issued
    by_opcode: dict[Opcode, int] = field(default_factory=dict)

    def record(self, opcode: Opcode) -> None:
        self.instructions += 1
        self.by_opcode[opcode] = self.by_opcode.get(opcode, 0) + 1

    def snapshot(self) -> "DispatchStats":
        """A frozen copy of the counters (start of a new run)."""
        return DispatchStats(
            instructions=self.instructions,
            pum_ops=self.pum_ops,
            pnm_ops=self.pnm_ops,
            host_ops=self.host_ops,
            merge_picks=self.merge_picks,
            gallop_picks=self.gallop_picks,
            fused_macros=self.fused_macros,
            by_opcode=dict(self.by_opcode),
        )

    def since(self, mark: "DispatchStats") -> "DispatchStats":
        """Counter deltas accumulated after ``mark`` (per-run stats)."""
        by_opcode = {
            opcode: count - mark.by_opcode.get(opcode, 0)
            for opcode, count in self.by_opcode.items()
            if count != mark.by_opcode.get(opcode, 0)
        }
        return DispatchStats(
            instructions=self.instructions - mark.instructions,
            pum_ops=self.pum_ops - mark.pum_ops,
            pnm_ops=self.pnm_ops - mark.pnm_ops,
            host_ops=self.host_ops - mark.host_ops,
            merge_picks=self.merge_picks - mark.merge_picks,
            gallop_picks=self.gallop_picks - mark.gallop_picks,
            fused_macros=self.fused_macros - mark.fused_macros,
            by_opcode=by_opcode,
        )

    def add(self, other: "DispatchStats") -> None:
        """Accumulate another delta in place (per-plan attribution of a
        fused batch, where one plan's work arrives in many slices)."""
        self.instructions += other.instructions
        self.pum_ops += other.pum_ops
        self.pnm_ops += other.pnm_ops
        self.host_ops += other.host_ops
        self.merge_picks += other.merge_picks
        self.gallop_picks += other.gallop_picks
        self.fused_macros += other.fused_macros
        for opcode, count in other.by_opcode.items():
            self.by_opcode[opcode] = self.by_opcode.get(opcode, 0) + count


@dataclass(frozen=True)
class Dispatch:
    """Outcome of SCU decision-making for one instruction."""

    opcode: Opcode
    backend: str  # "pum" | "pnm" | "host"
    variant: str  # "merge" | "galloping" | "bitwise" | "probe" | "bitwrite" | ...
    cost: Cost


@dataclass
class BatchDispatch:
    """Outcome of one amortized SCU dispatch over a whole frontier.

    Per-op decisions and cost components are kept as parallel lists so
    the engine can accumulate them in exactly the order a sequential
    instruction stream would have (simulated cycles stay identical);
    only the Python-level dispatch overhead is amortized.
    """

    opcodes: list[Opcode]
    backends: list[str]
    variants: list[str]
    compute: list[float]
    memory: list[float]
    latency: list[float]

    def __len__(self) -> int:
        return len(self.opcodes)


_COUNTERS = ("pum_ops", "pnm_ops", "host_ops", "merge_picks", "gallop_picks")
_counters = attrgetter(*_COUNTERS)


class OperandTable:
    """The operands of one fan-out program, and the SCU's decisions
    for it.

    The program's instructions address operands by row: row ``r`` is
    ``metas[r]``, with its set id, cardinality and representation in
    aligned arrays, so the operand shapes of a whole chunk of
    instructions are array lookups.  One table serves one ``op`` over
    operands of one universe.

    The decision columns grow by one entry per distinct operand shape
    the program has dispatched, in order of first occurrence: the
    variant and model cost :meth:`Scu._decide` returned for it, and its
    stats kind.  Kinds number the distinct ``(opcode, backend,
    increments)`` the entries record per op (``increments`` as
    ``(counter, amount)`` pairs), in order of first occurrence too.
    """

    def __init__(self, op: SetOp, metas: list[SetMeta]):
        n = len(metas)
        if len({m.universe for m in metas}) > 1:
            raise SetError("fan-out operands span several universes")
        self.op = op
        self.metas = metas
        self.ids = np.fromiter((m.set_id for m in metas), np.int64, n)
        self.cards = np.fromiter((m.cardinality for m in metas), np.int64, n)
        self.dense = np.fromiter((m.is_dense for m in metas), bool, n)
        self.unsorted = np.fromiter(
            (m.representation is Representation.SPARSE_UNSORTED for m in metas),
            bool,
            n,
        )
        self.width = int(self.cards.max()) + 1 if n else 1
        # Decision columns, one entry per shape, and each decided shape
        # code's entry.
        self.opcodes: list[Opcode] = []
        self.backends: list[str] = []
        self.variants: list[str] = []
        self.compute: list[float] = []
        self.memory: list[float] = []
        self.latency: list[float] = []
        self.kinds: list[int] = []
        self.kind_of: dict[tuple, int] = {}
        self.entry_of: dict[int, int] = {}  # shape code -> entry
        self._columns: tuple[np.ndarray, ...] = ()

    def shape_codes(self, a_rows: np.ndarray, b_rows: np.ndarray) -> np.ndarray:
        """One integer per op naming its operand shape: exactly the
        fields of the :meth:`Scu._decide` memo key that vary within a
        table (representations, cardinalities, whether the larger
        sparse operand is unsorted)."""
        ca = self.cards[a_rows]
        cb = self.cards[b_rows]
        da = self.dense[a_rows]
        db = self.dense[b_rows]
        bigger_unsorted = np.where(
            ca >= cb, self.unsorted[a_rows], self.unsorted[b_rows]
        )
        sparse = ((ca * self.width + cb) * 2 + bigger_unsorted) * 4
        mixed = (np.where(da, cb, ca) * 2 + da) * 4 + 1
        return np.where(da & db, 2, np.where(da | db, mixed, sparse))

    def dense_codes(self, rows: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """One integer per materializing op ``row op D``, ``D`` a dense
        set, with output ``sizes``, naming its operand shape: the fields
        of the :meth:`Scu._decide` memo key that vary within a table (a
        dense row, or a sparse row's cardinality and the output size)."""
        sparse = (self.cards[rows] * self.width + sizes) * 2 + 1
        return np.where(self.dense[rows], 0, sparse)

    def add(self, decision, increments: list[int]) -> int:
        """Append one shape's decision; returns its entry."""
        opcode, backend, variant, cost = decision
        self.opcodes.append(opcode)
        self.backends.append(backend)
        self.variants.append(variant)
        self.compute.append(cost.compute_cycles)
        self.memory.append(cost.memory_bytes)
        self.latency.append(cost.latency_cycles)
        kind = (opcode, backend, tuple((j, x) for j, x in enumerate(increments) if x))
        self.kinds.append(self.kind_of.setdefault(kind, len(self.kind_of)))
        return len(self.opcodes) - 1

    def rows(self, counts) -> list[tuple]:
        """The :meth:`Scu._tally` rows of ``counts``, ``(kind, n)``
        pairs of this table's stats kinds and their multiplicities."""
        kinds = list(self.kind_of)
        return [(*kinds[kind], n) for kind, n in counts]

    def columns(self) -> tuple[np.ndarray, ...]:
        """The per-shape model compute, memory and latency as arrays
        (rebuilt only when shapes were added)."""
        if len(self._columns) == 0 or len(self._columns[0]) != len(self.compute):
            self._columns = (
                np.asarray(self.compute, dtype=np.float64),
                np.asarray(self.memory, dtype=np.float64),
                np.asarray(self.latency, dtype=np.float64),
            )
        return self._columns


@dataclass
class FanoutDispatch:
    """Outcome of one table-based SCU dispatch: a fan-out chunk, a
    fused macro's fan-out constituents or a BFS chunk.

    Per-item cost components are Python float lists in program order
    (the engine accumulates them exactly like :class:`BatchDispatch`'s);
    ``shape`` holds each binary op's entry in the decision columns of
    its table, in program order.  ``owners`` holds the per-owner stats
    deltas of a fused macro, and ``bounds`` a BFS chunk's task
    boundaries (task ``t``'s items at ``bounds[t] .. bounds[t + 1] -
    1``).
    """

    compute: list[float]
    memory: list[float]
    latency: list[float]
    shape: np.ndarray | list[int]
    owners: list[DispatchStats] = field(default_factory=list)
    bounds: list[int] = field(default_factory=list)


class Scu:
    """Decides instruction variants and accounts their costs."""

    def __init__(
        self,
        hw: HardwareConfig,
        *,
        host_fallback: bool = False,
        cpu: CpuConfig | None = None,
        gallop_threshold: float | None = None,
        smb_enabled: bool = True,
        decision_memo: dict | None = None,
    ):
        self.hw = hw
        self.host_fallback = host_fallback
        self.gallop_threshold = gallop_threshold
        self.pum = PumBackend(hw)
        self.pnm = PnmBackend(hw)
        self.cpu = CpuBackend(cpu or CpuConfig())
        self.smb = LruCache(hw.smb_entries if smb_enabled else 0)
        self.stats = DispatchStats()
        # Optional observability hub (repro.observability).  Nullable
        # and observation-only: feeds mirror what stats already record,
        # labeled by opcode/backend, and never affect costs.
        self.obs = None
        # Dispatch memoizes (variant decision, model cost) per
        # operand-shape key.  The stored Cost is the exact object a
        # fresh computation would produce, so memoized and fresh
        # dispatches are bit-identical; only Python work is saved.
        # Bounded (see _MEMO_LIMIT): materializing ops key on the
        # output size, so long large-graph runs would otherwise grow
        # the table without bound; past the cap, shapes are simply
        # recomputed, which yields the same values.
        # A SessionPool passes a shared ``decision_memo`` so every
        # session over the same hardware/mode shares one table: the
        # memoized values are pure functions of the operand shapes and
        # the fixed configs, so sharing changes nothing but Python time.
        self._decision_memo: dict[tuple, tuple] = (
            {} if decision_memo is None else decision_memo
        )
        # Optional memo access hook ``(op, key) -> None`` — the race
        # detector's shim.  Every read/fill of the (possibly pool-
        # shared) decision table reports through it; repolint's
        # shared-structure-write rule keeps direct ``_decision_memo``
        # mutation confined to this module so the hook stays complete.
        self.memo_event = None

    _MEMO_LIMIT = 1 << 16

    # ------------------------------------------------------------------
    # The per-op body of every scalar instruction
    # ------------------------------------------------------------------

    def _issue(
        self, decision, *set_ids: int, chase: bool = False, feed: bool = True
    ) -> Dispatch:
        """Charge one scalar instruction of ``decision``, its ``(opcode,
        backend, variant, model cost)``.

        The charge composes, in plain floats: the SCU decode; one
        SMB-cached SM lookup per operand, in ``set_ids`` order (a miss
        is one more access to the in-memory SM structure, which lives
        near the SCU, so it pays the near-memory access latency rather
        than a full off-chip round trip; paper Section 8.4, "Set
        Metadata"); with ``chase``, the host's dependent pointer chase
        to the operand descriptors (the host has no SCU/SMB); then the
        model cost.  The opcode is recorded and, with ``feed``, counted
        in the dispatch series.
        """
        opcode, backend, variant, cost = decision
        hw = self.hw
        access = self.smb.access
        comp = hw.scu_dispatch_cycles
        lat = 0.0
        for set_id in set_ids:
            if access(set_id):
                comp += hw.sm_hit_cycles
            else:
                lat += hw.pnm_random_access_cycles
        if chase:
            lat += self.cpu.config.set_op_latency_cycles
        self.stats.record(opcode)
        if feed and self.obs is not None:
            self.obs.dispatch(opcode, backend)
        return Dispatch(
            opcode,
            backend,
            variant,
            Cost(
                comp + cost.compute_cycles,
                cost.memory_bytes,
                lat + cost.latency_cycles,
            ),
        )

    # ------------------------------------------------------------------
    # Binary set operations
    # ------------------------------------------------------------------

    def dispatch_binary(
        self,
        op: SetOp,
        a: SetMeta,
        b: SetMeta,
        *,
        output_size: int = 0,
        count_only: bool = False,
    ) -> Dispatch:
        """Decide and cost a binary set operation ``a op b``: the
        variant decision and model cost of :meth:`_decide` (memoized per
        operand shape), charged by :meth:`_issue` with both operands'
        lookups and, in ``host_fallback`` mode, the descriptor chase.
        """
        return self._issue(
            self._decide(op, a, b, output_size, count_only),
            a.set_id,
            b.set_id,
            chase=self.host_fallback,
        )

    def _decide(
        self,
        op: SetOp,
        a: SetMeta,
        b: SetMeta,
        output_size: int,
        count_only: bool,
    ) -> tuple[Opcode, str, str, Cost]:
        """Variant decision + model cost, memoized per operand shape.

        The memo caches the exact objects a fresh computation would
        produce (the decision and cost only depend on the operand
        shapes and the fixed hardware config), so memoized and fresh
        dispatches are bit-identical; backend/variant statistics are
        still updated per call.
        """
        stats = self.stats
        dense = Representation.DENSE
        a_dense = a.representation is dense
        b_dense = b.representation is dense
        if a_dense and b_dense:
            key = ("d", op, count_only, a.universe)
        elif a_dense or b_dense:
            sparse_card = b.cardinality if a_dense else a.cardinality
            key = ("m", op, a_dense, sparse_card, output_size)
        else:
            bigger = a if a.cardinality >= b.cardinality else b
            key = (
                "s",
                op,
                a.cardinality,
                b.cardinality,
                output_size,
                bigger.representation is Representation.SPARSE_UNSORTED,
            )
        hit = self._decision_memo.get(key)
        if self.memo_event is not None:
            self.memo_event("read", key)
        if hit is None:
            if a_dense and b_dense:
                d = self._dispatch_dense_pair(op, a, count_only=count_only)
                picks = 0
            elif a_dense or b_dense:
                d = self._dispatch_mixed(op, a, b, output_size=output_size)
                picks = 0
            else:
                before = stats.gallop_picks
                d = self._dispatch_sparse_pair(op, a, b, output_size=output_size)
                picks = 2 if stats.gallop_picks > before else 1
            if len(self._decision_memo) < self._MEMO_LIMIT:
                self._decision_memo[key] = (
                    d.opcode, d.backend, d.variant, d.cost, picks,
                )
                if self.memo_event is not None:
                    self.memo_event("write-idempotent", key)
            return d.opcode, d.backend, d.variant, d.cost
        opcode, backend, variant, cost, picks = hit
        if backend == "pum":
            stats.pum_ops += 1
        elif backend == "pnm":
            stats.pnm_ops += 1
        else:
            stats.host_ops += 1
        if picks == 1:
            stats.merge_picks += 1
        elif picks == 2:
            stats.gallop_picks += 1
        return opcode, backend, variant, cost

    def dispatch_binary_batch(
        self,
        op: SetOp,
        a: SetMeta,
        bs: list[SetMeta],
        *,
        output_sizes: list[int] | None = None,
        count_only: bool = False,
        include_decode: bool | None = None,
    ) -> BatchDispatch:
        """Amortized dispatch of ``a op b_i`` for a whole frontier.

        One SCU call replaces ``len(bs)`` :meth:`dispatch_binary` calls.
        Per-op semantics are fully preserved: SMB accesses happen pair
        by pair in instruction order (the LRU trajectory is identical),
        per-op stats are recorded, and every per-op cost is computed by
        the same models — float for float — as the sequential path, so
        simulated cycle totals are identical.  What is amortized is the
        Python-level dispatch overhead: operand metadata is fetched
        once by the caller and variant decisions/model costs are
        memoized per operand shape.

        With ``include_decode`` a bool, the burst is one constituent of
        a *fused* cross-task count macro.  A plan executor fuses
        compatible count-form frontier bursts from different workload
        plans into one macro instruction: the SCU decodes the macro
        once and each constituent burst names its probe operand once,
        instead of re-dispatching and re-fetching the probe metadata
        per op as the unfused stream does.  Charging rule (the explicit
        lane-placement model of cross-task fusion):

        * the macro decode (``scu_dispatch_cycles``) is paid once, by
          the constituent with ``include_decode=True`` (the executor
          sets it on the first burst of each macro) — it lands on that
          burst's lane;
        * each constituent pays its probe operand's SMB-cached metadata
          lookup once, on its first op;
        * each op pays its frontier operand's metadata lookup plus the
          variant model cost — decided and costed by the very same
          memoized :meth:`_decide` the sequential stream uses, so the
          per-op *work* is unchanged; only the per-op dispatch/metadata
          overhead is elided by the macro encoding.

        Per-op stats and opcodes are recorded exactly like the unfused
        burst (a fused macro is the same logical instruction stream);
        ``stats.fused_macros`` counts the macros.  Not offered in
        ``host_fallback`` mode — the host baseline has no SCU to fuse
        dispatches in, so plan executors fall back to the unfused
        batched stream there.
        """
        hw = self.hw
        stats = self.stats
        by_opcode = stats.by_opcode
        decide = self._decide
        host = self.host_fallback
        fused = include_decode is not None
        if fused and host:
            raise IsaError("fused dispatch requires the SCU (sisa mode)")
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        host_c = self.cpu.config.set_op_latency_cycles if host else 0.0
        # The burst's SM lookups, in instruction order: A, B_1, A, B_2,
        # ... unfused; A, B_1, B_2, ... fused.  Ops below len(probes)
        # pay the decode and look A up.
        ids = [b.set_id for b in bs]
        if fused:
            hits = self.smb.access_many([a.set_id, *ids])
            probes = hits[:1]
            frontier = hits[1:]
            decode = hw.scu_dispatch_cycles if include_decode else 0.0
        else:
            keys = [a.set_id] * (2 * len(bs))
            keys[1::2] = ids
            hits = self.smb.access_many(keys)
            probes = hits[0::2]
            frontier = hits[1::2]
            decode = hw.scu_dispatch_cycles
        opcodes: list[Opcode] = []
        backends: list[str] = []
        variants: list[str] = []
        compute: list[float] = []
        memory: list[float] = []
        latency: list[float] = []
        for i, b in enumerate(bs):
            # Metadata phase: the float-accumulation order of `_issue`
            # over (a_id, b_id) with the host chase, less what a fused
            # macro elides.
            lat = 0.0
            if i < len(probes):
                comp = decode
                if probes[i]:
                    comp += hit_c
                else:
                    lat += miss_c
            else:
                comp = 0.0
            if frontier[i]:
                comp += hit_c
            else:
                lat += miss_c
            if host:
                lat += host_c
            output_size = 0 if output_sizes is None else output_sizes[i]
            opcode, backend, variant, cost = decide(
                op, a, b, output_size, count_only
            )
            by_opcode[opcode] = by_opcode.get(opcode, 0) + 1
            opcodes.append(opcode)
            backends.append(backend)
            variants.append(variant)
            compute.append(comp + cost.compute_cycles)
            memory.append(cost.memory_bytes)
            latency.append(lat + cost.latency_cycles)
        stats.instructions += len(opcodes)
        if include_decode:
            stats.fused_macros += 1
        if self.obs is not None:
            self.obs.dispatch_batch(opcodes, backends)
            if include_decode:
                self.obs.fused_macro()
        return BatchDispatch(opcodes, backends, variants, compute, memory, latency)

    def _resolve(self, table: OperandTable, codes: list[int], operands) -> list[int]:
        """Each op's entry in ``table``'s decision columns, for ops of
        shape ``codes``; ``operands(i)`` returns op ``i``'s
        :meth:`_decide` arguments after ``table.op``.

        A shape new to the table is decided through the :meth:`_decide`
        memo at its first op, in op order, so the memo fills in the
        order the per-op path fills it; known shapes reuse the table's
        decision.  The stats counters move as :meth:`_decide` moves
        them, so callers recount by multiplicity (:meth:`_tally`).
        """
        entry_of = table.entry_of
        entries = list(map(entry_of.get, codes))
        if None not in entries:
            return entries  # type: ignore[return-value]
        stats = self.stats
        for i, e in enumerate(entries):
            if e is None:
                code = codes[i]
                e = entry_of.get(code)
                if e is None:
                    before = _counters(stats)
                    decision = self._decide(table.op, *operands(i))
                    e = entry_of[code] = table.add(
                        decision, [x - y for x, y in zip(_counters(stats), before)]
                    )
                entries[i] = e
        return entries  # type: ignore[return-value]

    def _tally(self, rows, base, groups=None) -> list[DispatchStats]:
        """Record dispatched ops in the stats by multiplicity.

        ``rows`` holds ``(opcode, backend, increments, n)`` rows in
        instruction order: ``n`` ops of ``opcode``, each adding
        ``increments`` (``(counter, amount)`` pairs) to the counters
        and feeding the ``backend`` dispatch series (none when
        ``None``).  ``base`` holds the counters before
        :meth:`_resolve`; they become ``base`` plus every row's
        increments times ``n``.  New ``by_opcode`` keys and
        dispatch-feed series appear in row order.

        With ``groups`` (each row's owner), also returns one stats
        delta per owner.
        """
        stats = self.stats
        by_opcode = stats.by_opcode
        dispatched: dict[tuple[Opcode, str], int] = {}
        totals = list(base)
        owners = (
            [DispatchStats() for __ in range(max(groups) + 1)] if groups else []
        )
        counters = [[0] * len(_COUNTERS) for __ in owners]
        for r, (opcode, backend, increments, n) in enumerate(rows):
            by_opcode[opcode] = by_opcode.get(opcode, 0) + n
            if backend is not None:
                pair = (opcode, backend)
                dispatched[pair] = dispatched.get(pair, 0) + n
            for j, x in increments:
                totals[j] += n * x
            stats.instructions += n
            if groups:
                owner = owners[groups[r]]
                owner.by_opcode[opcode] = owner.by_opcode.get(opcode, 0) + n
                owner.instructions += n
                acc = counters[groups[r]]
                for j, x in increments:
                    acc[j] += n * x
        for name, total in zip(_COUNTERS, totals):
            setattr(stats, name, total)
        for owner, acc in zip(owners, counters):
            for name, total in zip(_COUNTERS, acc):
                setattr(owner, name, total)
        if self.obs is not None:
            self.obs.dispatch_counts(dispatched)
        return owners

    def dispatch_count_fanout(
        self,
        table: OperandTable,
        a_rows: np.ndarray,
        b_rows: np.ndarray,
        codes: list[int],
    ) -> FanoutDispatch:
        """Dispatch the count-form ops ``table[a_rows[i]] op
        table[b_rows[i]]`` (one chunk of a fan-out program, whose
        operand shape ``codes`` the chunk carries) at once.

        The modeled outcome equals :meth:`dispatch_binary_batch` over
        the same ops, burst by burst:

        * the SMB replays the access sequence ``a_0, b_0, a_1, b_1, ...``
          in one :meth:`~repro.hw.cache.LruCache.access_many` call;
        * shapes resolve to decisions through :meth:`_resolve`, new ones
          through the :meth:`_decide` memo in order of first occurrence;
        * per-op compute, memory and latency are composed with the same
          float operations in the same order;
        * the stats are updated once per chunk by multiplicity
          (:meth:`_tally`).
        """
        keys = np.empty(2 * int(a_rows.size), dtype=np.int64)
        keys[0::2] = table.ids[a_rows]
        keys[1::2] = table.ids[b_rows]
        hits = np.asarray(self.smb.access_many(keys.tolist()), dtype=bool)
        base = _counters(self.stats)
        metas = table.metas
        shape = np.asarray(
            self._resolve(
                table,
                codes,
                lambda i: (metas[a_rows[i]], metas[b_rows[i]], 0, True),
            ),
            dtype=np.int64,
        )
        # Kinds new to the table are numbered in order of first
        # occurrence, so ascending kinds meet new keys in that order.
        mult = np.bincount(np.asarray(table.kinds)[shape]).tolist()
        self._tally(table.rows((kind, n) for kind, n in enumerate(mult) if n), base)
        comp, mem, lat = self._binary_costs(table, shape, hits[0::2], hits[1::2])
        return FanoutDispatch(comp.tolist(), mem.tolist(), lat.tolist(), shape)

    def _binary_costs(self, table: OperandTable, shape, hit_a, hit_b):
        """Per-op compute, memory and latency arrays of binary ops of
        ``table``: :meth:`_issue`'s composition for
        :meth:`dispatch_binary` (SMB lookups ``hit_a`` and ``hit_b``)
        with the model cost of entries ``shape``, float for float
        (adding an exact 0.0 where a branch there adds nothing)."""
        hw = self.hw
        compute, memory, latency = table.columns()
        comp = np.full(shape.size, hw.scu_dispatch_cycles, dtype=np.float64)
        comp += hit_a * hw.sm_hit_cycles
        comp += hit_b * hw.sm_hit_cycles
        comp += compute[shape]
        lat = np.zeros(shape.size, dtype=np.float64)
        lat += ~hit_a * hw.pnm_random_access_cycles
        lat += ~hit_b * hw.pnm_random_access_cycles
        if self.host_fallback:
            lat += self.cpu.config.set_op_latency_cycles
        lat += latency[shape]
        return comp, memory[shape], lat

    def dispatch_fused_fanout(
        self, bursts, groups: list[int], *, include_decode: bool
    ) -> FanoutDispatch:
        """A fused macro's run of fan-out constituent bursts, dispatched
        at once.

        ``bursts`` holds one ``(table, a, codes, b_rows, ids)`` per
        constituent: the count-form ops of probe row ``a`` of ``table``
        against rows ``b_rows``, with their operand shape ``codes`` and
        frontier set ``ids`` (lists); ``groups[c]`` numbers constituent
        ``c``'s owner.  The modeled outcome equals one fused
        :meth:`dispatch_binary_batch` per constituent, in order, with
        ``include_decode`` on the first:

        * the SMB replays every constituent's lookups (its probe, then
          each frontier operand) in one
          :meth:`~repro.hw.cache.LruCache.access_many` call;
        * shapes resolve to decisions through :meth:`_resolve`,
          constituent by constituent, so new ones are decided at their
          first op in op order across the tables;
        * the macro decode lands on the first op and each constituent's
          probe lookup on its own first op, composed float for float as
          :meth:`dispatch_binary_batch` composes them;
        * the stats are updated once, by multiplicity (:meth:`_tally`),
          and ``owners`` holds each owner's delta (the macro counts for
          constituent 0's).
        """
        if self.host_fallback:
            raise IsaError("fused dispatch requires the SCU (sisa mode)")
        keys: list[int] = []
        for table, a, __, __, ids in bursts:
            keys.append(int(table.ids[a]))
            keys += ids
        hits = self.smb.access_many(keys)
        base = _counters(self.stats)
        # The fused metadata phase, op by op, over entries resolved
        # constituent by constituent (so in op order).
        hw = self.hw
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        compute: list[float] = []
        memory: list[float] = []
        latency: list[float] = []
        shape: list[int] = []
        rows = []
        owner_of = []
        p = 0
        comp = hw.scu_dispatch_cycles if include_decode else 0.0
        for (table, a, codes, b_rows, __), group in zip(bursts, groups):
            metas = table.metas
            ops = self._resolve(
                table, codes, lambda i: (metas[a], metas[b_rows[i]], 0, True)
            )
            t_compute = table.compute
            t_memory = table.memory
            t_latency = table.latency
            kinds = table.kinds
            counts: dict[int, int] = {}
            lat = 0.0
            if hits[p]:
                comp += hit_c
            else:
                lat += miss_c
            p += 1
            for e in ops:
                if hits[p]:
                    comp += hit_c
                else:
                    lat += miss_c
                p += 1
                compute.append(comp + t_compute[e])
                memory.append(t_memory[e])
                latency.append(lat + t_latency[e])
                comp = 0.0
                lat = 0.0
                kind = kinds[e]
                counts[kind] = counts.get(kind, 0) + 1
            shape += ops
            rows += table.rows(counts.items())
            owner_of += [group] * len(counts)
        owners = self._tally(rows, base, owner_of)
        if include_decode:
            self.stats.fused_macros += 1
            owners[groups[0]].fused_macros += 1
            if self.obs is not None:
                self.obs.fused_macro()
        return FanoutDispatch(compute, memory, latency, shape, owners)

    def dispatch_bfs_chunk(
        self,
        table: OperandTable,
        rows: np.ndarray,
        sizes: np.ndarray,
        x: SetMeta,
        slot: int,
        target: int,
        inserts: np.ndarray,
        scanned: np.ndarray,
        scan,
        *,
        counted: bool,
    ) -> FanoutDispatch:
        """Dispatch one chunk of BFS level tasks at once.

        Task ``t`` is, in program order: the materializing ``INTERSECT``
        of ``table`` row ``rows[t]`` with the dense set ``x`` into the
        transient ``slot``, of output size ``sizes[t]``; with
        ``counted``, the ``CARDINALITY`` of the transient; where
        ``scanned[t]``, a scan of it, charged ``scan(sizes[t])`` but not
        an instruction; ``inserts[t]`` element ``INSERT`` ops into the
        dense set ``target``; and the ``DELETE`` of the transient.  The
        modeled outcome equals the per-op dispatches of that stream:

        * the SMB replays every lookup, and each DELETE's invalidation
          right after its lookup, in one
          :meth:`~repro.hw.cache.LruCache.access_freeing` call;
        * intersect shapes resolve through :meth:`_resolve`, new ones
          through the :meth:`_decide` memo in op order;
        * per-op compute, memory and latency are composed with the same
          float operations as :meth:`dispatch_binary`,
          :meth:`dispatch_cardinality`, :meth:`dispatch_element_update`
          and :meth:`dispatch_delete`;
        * the stats are updated once, by multiplicity (:meth:`_tally`).
        """
        hw = self.hw
        host = self.host_fallback
        disp_c = hw.scu_dispatch_cycles
        hit_c = hw.sm_hit_cycles
        miss_c = hw.pnm_random_access_cycles
        card = int(counted)
        # Each task's charged items and SMB lookups, and its start in
        # both sequences.
        items = 2 + card + scanned + inserts
        lookups = 3 + card + inserts
        i_end = np.cumsum(items)
        i_start = i_end - items
        l_end = np.cumsum(lookups)
        l_start = l_end - lookups
        keys = np.full(int(l_end[-1]), target, dtype=np.int64)
        keys[l_start] = table.ids[rows]
        keys[l_start + 1] = x.set_id
        keys[l_end - 1] = slot
        frees = np.zeros(keys.size, dtype=bool)
        frees[l_end - 1] = True
        # Inserts take every item and lookup the other ops leave.
        insert_item = np.ones(int(i_end[-1]), dtype=bool)
        insert_item[i_start] = False
        insert_item[i_end - 1] = False
        insert_lookup = ~frees
        insert_lookup[l_start] = False
        insert_lookup[l_start + 1] = False
        if counted:
            keys[l_start + 2] = slot
            insert_item[i_start + 1] = False
            insert_lookup[l_start + 2] = False
        scan_at = (i_start + 1 + card)[scanned]
        insert_item[scan_at] = False
        hits = np.asarray(
            self.smb.access_freeing(keys.tolist(), frees.tolist()), dtype=bool
        )
        base = _counters(self.stats)
        metas = table.metas
        shape = np.asarray(
            self._resolve(
                table,
                table.dense_codes(rows, sizes).tolist(),
                lambda i: (metas[rows[i]], x, int(sizes[i]), False),
            ),
            dtype=np.int64,
        )
        self._tally(self._bfs_rows(table, shape, inserts, counted), base)
        comp = np.empty(insert_item.size, dtype=np.float64)
        mem = np.empty(insert_item.size, dtype=np.float64)
        lat = np.empty(insert_item.size, dtype=np.float64)
        comp[i_start], mem[i_start], lat[i_start] = self._binary_costs(
            table, shape, hits[l_start], hits[l_start + 1]
        )
        # One-lookup metadata ops, as _issue composes them: the
        # cardinality and the delete.
        metadata = [(i_end - 1, hits[l_end - 1])]
        if counted:
            metadata.append((i_start + 1, hits[l_start + 2]))
        for at, hit in metadata:
            comp[at] = disp_c + hit * hit_c
            mem[at] = 0.0
            lat[at] = ~hit * miss_c
        scan_sizes, of = np.unique(sizes[scanned], return_inverse=True)
        scans = [scan(size) for size in scan_sizes.tolist()]
        comp[scan_at] = np.asarray([cost.compute_cycles for cost in scans])[of]
        mem[scan_at] = np.asarray([cost.memory_bytes for cost in scans])[of]
        lat[scan_at] = np.asarray([cost.latency_cycles for cost in scans])[of]
        # One lookup plus the bit write, as dispatch_element_update.
        write = self.cpu.bit_write() if host else self.pum.bit_write()
        hit_t = hits[insert_lookup]
        comp[insert_item] = (disp_c + hit_t * hit_c) + write.compute_cycles
        mem[insert_item] = 0.0 + write.memory_bytes
        lat[insert_item] = ~hit_t * miss_c + write.latency_cycles
        return FanoutDispatch(
            comp.tolist(),
            mem.tolist(),
            lat.tolist(),
            shape.tolist(),
            bounds=[0] + i_end.tolist(),
        )

    def _bfs_rows(self, table, shape, inserts, counted: bool) -> list[tuple]:
        """The :meth:`_tally` rows of a :meth:`dispatch_bfs_chunk`
        chunk, in order of first occurrence (a DELETE feeds no dispatch
        series, as in :meth:`dispatch_delete`)."""
        k = len(shape)
        task_kinds = np.asarray(table.kinds)[shape]
        used, first = np.unique(task_kinds, return_index=True)
        mult = np.bincount(task_kinds)[used]
        # (position, row); a task's ops sit at positions 4t (intersect)
        # .. 4t + 3 (delete).
        ops = list(
            zip((4 * first).tolist(), table.rows(zip(used.tolist(), mult.tolist())))
        )
        if counted:
            ops.append((1, (Opcode.CARDINALITY, "scu", (), k)))
        written = np.flatnonzero(inserts)
        if written.size:
            backend = "host" if self.host_fallback else "pum"
            increments = ((_COUNTERS.index(f"{backend}_ops"), 1),)
            row = (Opcode.INSERT_DB, backend, increments, int(inserts.sum()))
            ops.append((4 * int(written[0]) + 2, row))
        ops.append((3, (Opcode.DELETE, None, (), k)))
        return [row for __, row in sorted(ops, key=itemgetter(0))]

    def _dispatch_dense_pair(
        self, op: SetOp, a: SetMeta, *, count_only: bool
    ) -> Dispatch:
        universe = a.universe
        if op in (SetOp.INTERSECT, SetOp.INTERSECT_COUNT):
            opcode = Opcode.INTERSECT_COUNT if count_only else Opcode.INTERSECT_DB_DB
            pim = self.pum.intersect(universe)
        elif op in (SetOp.UNION, SetOp.UNION_COUNT):
            opcode = Opcode.UNION_COUNT if count_only else Opcode.UNION_DB_DB
            pim = self.pum.union(universe)
        elif op in (SetOp.DIFFERENCE, SetOp.DIFFERENCE_COUNT):
            opcode = (
                Opcode.DIFFERENCE_COUNT if count_only else Opcode.DIFFERENCE_DB_DB
            )
            pim = self.pum.difference(universe)
        else:
            raise IsaError(f"not a binary set operation: {op}")
        if count_only:
            pim += self.pum.cardinality_of_result(universe)
        if self.host_fallback:
            self.stats.host_ops += 1
            cost = self.cpu.bitwise(universe, output=not count_only)
            return Dispatch(opcode, "host", "bitwise", cost)
        self.stats.pum_ops += 1
        return Dispatch(opcode, "pum", "bitwise", pim)

    def _dispatch_mixed(
        self, op: SetOp, a: SetMeta, b: SetMeta, *, output_size: int
    ) -> Dispatch:
        sparse = b if a.is_dense else a
        if op in (SetOp.INTERSECT, SetOp.INTERSECT_COUNT):
            opcode = Opcode.INTERSECT_SA_DB
        elif op in (SetOp.UNION, SetOp.UNION_COUNT):
            opcode = Opcode.UNION_SA_DB
        elif op in (SetOp.DIFFERENCE, SetOp.DIFFERENCE_COUNT):
            opcode = Opcode.DIFFERENCE_DB_SA if a.is_dense else Opcode.DIFFERENCE_SA_DB
        else:
            raise IsaError(f"not a binary set operation: {op}")
        if self.host_fallback:
            self.stats.host_ops += 1
            cost = self.cpu.sa_probe_db(sparse.cardinality, output_size=output_size)
            return Dispatch(opcode, "host", "probe", cost)
        self.stats.pnm_ops += 1
        cost = self.pnm.sa_probe_db(sparse.cardinality, output_size=output_size)
        return Dispatch(opcode, "pnm", "probe", cost)

    def _dispatch_sparse_pair(
        self, op: SetOp, a: SetMeta, b: SetMeta, *, output_size: int
    ) -> Dispatch:
        choice = choose_intersection_variant(
            self.hw,
            a.cardinality,
            b.cardinality,
            gallop_threshold=self.gallop_threshold,
        )
        # Galloping needs a sorted larger operand; fall back to merge if
        # the larger set is an unsorted auxiliary SA.
        bigger = a if a.cardinality >= b.cardinality else b
        if (
            choice.variant == "galloping"
            and bigger.representation is Representation.SPARSE_UNSORTED
        ):
            choice = choose_intersection_variant(
                self.hw, a.cardinality, b.cardinality, gallop_threshold=float("inf")
            )
        gallop = choice.variant == "galloping"
        if op in (SetOp.INTERSECT, SetOp.INTERSECT_COUNT):
            opcode = (
                Opcode.INTERSECT_SA_SA_GALLOP if gallop else Opcode.INTERSECT_SA_SA_MERGE
            )
        elif op in (SetOp.UNION, SetOp.UNION_COUNT):
            # Union must touch all elements of both sets; always merge.
            gallop = False
            opcode = Opcode.UNION_SA_SA_MERGE
        elif op in (SetOp.DIFFERENCE, SetOp.DIFFERENCE_COUNT):
            opcode = (
                Opcode.DIFFERENCE_SA_SA_GALLOP
                if gallop
                else Opcode.DIFFERENCE_SA_SA_MERGE
            )
        else:
            raise IsaError(f"not a binary set operation: {op}")
        if gallop:
            self.stats.gallop_picks += 1
        else:
            self.stats.merge_picks += 1
        if self.host_fallback:
            self.stats.host_ops += 1
            if gallop:
                cost = self.cpu.galloping(
                    a.cardinality, b.cardinality, output_size=output_size
                )
            else:
                cost = self.cpu.merge(
                    a.cardinality, b.cardinality, output_size=output_size
                )
            return Dispatch(opcode, "host", choice.variant, cost)
        self.stats.pnm_ops += 1
        if gallop:
            cost = self.pnm.galloping(
                a.cardinality, b.cardinality, output_size=output_size
            )
        else:
            cost = self.pnm.streaming(
                a.cardinality, b.cardinality, output_size=output_size
            )
        return Dispatch(opcode, "pnm", choice.variant, cost)

    # ------------------------------------------------------------------
    # Unary / scalar operations
    # ------------------------------------------------------------------

    def dispatch_cardinality(self, a: SetMeta) -> Dispatch:
        """|A| is O(1): the size lives in the metadata (Section 6.2.3)."""
        return self._issue(
            (Opcode.CARDINALITY, "scu", "metadata", ZERO_COST), a.set_id
        )

    def dispatch_member(self, a: SetMeta) -> Dispatch:
        if self.host_fallback:
            self.stats.host_ops += 1
            unit, backend = self.cpu, "host"
        else:
            self.stats.pnm_ops += 1
            unit, backend = self.pnm, "pnm"
        if a.is_dense:
            cost = unit.membership_dense()
        elif a.representation is Representation.SPARSE_SORTED:
            cost = unit.membership_sorted(a.cardinality)
        else:
            cost = unit.membership_unsorted(a.cardinality)
        return self._issue((Opcode.MEMBER, backend, "membership", cost), a.set_id)

    def dispatch_element_update(
        self, a: SetMeta, *, insert: bool, cardinality: int | None = None
    ) -> Dispatch:
        """``A ∪= {x}`` or ``A \\= {x}``: a bit write on a dense set, an
        O(|A|) shift on a sparse one.  ``cardinality`` overrides ``a``'s:
        an update burst passes the cardinality each update observes
        once the burst's earlier updates have taken effect."""
        if self.host_fallback:
            self.stats.host_ops += 1
            unit, backend = self.cpu, "host"
        elif a.is_dense:
            self.stats.pum_ops += 1
            unit, backend = self.pum, "pum"
        else:
            self.stats.pnm_ops += 1
            unit, backend = self.pnm, "pnm"
        if a.is_dense:
            opcode = Opcode.INSERT_DB if insert else Opcode.REMOVE_DB
            cost, variant = unit.bit_write(), "bitwrite"
        else:
            opcode = Opcode.INSERT_SA if insert else Opcode.REMOVE_SA
            size = a.cardinality if cardinality is None else cardinality
            cost, variant = unit.element_update_sa(size), "shift"
        return self._issue((opcode, backend, variant, cost), a.set_id)

    def dispatch_create(self, size: int, *, dense: bool, universe: int) -> Dispatch:
        """Allocate + initialize a set.

        Allocation is a standard ``malloc`` plus an SM entry write
        (paper Section 8.4, "Life Cycle of a Set"); the data write
        streams the initial contents.  Empty dense sets are zeroed with
        one bulk row-clear, so only touched rows count.
        """
        bits = self.hw.word_bits * size if not dense else min(
            universe, max(size, 1) * self.hw.word_bits
        )
        cost = Cost(
            compute_cycles=2 * self.hw.scu_dispatch_cycles,
            memory_bytes=bits / 8,
        )
        self.stats.record(Opcode.CREATE)
        return Dispatch(Opcode.CREATE, "pnm", "alloc", cost)

    def dispatch_delete(self, a: SetMeta) -> Dispatch:
        dispatch = self._issue(
            (Opcode.DELETE, "scu", "free", ZERO_COST), a.set_id, feed=False
        )
        self.smb.invalidate(a.set_id)
        return dispatch

    def dispatch_clone(self, a: SetMeta) -> Dispatch:
        """Copy a set.  Dense clones are in-DRAM RowClone copies
        (row-granular, near-free); sparse clones stream the elements."""
        hw = self.hw
        if a.is_dense:
            rows = max(1, a.universe // hw.row_size_bits)
            cost = Cost(latency_cycles=rows * hw.effective_op_latency_cycles)
        else:
            cost = Cost(
                memory_bytes=a.cardinality * hw.word_bits / 8,
                latency_cycles=hw.effective_op_latency_cycles,
            )
        return self._issue((Opcode.CLONE, "pnm", "copy", cost), a.set_id, feed=False)
