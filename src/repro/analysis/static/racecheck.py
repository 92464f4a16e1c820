"""Happens-before race detection over certified schedules.

The schedule certifier (:mod:`repro.analysis.static.schedule`) proves
ordering from *declared* effects; this module is the dynamic
cross-check that catches what the effect model missed.  An opt-in
:class:`AccessLog` shims the shared structures the future concurrent
pool will touch —

* the session's :class:`~repro.session.cache.ResultCache` (via its
  nullable ``_event`` hook: ``get``/``put``/``invalidate``/fault
  tampering),
* the shared SCU decision memo (:attr:`~repro.isa.scu.Scu.memo_event`),
* the :class:`~repro.streaming.orientation.IncrementalOrientation`
  maintainer (its ``event`` hook fires on every mutation, declared or
  not),
* the pool's per-tenant ledgers (a :class:`LedgerShim` dict installed
  around a replay)

— and attributes every access to the schedule node executing when it
fired (``node=None`` marks host/coordinator work, which the scheduler
serializes and which therefore never races).  Declared structure
effects are synthesized into the log too (:meth:`AccessLog.declared`),
so an *undeclared* mutation — a stage calling
``session._results.invalidate()`` without declaring it, a fault
injector desyncing the orientation mid-node — collides with the
declared readers of other nodes.

:func:`find_races` then replays the log against the schedule's
happens-before relation: two accesses to one token (or a
structure-wide wildcard), from different non-host nodes, at least one
a non-idempotent ``"write"``, with *neither node reachable from the
other in the dependency DAG*, is a race.  Reads never race with reads,
and build-once/deterministic-value installs (``"write-idempotent"``:
cache ``put``, memo fills, struct builds) never race with each other —
the same exemptions the effect system's ``conflicts`` applies
statically.  Each :class:`Race` carries token, accessors, stages,
lanes and the per-lane vector clocks of both nodes — a concrete
interleaving witness — and :func:`raise_on_races` wraps the list into
a structured :class:`~repro.errors.RaceError`.

Honest coverage note: the dynamic detector sees only accesses routed
through the instrumented hooks.  A rogue direct mutation of
``cache._entries`` or ``scu._decision_memo`` bypasses them — that is
exactly what the ``shared-structure-write`` / ``session-state-mutation``
repolint rules forbid statically; the two layers are complementary.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.analysis.static.effects import stage_effects
from repro.analysis.static.schedule import CertifiedSchedule, certify_schedule
from repro.errors import RaceError

#: Access operations, in order of severity.  ``read`` observes,
#: ``write-idempotent`` installs a value any interleaving would install
#: identically (cache put of a deterministic output, memo fill, a
#: build-once struct), ``write`` mutates in a way interleavings can
#: observe (invalidate, evict, desync, ledger update).
OPS = ("read", "write-idempotent", "write")

#: Shared structures the detector knows.
STRUCTURES = ("result-cache", "scu-memo", "orientation", "ledger", "session-struct")


@dataclass(frozen=True)
class Access:
    """One logged touch of a shared structure.

    ``node`` is the schedule node executing when the access fired, or
    ``None`` for host/coordinator work (which the scheduler serializes
    against everything).  ``token=None`` is the structure-wide wildcard
    (e.g. a full-cache invalidation) and conflicts with every token of
    its structure.
    """

    seq: int
    node: int | None
    stage: str | None
    structure: str
    token: str | None
    op: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "node": self.node,
            "stage": self.stage,
            "structure": self.structure,
            "token": self.token,
            "op": self.op,
        }


@dataclass(frozen=True)
class Race:
    """One happens-before violation: two unordered conflicting accesses."""

    structure: str
    token: str | None
    a: Access
    b: Access
    lane_a: int | None = None
    lane_b: int | None = None
    clock_a: tuple[int, ...] = ()
    clock_b: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "structure": self.structure,
            "token": self.token,
            "a": self.a.as_dict(),
            "b": self.b.as_dict(),
            "lane_a": self.lane_a,
            "lane_b": self.lane_b,
            "clock_a": list(self.clock_a),
            "clock_b": list(self.clock_b),
        }

    def summary(self) -> str:
        return (
            f"race on {self.structure}"
            f"[{self.token if self.token is not None else '*'}]: "
            f"node {self.a.node} ({self.a.stage}, {self.a.op}) vs "
            f"node {self.b.node} ({self.b.stage}, {self.b.op}) are "
            "unordered by the dependency DAG"
        )


class LedgerShim(dict):
    """A per-tenant ledger dict that logs every access.

    Installed by :func:`instrument_pool_ledgers` in place of the pool's
    plain ledger dicts for the duration of a race-checked replay; the
    pool's own ``_charge``/``_spent`` code paths run unchanged (it is a
    real dict), but every read and write lands in the log, attributed
    to whatever schedule node is current.  In today's pool all charges
    happen host-side between nodes — provably ordered — so the shim's
    job is to catch a future scheduler charging from inside a lane.
    """

    def __init__(self, data: dict, log: "AccessLog", name: str):
        super().__init__(data)
        self._log = log
        self._name = name

    def _record(self, key: Any, op: str) -> None:
        self._log.record("ledger", f"ledger:{self._name}:{key}", op)

    def __setitem__(self, key, value) -> None:
        self._record(key, "write")
        super().__setitem__(key, value)

    def __getitem__(self, key):
        self._record(key, "read")
        return super().__getitem__(key)

    def get(self, key, default=None):
        self._record(key, "read")
        return super().get(key, default)


class AccessLog:
    """The ordered access log of one race-checked replay.

    The scheduled executor brackets each node's execution with
    :meth:`at`, so hook callbacks fired underneath attribute to the
    right node; anything logged outside an ``at`` block is host work.
    """

    def __init__(self) -> None:
        self.accesses: list[Access] = []
        self._node: int | None = None
        self._stage: str | None = None
        self._maintainers: list[Any] = []

    def __len__(self) -> int:
        return len(self.accesses)

    @contextmanager
    def at(self, node: int, stage: str | None = None) -> Iterator[None]:
        """Attribute accesses logged inside the block to ``node``."""
        prev = (self._node, self._stage)
        self._node, self._stage = int(node), stage
        try:
            yield
        finally:
            self._node, self._stage = prev

    def record(self, structure: str, token: str | None, op: str) -> None:
        self.accesses.append(
            Access(
                seq=len(self.accesses),
                node=self._node,
                stage=self._stage,
                structure=structure,
                token=token,
                op=op,
            )
        )

    # -- hook adapters -------------------------------------------------

    def cache_hook(self, op: str, key: tuple | None) -> None:
        """ResultCache ``_event`` hook.  Keys collapse to workload
        granularity — coarser tokens are strictly more conservative,
        and the idempotence rules keep distinct-param puts quiet."""
        token = None if key is None else f"cache:{key[0]}"
        self.record("result-cache", token, op)

    def memo_hook(self, op: str, key: tuple | None) -> None:
        """SCU ``memo_event`` hook (shape-class granularity)."""
        token = None if key is None else f"memo:{key[0]}"
        self.record("scu-memo", token, op)

    def orientation_hook(self, op: str) -> None:
        """IncrementalOrientation ``event`` hook: every mutation of the
        maintained rank/out-degree state, declared or not."""
        self.record("orientation", "orientation", op)

    # -- declared effects ----------------------------------------------

    def declared(self, node: int, stage) -> None:
        """Synthesize a node's *declared* structure accesses.

        The dynamic hooks only fire on instrumented mutation paths;
        declared struct reads (a stage consuming the oriented graph
        reads the maintainer's rank without any hookable call) are
        injected from the effect declaration instead, so an undeclared
        dynamic ``"write"`` on the same structure from an unordered
        node has a partner access to collide with.
        """
        eff = stage_effects(stage)
        with self.at(node, stage.label):
            for token in sorted(eff.reads):
                target = _struct_target(token)
                if target is not None:
                    self.record(*target, "read")
            for token in sorted(eff.writes):
                target = _struct_target(token)
                if target is not None:
                    # Struct builds are build-once: idempotent installs.
                    self.record(*target, "write-idempotent")

    # -- orientation attach/detach -------------------------------------

    def refresh(self, session) -> None:
        """(Re)install the orientation hook — the maintainer is created
        lazily, possibly mid-replay by the node that builds the
        oriented structure."""
        maintainer = session.orientation_maintainer
        if maintainer is not None and maintainer.event is None:
            maintainer.event = self.orientation_hook
            self._maintainers.append(maintainer)

    def detach(self) -> None:
        for maintainer in self._maintainers:
            if maintainer.event is not None:
                maintainer.event = None
        self._maintainers.clear()

    def as_dict(self) -> dict[str, Any]:
        return {"accesses": [a.as_dict() for a in self.accesses]}


def _struct_target(token: str) -> tuple[str, str] | None:
    """Map a declared ``struct:`` token to its (structure, token) in
    the access log's vocabulary, or ``None`` for non-struct tokens."""
    if token in ("struct:oriented", "struct:order"):
        return ("orientation", "orientation")
    if token in ("struct:undirected", "struct:csr"):
        return ("session-struct", token)
    return None


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@contextmanager
def instrument_session(session, log: AccessLog) -> Iterator[AccessLog]:
    """Route the session's shared-structure hooks into ``log`` for the
    duration of the block; previous hooks are restored on exit."""
    cache = session._results
    scu = session.ctx.scu
    prev_cache = cache._event
    prev_memo = scu.memo_event
    cache._event = log.cache_hook
    scu.memo_event = log.memo_hook
    log.refresh(session)
    try:
        yield log
    finally:
        cache._event = prev_cache
        scu.memo_event = prev_memo
        log.detach()


_LEDGERS = ("_tenant_cycles", "_tenant_retry_cycles", "_tenant_runs")


@contextmanager
def instrument_pool_ledgers(pool, log: AccessLog) -> Iterator[AccessLog]:
    """Swap the pool's per-tenant ledger dicts for logging shims; the
    plain dicts (with any updates) come back on exit."""
    saved: dict[str, dict] = {}
    for name in _LEDGERS:
        saved[name] = getattr(pool, name)
        setattr(pool, name, LedgerShim(saved[name], log, name))
    try:
        yield log
    finally:
        for name in _LEDGERS:
            plain = saved[name]
            plain.clear()
            plain.update(getattr(pool, name))
            setattr(pool, name, plain)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


def find_races(schedule: CertifiedSchedule, log: AccessLog) -> list[Race]:
    """Every unordered conflicting access pair in ``log`` under
    ``schedule``'s happens-before relation.

    Host accesses (``node=None``) are serialized by the coordinator
    and skipped; per ``(node, structure, token, op)`` only the first
    access matters (repeats add no new ordering information), which
    bounds the pair scan by nodes × tokens rather than raw log length.
    """
    dedup: dict[tuple, Access] = {}
    for acc in log.accesses:
        if acc.node is None:
            continue
        key = (acc.node, acc.structure, acc.token, acc.op)
        if key not in dedup:
            dedup[key] = acc
    by_structure: dict[str, dict[str | None, list[Access]]] = {}
    for acc in dedup.values():
        by_structure.setdefault(acc.structure, {}).setdefault(
            acc.token, []
        ).append(acc)
    races: list[Race] = []
    clocks = schedule.vector_clocks()
    for structure, by_token in by_structure.items():
        wild = by_token.get(None, [])
        for token, group in by_token.items():
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    _check_pair(schedule, clocks, a, b, races)
                if token is not None:
                    for b in wild:
                        _check_pair(schedule, clocks, a, b, races)
    races.sort(key=lambda r: (r.a.seq, r.b.seq))
    return races


def _check_pair(
    schedule: CertifiedSchedule,
    clocks: list[tuple[int, ...]],
    a: Access,
    b: Access,
    races: list[Race],
) -> None:
    if a.node == b.node:
        return
    if a.op != "write" and b.op != "write":
        return
    if schedule.happens_before(a.node, b.node) or schedule.happens_before(
        b.node, a.node
    ):
        return
    if a.seq > b.seq:
        a, b = b, a
    races.append(
        Race(
            structure=a.structure,
            token=a.token if a.token is not None else b.token,
            a=a,
            b=b,
            lane_a=schedule.lane_of.get(a.node),
            lane_b=schedule.lane_of.get(b.node),
            clock_a=clocks[a.node],
            clock_b=clocks[b.node],
        )
    )


def raise_on_races(races: list[Race], *, context: str = "replay") -> None:
    """Wrap a non-empty race list into a structured
    :class:`~repro.errors.RaceError` (no-op when the list is empty)."""
    if not races:
        return
    raise RaceError(
        f"{len(races)} race(s) detected during {context}: "
        + "; ".join(r.summary() for r in races[:3])
        + ("; ..." if len(races) > 3 else ""),
        details={"context": context, "races": [r.as_dict() for r in races]},
    )


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay_certified(
    session,
    plans: list,
    schedule: CertifiedSchedule | None = None,
    *,
    lanes: int = 4,
    order: tuple[int, ...] | None = None,
    seed: int | None = None,
):
    """Certify (when no schedule is given), instrument, replay, detect.

    Executes the batch under the schedule's canonical topological order
    (or an explicit ``order``, or a ``seed``-randomized one) with the
    session's shared structures shimmed into a fresh
    :class:`AccessLog`, then checks the log against the happens-before
    relation.  Returns ``(results, races, log)`` without raising —
    callers choose between :func:`raise_on_races` (the pool, the CLI)
    and inspecting the race list (tests, benchmarks).
    """
    from repro.session.plan import PlanExecutor

    if schedule is None:
        schedule = certify_schedule(plans, lanes=lanes)
    if order is not None:
        schedule = schedule.with_order(order)
    elif seed is not None:
        schedule = schedule.with_order(schedule.random_topological_order(seed))
    log = AccessLog()
    with instrument_session(session, log):
        executor = PlanExecutor(session, schedule=schedule, access_log=log)
        results = executor.execute(plans)
    return results, find_races(schedule, log), log
