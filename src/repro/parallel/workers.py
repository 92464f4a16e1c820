"""The shard worker pool: spawn-safe process fan-out over shared memory.

Each worker process owns exactly one shard of the vertex universe and
serves *per-shard partial intersection counts*: for a list of row
pairs ``(v_i, u_i)`` of one staged source it computes
``|N(v_i) ∩ N(u_i) ∩ S_shard|`` and posts the row into the shared
result arena.  A fan-out chunk sends its offloaded ops as such pairs,
and a burst ``A op B_1..B_k`` whose operands are rows of one source
sends ``A``'s row once per ``B_i``.  Because the shards partition the
universe, the host's fixed-order merge of the rows is the exact integer
``|A ∩ B_i|`` the sequential kernel computes — union and difference
counts derive from it by the same identities the batch runtime uses,
so outputs are bit-identical by construction.

Spawn-safety: workers are started from the ``spawn`` context with a
module-level target (no pickled closures, no inherited host state) and
attach every input zero-copy through the
:class:`~repro.parallel.shards.SharedArray` specs in their bootstrap
message.  This module is deliberately import-light — numpy, the
stdlib, :mod:`repro.errors`, the flat set kernels of
:mod:`repro.sets.kernels` and the sibling shard/merge/ownership
modules — so a worker never imports the host-side session, serving or
analysis stacks (the ``parallel-unsafe-access`` repolint rule enforces
this statically).

Protocol (host → worker over a duplex pipe):

* ``("load", spec)`` — read a source CSR (undirected neighborhoods,
  oriented ``N+`` sets) and build the private shard-filtered slice;
* ``("pairs", seq, source, v_rows, u_rows)`` — the pair-count kernel:
  ``|N(v_rows[i]) ∩ N(u_rows[i])|`` over ``source``'s sets;
* ``("ping", seq)`` — liveness probe;
* ``("exit", code)`` — hard-exit (crash injection for tests);
* ``("stop",)`` — orderly shutdown.

Every reply is ``("ok", seq)`` / ``("err", seq, message)``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from typing import Any

import numpy as np

from repro.errors import ConfigError, WorkerCrashError
from repro.parallel import ownership
from repro.parallel.merge import merge_partials
from repro.parallel.shards import (
    ShardPlan,
    ShardStore,
    SharedArray,
    setgraph_csr,
)
from repro.sets.kernels import intersect_count_rows

#: Below this many scanned elements (|A| + Σ|B_i|) a burst computes
#: inline on the host: the pipe round trip would cost more wall time
#: than the count itself.  The decision is a pure function of uncharged
#: set metadata, so it is deterministic — and either path produces the
#: identical count array, so it cannot affect outputs or modeled
#: cycles.
DEFAULT_OFFLOAD_THRESHOLD = 4096

#: Seconds a worker reply may take before the host declares the worker
#: hung (structured WorkerCrashError instead of an indefinite wait).
REPLY_TIMEOUT = 60.0

_POLL_INTERVAL = 0.02


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class _ShardWorker:
    """Per-process worker state: attached segments and filtered CSRs."""

    def __init__(self, shard: int, base: dict[str, Any]):
        self.shard = shard
        self.n = int(base["n"])
        self._shard_of = SharedArray.attach(base["shard_of"])
        self._arena = SharedArray.attach(base["arena"])
        # source -> (filtered_offsets, filtered_values, filtered_cards,
        #            filtered_keys)
        self._sources: dict[str, tuple] = {}

    def load(self, spec: dict[str, Any]) -> None:
        """Build the shard-filtered slice of one staged source CSR.

        The slice — only the elements this shard owns — is private, and
        is what splits the frontier scan evenly across workers; the
        shared CSR is read only here, and its mapping closed after.
        Its rows stay sorted, so its ``row * n + element`` keys, built
        here once, are sorted too (the flat pair probe of
        :meth:`count_pairs`).
        """
        off_seg = SharedArray.attach(spec["offsets"])
        val_seg = SharedArray.attach(spec["values"])
        try:
            offsets = off_seg.array
            values = val_seg.array
            keep = self._shard_of.array[values] == self.shard
            fvalues = values[keep]
            cum = np.zeros(values.size + 1, dtype=np.int64)
            np.cumsum(keep, dtype=np.int64, out=cum[1:])
            foffsets = cum[offsets]
        finally:
            off_seg.close()
            val_seg.close()
        fcards = np.diff(foffsets)
        fkeys = np.repeat(np.arange(fcards.size, dtype=np.int64), fcards)
        fkeys *= self.n
        fkeys += fvalues
        self._sources[spec["source"]] = (foffsets, fvalues, fcards, fkeys)

    def count_pairs(
        self, source: str, v_rows: np.ndarray, u_rows: np.ndarray
    ) -> None:
        """``|N(v_i) ∩ N(u_i) ∩ S_shard|`` for every pair of
        ``source``'s rows, one flat probe over the shard-filtered
        CSR."""
        fo, fv, fcards, fkeys = self._sources[source]
        self._arena.array[self.shard, :v_rows.size] = intersect_count_rows(
            fo, fcards, fv, fkeys, self.n, v_rows, u_rows
        )


def _worker_main(shard: int, conn, base: dict[str, Any]) -> None:
    """Entry point of one shard worker process (module-level: the spawn
    context pickles only its qualified name, never a closure)."""
    ownership.mark_worker(shard)
    worker = _ShardWorker(shard, base)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # host side went away: nothing left to serve
        kind = message[0]
        if kind == "stop":
            conn.send(("bye", shard))
            return
        if kind == "exit":
            # Crash injection: a hard exit, no goodbye — the host must
            # surface this as a structured WorkerCrashError, not hang.
            os._exit(int(message[1]))
        seq = message[1] if len(message) > 1 else None
        try:
            if kind == "load":
                worker.load(message[1])
                conn.send(("ok", ("load", message[1]["source"])))
            elif kind == "pairs":
                worker.count_pairs(message[2], message[3], message[4])
                conn.send(("ok", seq))
            elif kind == "ping":
                conn.send(("ok", seq))
            else:
                conn.send(("err", seq, f"unknown message kind {kind!r}"))
        except Exception as exc:  # repolint: disable=overbroad-except -- a worker must report failures as structured replies, never die silently
            conn.send(("err", seq, f"{type(exc).__name__}: {exc}"))


# ---------------------------------------------------------------------------
# Host side
# ---------------------------------------------------------------------------


def _teardown(procs, conns, store) -> None:
    """GC-safe teardown (module-level so the finalizer holds no
    reference back to the runtime)."""
    for conn in conns:
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
    deadline = time.monotonic() + 2.0
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=1.0)
    for conn in conns:
        conn.close()
    store.close()


class ShardRuntime:
    """Host-side owner of one session's shard workers.

    Spawns one worker per shard over the session's vertex universe,
    lazily pushes source CSRs on first use (push-on-first-use keeps
    set-ID allocation order — and therefore SMB trajectories and
    modeled cycles — bit-identical to the sequential reference: the
    runtime never *builds* a session structure, it only mirrors ones
    the plans' own prep stages already built), and answers
    :meth:`partial_counts` (one burst) and :meth:`fanout_partials` (one
    fan-out chunk) with one ``pairs`` message to every worker, merging
    the arena rows in fixed shard order.

    A runtime is reusable across batches and epochs (the ~1s spawn cost
    amortizes); :class:`~repro.session.pool.SessionPool` caches one per
    session.
    """

    def __init__(
        self,
        session,
        shards: int,
        *,
        offload_threshold: int = DEFAULT_OFFLOAD_THRESHOLD,
    ):
        if shards < 1:
            raise ConfigError("shards must be positive")
        graph = session.graph
        self.session = session
        self.plan = ShardPlan.build(graph.degrees, shards)
        self.offload_threshold = int(offload_threshold)
        self.store = ShardStore(
            self.plan,
            # A row per message: a burst has fewer than n operands, and
            # a fan-out chunk at most FANOUT_CHUNK_OPS (1024) ops or one
            # task's.
            arena_width=max(graph.num_vertices, 1024),
        )
        self.offloaded_units = 0
        self.inline_units = 0
        self._seq = 0
        self._set_map: dict[int, tuple[str, int]] = {}
        self._source_graphs: dict[str, Any] = {}
        self._source_vers: dict[str, tuple] = {}
        ctx = mp.get_context("spawn")
        self._procs = []
        self._conns = []
        base = self.store.base_spec()
        for k in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(k, child_conn, base),
                name=f"repro-shard-{k}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
        self._finalizer = weakref.finalize(
            self, _teardown, self._procs, self._conns, self.store
        )
        self.closed = False

    @property
    def shards(self) -> int:
        return self.plan.shards

    # -- source staging ------------------------------------------------

    def _push(self, name: str, graph_obj, offsets, values, version) -> None:
        spec, stale = self.store.push_source(name, offsets, values)
        self._broadcast(("load", spec))
        for k in range(self.shards):
            self._expect_ok(k, ("load", name))
        if stale is not None:
            stale[0].destroy()
            stale[1].destroy()
        self._source_graphs[name] = graph_obj
        self._source_vers[name] = version
        self._set_map = {
            sid: (src, v)
            for src, sg in self._source_graphs.items()
            for v, sid in enumerate(sg.set_ids)
        }

    def _refresh(self, session) -> None:
        """Mirror any session structure that exists *now* but is not
        yet (or no longer) staged.  Pure observation: this never
        triggers a session-side build."""
        version = session._version
        sg = session._setgraph
        if sg is not None:
            ver = (id(sg), version)
            if self._source_vers.get("graph") != ver:
                offsets, values = setgraph_csr(session.ctx, sg.set_ids)
                self._push("graph", sg, offsets, values, ver)
        maintainer = session._orientation_maintainer
        osg = None
        over: tuple | None = None
        if maintainer is not None:
            if session._orientation_is_current():
                osg = maintainer.oriented
                over = (id(osg), version, maintainer.revision)
        elif (
            session._oriented is not None
            and session._oriented_version == version
        ):
            osg = session._oriented
            over = (id(osg), version)
        if osg is not None and self._source_vers.get("oriented") != over:
            offsets, values = setgraph_csr(session.ctx, osg.set_ids)
            self._push("oriented", osg, offsets, values, over)

    # -- the burst service ---------------------------------------------

    def partial_counts(self, session, a: int, bs) -> np.ndarray | None:
        """Merged ``|A ∩ B_i|`` computed shard-parallel, or ``None``
        when the burst should run inline: too small to amortize the
        round trip, or ``A`` and the ``B_i`` are not all rows of one
        staged source.  The burst goes to every worker as one ``pairs``
        message, ``A``'s row repeated for each ``B_i``.  When an array
        is returned it is element-for-element identical to
        :func:`repro.runtime.batch.intersect_counts`."""
        n_b = len(bs)
        if n_b == 0 or n_b > self.store.arena_width or not self._open(session):
            self.inline_units += 1
            return None
        sm = session.ctx.sm
        payload = sm.meta(a).cardinality + sum(
            sm.meta(b).cardinality for b in bs
        )
        if payload < self.offload_threshold:
            self.inline_units += 1
            return None
        self._refresh(session)
        rows = [self._set_map.get(int(sid)) for sid in (a, *bs)]
        if None in rows or len({source for source, __ in rows}) != 1:
            self.inline_units += 1
            return None
        source, v = rows[0]
        u_rows = np.fromiter((u for __, u in rows[1:]), np.int64, n_b)
        counts = self._pairs(source, np.full(n_b, v, dtype=np.int64), u_rows)
        self.offloaded_units += 1
        return counts

    def fanout_partials(self, session, program) -> np.ndarray | None:
        """The current chunk of a fan-out ``program``
        (:class:`~repro.runtime.context.FanoutProgram`) counted with the
        workers: ``|N(v) ∩ N(u)|`` for every op of the chunk, or
        ``None`` when every task of the chunk runs inline (the program
        then counts them on the host).

        Each task is one burst and takes :meth:`partial_counts`'
        decision: it offloads when its payload ``|N(v)| + Σ_u |N(u)|``
        reaches the offload threshold, the runtime is open, the vertex
        count matches the shard plan and the fan-out's SetGraph is a
        staged source.  The offloaded tasks' ops go to every worker in
        one ``pairs`` message and their arena rows merge in fixed shard
        order; the inline tasks' ops are counted on the host over only
        their rows.  The burst counters count tasks."""
        bounds = np.asarray(program.bounds)
        degrees = bounds[1:] - bounds[:-1]
        bursts = int(np.count_nonzero(degrees))
        cards = program.table.cards
        cum = np.zeros(bounds[-1] + 1, dtype=np.int64)
        np.cumsum(cards[program.b_rows], out=cum[1:])
        payload = cards[program.v0:program.v1] + cum[bounds[1:]] - cum[bounds[:-1]]
        offload = (degrees > 0) & (payload >= self.offload_threshold)
        source = None
        if offload.any() and self._open(session):
            self._refresh(session)
            source = next(
                (
                    name
                    for name, sg in self._source_graphs.items()
                    if sg.set_ids is program.set_ids
                ),
                None,
            )
        if source is None:
            self.inline_units += bursts
            return None
        ops = np.repeat(offload, degrees)
        counts = np.empty(ops.size, dtype=np.int64)
        counts[ops] = self._pairs(
            source, program.a_rows[ops], program.b_rows[ops]
        )
        inline = ~ops
        if inline.any():
            counts[inline] = program.rows.intersect_counts(
                program.a_rows[inline], program.b_rows[inline]
            )
        offloaded = int(np.count_nonzero(offload))
        self.offloaded_units += offloaded
        self.inline_units += bursts - offloaded
        return counts

    def _open(self, session) -> bool:
        """Whether ``session``'s bursts may offload at all: the runtime
        is open and its shard plan covers the session's vertices."""
        return (
            not self.closed
            and session.graph.num_vertices == self.plan.shard_of.size
        )

    def _pairs(self, source: str, v_rows, u_rows) -> np.ndarray:
        """``|N(v_rows[i]) ∩ N(u_rows[i])|`` over ``source``'s rows: one
        ``pairs`` message to every worker, their arena rows merged in
        fixed shard order."""
        self._seq += 1
        seq = self._seq
        self._broadcast(("pairs", seq, source, v_rows, u_rows))
        for k in range(self.shards):
            self._expect_ok(k, seq)
        return merge_partials(self.store.arena.array, self.shards, v_rows.size)

    # -- transport -----------------------------------------------------

    def _crash(self, shard: int, why: str, **extra) -> WorkerCrashError:
        proc = self._procs[shard]
        return WorkerCrashError(
            f"shard worker {shard} {why}",
            details={
                "shard": shard,
                "alive": proc.is_alive(),
                "exitcode": proc.exitcode,
                **extra,
            },
        )

    def _broadcast(self, message) -> None:
        for k, conn in enumerate(self._conns):
            try:
                conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                raise self._crash(k, "pipe closed on send") from exc

    def _expect_ok(self, shard: int, seq) -> None:
        reply = self._recv(shard)
        if reply[0] == "err":
            raise self._crash(
                shard, f"reported an error: {reply[2]}", seq=reply[1]
            )
        if reply[0] != "ok" or reply[1] != seq:
            raise self._crash(
                shard, f"sent an out-of-protocol reply {reply[0]!r}"
            )

    def _recv(self, shard: int):
        conn = self._conns[shard]
        proc = self._procs[shard]
        deadline = time.monotonic() + REPLY_TIMEOUT
        while True:
            try:
                if conn.poll(_POLL_INTERVAL):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise self._crash(shard, "died mid-reply") from exc
            if not proc.is_alive():
                # One final drain: the worker may have replied and then
                # exited before we polled.
                try:
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError) as exc:
                    raise self._crash(shard, "died mid-reply") from exc
                raise self._crash(shard, "exited without replying")
            if time.monotonic() > deadline:
                raise self._crash(shard, f"hung past {REPLY_TIMEOUT:.0f}s")

    # -- lifecycle -----------------------------------------------------

    def ping(self) -> None:
        """Round-trip every worker (spawn barrier / liveness check)."""
        self._seq += 1
        self._broadcast(("ping", self._seq))
        for k in range(self.shards):
            self._expect_ok(k, self._seq)

    def kill_worker(self, shard: int) -> None:
        """Hard-kill one worker (crash-injection test helper)."""
        self._procs[shard].kill()
        self._procs[shard].join(timeout=5.0)

    def crash_worker(self, shard: int, code: int = 3) -> None:
        """Ask one worker to hard-exit from the inside (crash-injection
        test helper exercising the in-protocol path)."""
        self._conns[shard].send(("exit", code))
        self._procs[shard].join(timeout=5.0)

    def close(self) -> None:
        """Orderly shutdown: stop workers, release shared segments."""
        if self.closed:
            return
        self.closed = True
        self._finalizer.detach()
        _teardown(self._procs, self._conns, self.store)
