"""The shard worker pool: spawn-safe process fan-out over shared memory.

Each worker process owns exactly one shard of the vertex universe and
serves *per-shard partial intersection counts*: for a burst ``A op
B_1..B_k`` it computes ``|A ∩ B_i ∩ S_shard|`` for every operand (for
a chunk of neighbourhood fan-out ops, ``|N(v_i) ∩ N(u_i) ∩ S_shard|``
for every pair) and posts the row into the shared result arena.
Because the shards partition the universe, the host's fixed-order
merge of the rows is the exact integer ``|A ∩ B_i|`` the sequential
kernel computes — union and difference counts derive from it by the
same identities the batch runtime uses, so outputs are bit-identical
by construction.

Spawn-safety: workers are started from the ``spawn`` context with a
module-level target (no pickled closures, no inherited host state) and
attach every input zero-copy through the
:class:`~repro.parallel.shards.SharedArray` specs in their bootstrap
message.  This module is deliberately import-light — numpy, the
stdlib, :mod:`repro.errors`, the flat set kernels of
:mod:`repro.sets.kernels` and the sibling shard/ownership modules —
so a worker never imports the host-side session, serving or analysis
stacks (the ``parallel-unsafe-access`` repolint rule enforces this
statically).

Protocol (host → worker over a duplex pipe):

* ``("load", spec)`` — attach a source CSR (undirected neighborhoods,
  oriented ``N+`` sets) and build the private shard-filtered slice;
* ``("countv", seq, a_spec, source, vertices)`` — homogeneous fast
  path: every ``B_i`` is ``source``'s set of ``vertices[i]``;
* ``("count", seq, a_spec, b_specs)`` — mixed operands;
* ``("pairs", seq, source, v_rows, u_rows)`` — one fan-out chunk's
  offloaded ops: ``|N(v_rows[i]) ∩ N(u_rows[i])|`` over ``source``'s
  sets;
* ``("ping", seq)`` — liveness probe;
* ``("exit", code)`` — hard-exit (crash injection for tests);
* ``("stop",)`` — orderly shutdown.

Operand specs: ``("v", source, vertex)`` reads the shared CSR,
``("s", offset, length)`` reads the shared scratch staging buffer.
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
DEFAULT_REPLY_TIMEOUT = 60.0

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
        self._scratch = SharedArray.attach(base["scratch"])
        # source -> (offsets, values, filtered_offsets, filtered_values,
        #            offsets_seg, values_seg, filtered_cards,
        #            filtered_keys)
        self._sources: dict[str, tuple] = {}
        self._lut = np.zeros(self.n, dtype=bool)

    def load(self, spec: dict[str, Any]) -> None:
        """Attach one source CSR and build the shard-filtered slice.

        The full CSR stays a zero-copy shared mapping (used to resolve
        probe sets ``A`` in full); the filtered slice — only the
        elements this shard owns — is private, and is what splits the
        frontier scan evenly across workers.  Its rows stay sorted, so
        its ``row * n + element`` keys, built here once, are sorted too
        (the flat pair probe of :meth:`count_pairs`).
        """
        name = spec["source"]
        stale = self._sources.pop(name, None)
        if stale is not None:
            stale[4].close()
            stale[5].close()
        off_seg = SharedArray.attach(spec["offsets"])
        val_seg = SharedArray.attach(spec["values"])
        offsets = off_seg.array
        values = val_seg.array
        keep = self._shard_of.array[values] == self.shard
        fvalues = values[keep]
        cum = np.zeros(values.size + 1, dtype=np.int64)
        np.cumsum(keep, dtype=np.int64, out=cum[1:])
        foffsets = cum[offsets]
        fcards = np.diff(foffsets)
        fkeys = np.repeat(np.arange(fcards.size, dtype=np.int64), fcards)
        fkeys *= self.n
        fkeys += fvalues
        self._sources[name] = (
            offsets, values, foffsets, fvalues, off_seg, val_seg, fcards, fkeys
        )

    # -- operand resolution --------------------------------------------

    def _probe_elements(self, spec) -> np.ndarray:
        """The *full* element array of a probe-set spec (set ``A``)."""
        tag = spec[0]
        if tag == "v":
            offsets, values = self._sources[spec[1]][:2]
            v = spec[2]
            return values[offsets[v]:offsets[v + 1]]
        if tag == "s":
            off, length = spec[1], spec[2]
            return self._scratch.array[off:off + length]
        raise WorkerCrashError(
            f"unknown operand spec tag {tag!r}",
            details={"shard": self.shard, "spec": list(spec[:1])},
        )

    def _shard_count(self, lut: np.ndarray, spec) -> int:
        """``|A ∩ B ∩ S_shard|`` for one mixed-path operand."""
        tag = spec[0]
        if tag == "v":
            __, __, fo, fv = self._sources[spec[1]][:4]
            v = spec[2]
            return int(np.count_nonzero(lut[fv[fo[v]:fo[v + 1]]]))
        elements = self._probe_elements(spec)
        mine = self._shard_of.array[elements] == self.shard
        return int(np.count_nonzero(lut[elements] & mine))

    # -- counting ------------------------------------------------------

    def count_vertices(
        self, a_spec, source: str, vertices: np.ndarray
    ) -> None:
        """Homogeneous burst: counts against ``source``'s sets of
        ``vertices``, vectorized over the shard-filtered CSR."""
        __, __, fo, fv = self._sources[source][:4]
        a_els = self._probe_elements(a_spec)
        lut = self._lut
        lut[a_els] = True
        starts = fo[vertices]
        lens = fo[vertices + 1] - starts
        total = int(lens.sum())
        out_off = np.zeros(vertices.size + 1, dtype=np.int64)
        np.cumsum(lens, out=out_off[1:])
        if total:
            # Standard CSR multi-row gather: flat[i] enumerates every
            # filtered element of every requested row, in row order.
            idx = (
                np.arange(total, dtype=np.int64)
                - np.repeat(out_off[:-1], lens)
                + np.repeat(starts, lens)
            )
            hits = np.zeros(total + 1, dtype=np.int64)
            np.cumsum(lut[fv[idx]], dtype=np.int64, out=hits[1:])
            counts = hits[out_off[1:]] - hits[out_off[:-1]]
        else:
            counts = np.zeros(vertices.size, dtype=np.int64)
        self._arena.array[self.shard, :vertices.size] = counts
        lut[a_els] = False

    def count_pairs(
        self, source: str, v_rows: np.ndarray, u_rows: np.ndarray
    ) -> None:
        """Fan-out chunk: ``|N(v_i) ∩ N(u_i) ∩ S_shard|`` for every pair
        of ``source``'s rows, one flat probe over the shard-filtered
        CSR."""
        __, __, fo, fv, __, __, fcards, fkeys = self._sources[source]
        self._arena.array[self.shard, :v_rows.size] = intersect_count_rows(
            fo, fcards, fv, fkeys, self.n, v_rows, u_rows
        )

    def count_mixed(self, a_spec, b_specs: list) -> None:
        a_els = self._probe_elements(a_spec)
        lut = self._lut
        lut[a_els] = True
        row = self._arena.array[self.shard]
        for i, spec in enumerate(b_specs):
            row[i] = self._shard_count(lut, spec)
        lut[a_els] = False


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
            elif kind == "countv":
                worker.count_vertices(message[2], message[3], message[4])
                conn.send(("ok", seq))
            elif kind == "count":
                worker.count_mixed(message[2], message[3])
                conn.send(("ok", seq))
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
    :meth:`partial_counts` by fanning a burst out to every worker and
    merging the arena rows in fixed shard order.

    A runtime is reusable across batches and epochs (the ~1s spawn cost
    amortizes); :class:`~repro.session.pool.SessionPool` caches one per
    session.
    """

    def __init__(
        self,
        session,
        shards: int,
        *,
        policy: str = "degree",
        offload_threshold: int = DEFAULT_OFFLOAD_THRESHOLD,
        reply_timeout: float = DEFAULT_REPLY_TIMEOUT,
    ):
        if shards < 1:
            raise ConfigError("shards must be positive")
        graph = session.graph
        n = graph.num_vertices
        self.session = session
        self.plan = ShardPlan.build(graph.degrees, shards, policy=policy)
        self.offload_threshold = int(offload_threshold)
        self.reply_timeout = float(reply_timeout)
        self.store = ShardStore(
            self.plan,
            # A row per message: a burst has fewer than n operands, and
            # a fan-out chunk at most FANOUT_CHUNK_OPS (1024) ops or one
            # task's.
            arena_width=max(n, 1024),
            scratch_elements=max(4 * n, 0),
        )
        self.offloaded_units = 0
        self.inline_units = 0
        self._seq = 0
        self._cursor = 0
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
        when the burst should run inline (too small to amortize the
        round trip, or not representable in the staged arenas).  When
        an array is returned it is element-for-element identical to
        :func:`repro.runtime.batch.intersect_counts`."""
        n_b = len(bs)
        if (
            self.closed
            or n_b == 0
            or n_b > self.store.arena_width
            or session.graph.num_vertices != self.plan.shard_of.size
        ):
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
        self._cursor = 0
        a_spec = self._operand_spec(a, sm)
        if a_spec is None:
            self.inline_units += 1
            return None
        b_entries = [self._set_map.get(int(b)) for b in bs]
        sources = {ent[0] for ent in b_entries if ent is not None}
        self._seq += 1
        seq = self._seq
        if None not in b_entries and len(sources) == 1:
            vertices = np.fromiter(
                (ent[1] for ent in b_entries), np.int64, n_b
            )
            message = ("countv", seq, a_spec, next(iter(sources)), vertices)
        else:
            b_specs = []
            for b, ent in zip(bs, b_entries):
                spec = (
                    ("v", ent[0], ent[1])
                    if ent is not None
                    else self._operand_spec(int(b), sm)
                )
                if spec is None:
                    self.inline_units += 1
                    return None
                b_specs.append(spec)
            message = ("count", seq, a_spec, b_specs)
        self._broadcast(message)
        for k in range(self.shards):
            self._expect_ok(k, seq)
        self.offloaded_units += 1
        return self._merge_arena(n_b)

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
        if (
            not self.closed
            and session.graph.num_vertices == self.plan.shard_of.size
            and offload.any()
        ):
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
        v_rows = program.a_rows[ops]
        u_rows = program.b_rows[ops]
        self._seq += 1
        seq = self._seq
        self._broadcast(("pairs", seq, source, v_rows, u_rows))
        for k in range(self.shards):
            self._expect_ok(k, seq)
        counts = np.empty(ops.size, dtype=np.int64)
        counts[ops] = self._merge_arena(v_rows.size)
        inline = ~ops
        if inline.any():
            counts[inline] = program.rows.intersect_counts(
                program.a_rows[inline], program.b_rows[inline]
            )
        offloaded = int(np.count_nonzero(offload))
        self.offloaded_units += offloaded
        self.inline_units += bursts - offloaded
        return counts

    def _merge_arena(self, n_b: int) -> np.ndarray:
        from repro.parallel.merge import merge_partials

        return merge_partials(self.store.arena.array, self.shards, n_b)

    def _operand_spec(self, sid: int, sm):
        ent = self._set_map.get(sid)
        if ent is not None:
            return ("v", ent[0], ent[1])
        value = sm.value(sid)
        # Mirror batch.intersect_counts operand semantics exactly:
        # sparse arrays are counted over their raw element array.
        elements = getattr(value, "elements", None)
        arr = np.asarray(
            elements if elements is not None else value.to_array(),
            dtype=np.int64,
        )
        end = self._cursor + arr.size
        if end > self.store.scratch_capacity:
            return None
        self.store.scratch.array[self._cursor:end] = arr
        spec = ("s", self._cursor, int(arr.size))
        self._cursor = end
        return spec

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
        deadline = time.monotonic() + self.reply_timeout
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
                raise self._crash(
                    shard, f"hung past {self.reply_timeout:.0f}s"
                )

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
