"""The five closed-loop workloads of the layered benchmark.

Each workload is one client issuing requests back to back: request
``i + 1`` starts when request ``i`` returns.  A workload builds its
inputs from the seed when constructed, so the same seed replays the
same requests.  The seed relabels the vertices of one fixed Kronecker
graph per workload and draws the edge-update stream, the plan order,
the tenants and the fault seeds.  Keeping the graph's structure fixed
keeps the amount of work per request equal across seeds, so the
spread between seeds measures the host, not the input size.

:meth:`Workload.open` is the cold part a user pays once per graph:
from the in-memory graph to a serving object.  The reference answers
used by :meth:`Workload.check` come from code outside the system under
test: the non-set baselines and networkx.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from time import perf_counter

import numpy as np

from common import CUTOFFS
from repro.analysis.static.smoke import SOAK_WORKLOADS
from repro.baselines.nonset import (
    bfs_nonset,
    kclique_count_nonset,
    triangle_count_nonset,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import kronecker_graph
from repro.graphs.streams import EdgeBatch
from repro.serving import FaultInjector, RetryPolicy, TenantQuota
from repro.session import ExecutionConfig, SessionPool, SisaSession

EDGE_FACTOR = 8
#: Generator seed of the fixed Kronecker structure every seed relabels.
STRUCTURE_SEED = 0
THREADS = 32
TENANTS = 8
#: Share of the live edges one serve request replaces (deletes and
#: inserts as many), the write half of the serve traffic.
CHURN = 0.002
#: Share of the Kronecker edges held out of the serve graph as the
#: reserve that churn inserts draw from.
RESERVE = 0.1
PLANS_PER_REQUEST = 3
#: Fault rates and per-kind cap of the robustness soak
#: (benchmarks/bench_robustness.py): with at most 2 kernel and 2 drift
#: faults per request, RetryPolicy(max_retries=4) always leaves a clean
#: attempt, so no request fails.
FAULT_RATES = dict(
    drift_rate=0.08, cache_rate=0.35, kernel_rate=0.2, orientation_rate=0.15
)
MAX_FAULTS_PER_KIND = 2


def _subseed(*parts: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a purpose."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Reply:
    """What one request returned: ``(workload, params, output)`` per
    plan (output ``None`` for a failed plan) and its modeled cycles."""

    outputs: list
    cycles: float
    failed: bool = False
    update_s: float | None = None


@dataclass
class State:
    """One serving object and the counters the benchmark reads."""

    session: SisaSession
    pool: SessionPool | None = None
    offloaded: int = 0
    inline: int = 0


class Workload:
    """A seeded closed-loop request stream over one graph."""

    name = ""
    #: True when the graph never changes, so every request must return
    #: the same outputs and only the first needs the oracle.
    static = True
    #: Kronecker scale of the graph (``smoke`` shrinks it by 4).
    scale = 11

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        kron = kronecker_graph(self.scale - 4 * smoke, EDGE_FACTOR, seed=STRUCTURE_SEED)
        n = kron.num_vertices
        label = np.random.default_rng(_subseed(seed, 1)).permutation(n)
        self.graph = CSRGraph.from_edges(n, label[kron.edge_array()])
        # The soak mix, with BFS rooted at the hub of the fixed structure
        # so the traversal is the same under every relabelling.
        root = int(label[np.argmax(kron.degrees)])
        self.mix = [
            (name, {**params, "root": root} if "root" in params else params)
            for name, params in SOAK_WORKLOADS
        ]

    def open(self) -> State:
        raise NotImplementedError

    def request(self, state: State, i: int) -> Reply:
        raise NotImplementedError

    def close(self, state: State) -> None:
        if state.pool is not None:
            state.pool.close()

    def tenant(self, i: int) -> str:
        """The tenant of request ``i``: each block of eight requests is
        served for the eight tenants in a seeded order."""
        order = np.random.default_rng(_subseed(self.seed, 6, i // TENANTS))
        return f"tenant-{order.permutation(TENANTS)[i % TENANTS]}"

    def graph_at(self, i: int) -> CSRGraph:
        """The graph request ``i`` read."""
        return self.graph

    def check(self, i: int, outputs: list) -> list[str]:
        """Oracle errors for request ``i``'s outputs (empty when right)."""
        graph = self.graph_at(i)
        errors = []
        for name, params, output in outputs:
            if output is None:
                continue
            problem = check_output(graph, name, params, output)
            if problem:
                errors.append(f"request {i} {name}{params}: {problem}")
        return errors

    # -- counters read around the traced window --------------------------

    def instructions(self, state: State) -> int:
        return state.session.ctx.scu.stats.instructions

    def counters(self, state: State) -> dict[str, float]:
        session = state.session
        smb = session.ctx.scu.smb.stats
        cache = session.cache_stats
        out = {
            "scu_ops": session.ctx.scu.stats.instructions,
            "smb_hits": smb.hits,
            "smb_accesses": smb.accesses,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_corruptions": cache.corruptions,
            "retries": 0,
            "attempts": 0,
            "retry_cycles": 0.0,
            "repairs": 0,
            "full_repeels": 0,
            "resyncs": 0,
            "offloaded": state.offloaded,
            "inline": state.inline,
            "spans": 0,
        }
        maintainer = session.orientation_maintainer
        if maintainer is not None:
            out["repairs"] = maintainer.stats.repairs
            out["full_repeels"] = maintainer.stats.full_repeels
            out["resyncs"] = maintainer.stats.resyncs
        pool = state.pool
        if pool is not None:
            health = pool.health()
            out["retries"] = health.retries
            out["attempts"] = health.completed + health.failed + health.retries
            out["retry_cycles"] = sum(pool.tenant_retry_cycles.values())
            if pool.obs is not None:
                out["spans"] = pool.obs.spans.count
        return out


def _plan_outputs(results, plans) -> Reply:
    outputs = []
    cycles = 0.0
    failed = False
    for result, (name, params) in zip(results, plans):
        if result.ok:
            outputs.append((name, params, result.output))
            cycles += result.runtime_cycles
        else:
            outputs.append((name, params, None))
            failed = True
    return Reply(outputs, cycles, failed)


class TriWarm(Workload):
    """Warm ``triangles`` on one session: the count-burst path."""

    name = "tri-warm"

    def open(self) -> State:
        config = ExecutionConfig(threads=THREADS, result_cache=False)
        return State(session=SisaSession(self.graph, config))

    def request(self, state: State, i: int) -> Reply:
        run = state.session.run("triangles")
        return Reply([("triangles", {}, run.output)], run.runtime_cycles)


class BkCliques(TriWarm):
    """Warm Bron-Kerbosch at the paper's cutoff: the scalar
    materialising path."""

    name = "bk-cliques"

    def request(self, state: State, i: int) -> Reply:
        params = {"max_patterns": CUTOFFS["mc"]}
        run = state.session.run("maximal_cliques", **params)
        return Reply([("maximal_cliques", params, run.output)], run.runtime_cycles)


class ChurnFeed:
    """Seeded 0.2%-churn edge batches over a fixed pool of edges.

    The serve graph starts as a random ``1 - RESERVE`` share of the
    pool.  Each batch deletes a ``CHURN`` share of the live edges and
    inserts as many edges drawn from the held-out reserve, which takes
    the deleted ones in.  The live graph stays a random subset of one
    pool, so the work per request does not drift with how many requests
    a run completes.  Batches are generated on demand.
    """

    def __init__(self, pool: CSRGraph, seed: int):
        self.n = pool.num_vertices
        self.seed = seed
        edges = pool.edge_array()
        order = np.random.default_rng(_subseed(seed, 2)).permutation(len(edges))
        cut = len(edges) - int(round(RESERVE * len(edges)))
        self._live = edges[order[:cut]]
        self._reserve = edges[order[cut:]]
        self.initial = CSRGraph.from_edges(self.n, self._live)
        self.k = max(1, int(round(CHURN * cut)))
        self.batches: list[EdgeBatch] = []
        self._replayed: set[int] | None = None
        self._replayed_upto = -1

    def batch(self, i: int) -> EdgeBatch:
        while i >= len(self.batches):
            rng = np.random.default_rng(_subseed(self.seed, 3, len(self.batches)))
            out = rng.choice(len(self._live), self.k, replace=False)
            back = rng.choice(len(self._reserve), self.k, replace=False)
            deleted, inserted = self._live[out], self._reserve[back]
            self._live[out], self._reserve[back] = inserted, deleted
            self.batches.append(EdgeBatch(insertions=inserted, deletions=deleted))
        return self.batches[i]

    def graph_after(self, i: int) -> CSRGraph:
        """The graph with batches ``0..i`` applied, replayed from the
        initial edges independently of the system under test."""
        n = self.n
        if self._replayed is None or i < self._replayed_upto:
            self._replayed = {int(u) * n + int(v) for u, v in self.initial.edge_array()}
            self._replayed_upto = -1
        for j in range(self._replayed_upto + 1, i + 1):
            batch = self.batch(j)
            self._replayed.difference_update(int(u) * n + int(v) for u, v in batch.deletions)
            self._replayed.update(int(u) * n + int(v) for u, v in batch.insertions)
        self._replayed_upto = i
        keys = np.fromiter(sorted(self._replayed), np.int64, len(self._replayed))
        return CSRGraph.from_edges(n, np.column_stack([keys // n, keys % n]))


class _Serve(Workload):
    """One tenant per request: apply one churn batch, submit three
    plans drawn from the soak mix, run the pool."""

    static = False
    scale = 9

    def __init__(self, seed: int, smoke: bool = False):
        super().__init__(seed, smoke)
        self.feed = ChurnFeed(self.graph, seed)
        self.graph = self.feed.initial

    def _pool(self) -> SessionPool:
        raise NotImplementedError

    def open(self) -> State:
        pool = self._pool()
        session = pool.session("g", self.graph)
        session.attach_stream()
        session.maintain_orientation()
        return State(session=session, pool=pool)

    def plans(self, i: int) -> list:
        """Three distinct soak-mix plans for request ``i``.  Every block
        of ten requests draws each of the ten possible triples once, in
        a seeded order, so the work per block is the same for every seed
        and run length.  Request 0, the one a cold start answers, runs
        the whole mix, so set-up work does not depend on the seed."""
        if i == 0:
            return list(self.mix)
        triples = list(combinations(self.mix, PLANS_PER_REQUEST))
        block = np.random.default_rng(_subseed(self.seed, 4, i // len(triples)))
        return list(triples[block.permutation(len(triples))[i % len(triples)]])

    def before_run(self, pool: SessionPool, i: int) -> None:
        pass

    def request(self, state: State, i: int) -> Reply:
        pool = state.pool
        batch = self.feed.batch(i)
        t0 = perf_counter()
        state.session.stream.apply_batch(batch)
        update_s = perf_counter() - t0
        tenant = self.tenant(i)
        plans = self.plans(i)
        for name, params in plans:
            pool.submit("g", name, tenant=tenant, **params)
        self.before_run(pool, i)
        reply = _plan_outputs(pool.run(), plans)
        reply.update_s = update_s
        return reply

    def graph_at(self, i: int) -> CSRGraph:
        return self.feed.graph_after(i)


class ServeChurn(_Serve):
    """Strict pool with fusion, the result cache and observability on."""

    name = "serve-churn"

    def _pool(self) -> SessionPool:
        return SessionPool(ExecutionConfig(threads=THREADS), observability=True)


class ServeFaults(_Serve):
    """The same traffic through the hardened path: retry, a seeded
    fault injector per request, a tenant quota; observability off."""

    name = "serve-faults"

    def _pool(self) -> SessionPool:
        return SessionPool(
            ExecutionConfig(threads=THREADS),
            default_quota=TenantQuota(max_queue_depth=8, max_deferred=32),
            retry=RetryPolicy(max_retries=4),
        )

    def before_run(self, pool: SessionPool, i: int) -> None:
        pool.fault_injector = FaultInjector(
            _subseed(self.seed, 5, i),
            max_per_kind=MAX_FAULTS_PER_KIND,
            **FAULT_RATES,
        )


class ServeLanes2(Workload):
    """One tenant per request submitting the whole soak mix, served on
    two shard worker processes at the default offload threshold."""

    name = "serve-lanes2"
    scale = 10
    lanes = 2

    def open(self) -> State:
        pool = SessionPool(ExecutionConfig(threads=THREADS, result_cache=False))
        return State(session=pool.session("g", self.graph), pool=pool)

    def request(self, state: State, i: int) -> Reply:
        pool = state.pool
        tenant = self.tenant(i)
        for name, params in self.mix:
            pool.submit("g", name, tenant=tenant, **params)
        reply = _plan_outputs(pool.run(lanes=self.lanes, parallel=True), self.mix)
        report = pool.last_parallel.get("g")
        if report is not None:
            state.offloaded += report.offloaded_units
            state.inline += report.inline_units
        return reply


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (TriWarm, BkCliques, ServeChurn, ServeFaults, ServeLanes2)
}


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def check_output(graph: CSRGraph, name: str, params: dict, output) -> str | None:
    """Why ``output`` is not the right answer of ``name`` on ``graph``,
    or ``None`` when it is."""
    if name == "triangles":
        want = triangle_count_nonset(graph).output
        return None if output == want else f"{output} != non-set {want}"
    if name == "kclique":
        want = kclique_count_nonset(graph, params["k"]).output
        return None if output == want else f"{output} != non-set {want}"
    if name == "bfs":
        return _check_bfs(graph, params["root"], np.asarray(output))
    if name == "maximal_cliques":
        return _check_cliques(graph, output, params["max_patterns"])
    import networkx as nx

    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(map(tuple, graph.edge_array()))
    if name == "clustering_coefficient":
        want = nx.transitivity(nxg)
        return None if abs(output - want) <= 1e-9 else f"{output} != networkx {want}"
    if name == "local_clustering":
        local = nx.clustering(nxg)
        want = np.array([local[v] for v in range(graph.num_vertices)])
        ok = output.shape == want.shape and np.allclose(output, want, rtol=0, atol=1e-9)
        return None if ok else "differs from networkx clustering"
    return f"no oracle for {name}"


def _check_bfs(graph: CSRGraph, root: int, parent: np.ndarray) -> str | None:
    """A valid BFS tree: same reachable set as the non-set BFS, and
    every parent is a neighbour one level closer to the root."""
    ref = bfs_nonset(graph, root).output.tolist()
    if len(parent) != len(ref) or any((p < 0) != (r < 0) for p, r in zip(parent, ref)):
        return "reachable set differs from non-set BFS"
    if parent[root] != root:
        return "root is not its own parent"
    depth = {root: 0}
    for v in range(len(ref)):
        chain = []
        while v not in depth and ref[v] >= 0:
            chain.append(v)
            v = ref[v]
        if v not in depth:
            continue  # unreachable
        level = depth[v]
        for u in reversed(chain):
            level += 1
            depth[u] = level
    for v, p in enumerate(parent.tolist()):
        if p < 0 or v == root:
            continue
        if p not in set(graph.neighbors(v).tolist()) or depth[p] != depth[v] - 1:
            return f"vertex {v}: parent {p} is not a neighbour one level up"
    return None


def _check_cliques(graph: CSRGraph, cliques, cutoff: int) -> str | None:
    """Every listed clique is maximal, none repeats, and the list is as
    long as the cutoff allows."""
    import networkx as nx

    adjacency = [set(graph.neighbors(v).tolist()) for v in range(graph.num_vertices)]
    seen = set()
    for clique in cliques:
        members = frozenset(int(v) for v in clique)
        if members in seen:
            return f"clique {sorted(members)} listed twice"
        seen.add(members)
        if any(members - {v} - adjacency[v] for v in members):
            return f"{sorted(members)} is not a clique"
        if set.intersection(*(adjacency[v] for v in members)):
            return f"clique {sorted(members)} is not maximal"
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(map(tuple, graph.edge_array()))
    want = sum(1 for _ in islice(nx.find_cliques(nxg), cutoff))
    if len(seen) != want:
        return f"{len(seen)} cliques listed, expected {want}"
    return None
