"""Edge-stream workloads for the streaming dynamic-graph subsystem.

The paper's graphs are static; its ISA is not — element-update
instructions (Table 5 opcodes 0x5/0x6 and the SA forms) make sets
mutable.  This module generates the evolving-graph traffic that
exercises them: a stream is an initial edge list plus a sequence of
:class:`EdgeBatch` updates (batched insertions/deletions), in the three
canonical regimes of the streaming-graph literature:

* **insert-only** — the graph only grows (citation/collaboration
  networks),
* **sliding-window** — only the most recent ``window`` edges are live
  (interaction/message graphs),
* **churn** — edges are replaced at a fixed rate, keeping ``m`` roughly
  constant (social/protein networks under heavy update rates).

All streams are deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph, VERTEX_DTYPE
from repro.graphs.generators import kronecker_graph


@dataclass(frozen=True)
class EdgeBatch:
    """One streamed update batch: deletions are applied before
    insertions (the convention the whole subsystem follows)."""

    insertions: np.ndarray  # shape (k, 2), canonical u < v rows
    deletions: np.ndarray  # shape (j, 2), canonical u < v rows

    @property
    def size(self) -> int:
        return int(self.insertions.shape[0] + self.deletions.shape[0])


@dataclass(frozen=True)
class EdgeStream:
    """An initial graph state plus its update batches."""

    num_vertices: int
    initial_edges: np.ndarray
    batches: list[EdgeBatch] = field(default_factory=list)

    def initial_graph(self) -> CSRGraph:
        return CSRGraph.from_edges(self.num_vertices, self.initial_edges)

    def final_edges(self) -> np.ndarray:
        """Edge list after all batches (for rebuild-equivalence tests)."""
        live = {_key(int(u), int(v), self.num_vertices) for u, v in self.initial_edges}
        n = self.num_vertices
        for batch in self.batches:
            for u, v in batch.deletions:
                live.discard(_key(int(u), int(v), n))
            for u, v in batch.insertions:
                live.add(_key(int(u), int(v), n))
        if not live:
            return np.empty((0, 2), dtype=VERTEX_DTYPE)
        keys = np.asarray(sorted(live), dtype=np.int64)
        return np.column_stack([keys // n, keys % n]).astype(VERTEX_DTYPE)


def _key(u: int, v: int, n: int) -> int:
    lo, hi = (u, v) if u < v else (v, u)
    return lo * n + hi


def canonical_edges(edges: np.ndarray, num_vertices: int) -> np.ndarray:
    """Canonicalize an edge array: drop self loops, order endpoints
    ``u < v`` and dedupe, preserving first-occurrence order."""
    arr = np.asarray(edges, dtype=VERTEX_DTYPE).reshape(-1, 2)
    if arr.size == 0:
        return arr
    if arr.min() < 0 or arr.max() >= num_vertices:
        raise GraphError("stream edge endpoint out of range")
    arr = arr[arr[:, 0] != arr[:, 1]]
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = lo * np.int64(num_vertices) + hi
    __, first = np.unique(keys, return_index=True)
    first.sort()
    return np.column_stack([lo[first], hi[first]])


def _shuffled_edges(graph: CSRGraph, seed: int) -> np.ndarray:
    """The graph's edges in a deterministic random arrival order."""
    edges = graph.edge_array()
    rng = np.random.default_rng(seed)
    return edges[rng.permutation(edges.shape[0])]


def insert_only_stream(
    graph: CSRGraph,
    *,
    batch_size: int,
    initial_fraction: float = 0.5,
    seed: int = 0,
) -> EdgeStream:
    """Grow ``graph`` from an initial prefix to its full edge set."""
    if not 0.0 <= initial_fraction <= 1.0:
        raise GraphError("initial_fraction must be in [0, 1]")
    if batch_size <= 0:
        raise GraphError("batch_size must be positive")
    edges = _shuffled_edges(graph, seed)
    m = edges.shape[0]
    start = int(round(initial_fraction * m))
    none = np.empty((0, 2), dtype=VERTEX_DTYPE)
    batches = [
        EdgeBatch(insertions=edges[i : i + batch_size], deletions=none)
        for i in range(start, m, batch_size)
    ]
    return EdgeStream(graph.num_vertices, edges[:start], batches)


def sliding_window_stream(
    graph: CSRGraph,
    *,
    window: int,
    batch_size: int,
    seed: int = 0,
) -> EdgeStream:
    """Keep only the most recent ``window`` edges live: each batch
    inserts the next ``batch_size`` arrivals and deletes the oldest
    edges that fall out of the window."""
    if window <= 0 or batch_size <= 0:
        raise GraphError("window and batch_size must be positive")
    if batch_size > window:
        # A batch larger than the window would evict edges it inserted
        # itself; deletions are applied before insertions, so those
        # edges would stay live and break the window invariant.
        raise GraphError("batch_size must not exceed window")
    edges = _shuffled_edges(graph, seed)
    m = edges.shape[0]
    window = min(window, m)
    batches = []
    live_from = 0
    for i in range(window, m, batch_size):
        incoming = edges[i : i + batch_size]
        new_from = max(0, i + incoming.shape[0] - window)
        outgoing = edges[live_from:new_from]
        live_from = new_from
        batches.append(EdgeBatch(insertions=incoming, deletions=outgoing))
    return EdgeStream(graph.num_vertices, edges[:window], batches)


def churn_stream(
    graph: CSRGraph,
    *,
    churn: float = 0.01,
    num_batches: int = 10,
    seed: int = 0,
) -> EdgeStream:
    """Replace a ``churn`` fraction of the live edges every batch.

    Each batch deletes ``round(churn * m)`` random live edges and
    inserts the same number of random currently-absent pairs, keeping
    the edge count constant — the 1% regime of the acceptance floor.
    """
    if not 0.0 < churn <= 1.0:
        raise GraphError("churn must be in (0, 1]")
    n = graph.num_vertices
    if n < 2:
        raise GraphError("churn stream needs at least two vertices")
    rng = np.random.default_rng(seed)
    initial = graph.edge_array()
    live = {_key(int(u), int(v), n) for u, v in initial}
    k = max(1, int(round(churn * len(live))))
    batches = []
    for _ in range(num_batches):
        live_keys = np.asarray(sorted(live), dtype=np.int64)
        drop = live_keys[rng.choice(live_keys.size, size=min(k, live_keys.size), replace=False)]
        absent = n * (n - 1) // 2 - len(live)
        if absent < drop.size:
            raise GraphError(
                f"cannot churn {drop.size} edges: only {absent} vertex "
                "pairs are absent"
            )
        inserts: list[int] = []
        insert_set: set[int] = set()
        while len(inserts) < drop.size:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
            if u == v:
                continue
            key = _key(u, v, n)
            if key in live or key in insert_set:
                continue
            inserts.append(key)
            insert_set.add(key)
        for key in drop:
            live.discard(int(key))
        live.update(inserts)
        ins_keys = np.asarray(inserts, dtype=np.int64)
        batches.append(
            EdgeBatch(
                insertions=np.column_stack(
                    [ins_keys // n, ins_keys % n]
                ).astype(VERTEX_DTYPE),
                deletions=np.column_stack([drop // n, drop % n]).astype(
                    VERTEX_DTYPE
                ),
            )
        )
    return EdgeStream(n, initial, batches)


def rmat_churn_stream(
    scale: int,
    edge_factor: int,
    *,
    churn: float = 0.01,
    num_batches: int = 10,
    seed: int = 0,
) -> EdgeStream:
    """Churn workload over an RMAT (Kronecker) graph — the benchmark
    configuration of ``benchmarks/bench_streaming.py``."""
    graph = kronecker_graph(scale, edge_factor, seed=seed)
    return churn_stream(graph, churn=churn, num_batches=num_batches, seed=seed + 1)
