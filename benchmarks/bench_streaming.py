"""Incremental maintenance vs full recompute: modeled-cycle win.

Streams a churn workload (1% of edges replaced per batch) over an RMAT
graph and maintains three analytics two ways:

* **incremental** — the ``repro.streaming`` maintainers update the
  statistics from each effective edge batch, touching only affected
  vertices (all set work cycle-accounted through SISA instructions);
* **full recompute** — after every batch, a fresh context recomputes
  per-vertex triangle counts (which also yield the global count and the
  local clustering coefficients) and re-scores the link-prediction
  watchlist from scratch, the way a static pipeline would.

Outputs are asserted identical batch by batch; the modeled-cycle ratio
must meet the acceptance floor (>= 5x at 1% churn).  Both sides are
simulated cycles, so the floor is deterministic — no wall-clock noise.

Env knobs: ``BENCH_STREAM_SCALE`` (RMAT scale, default 10),
``BENCH_STREAM_EF`` (edge factor, default 8), ``BENCH_STREAM_BATCHES``
(default 8), ``BENCH_STREAM_CHURN`` (default 0.01),
``BENCH_STREAM_MIN_SPEEDUP`` (default 5.0).
"""

import os

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.graphs.streams import rmat_churn_stream
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.streaming import (
    DynamicSetGraph,
    IncrementalClusteringCoefficients,
    IncrementalLinkPrediction,
    IncrementalTriangleCount,
    StreamingEngine,
    clustering_coefficients_from_counts,
    local_triangle_counts,
    watchlist_scores,
)
from repro.streaming.incremental import degrees_of

from common import emit, emit_json

SCALE = int(os.environ.get("BENCH_STREAM_SCALE", "10"))
EDGE_FACTOR = int(os.environ.get("BENCH_STREAM_EF", "8"))
BATCHES = int(os.environ.get("BENCH_STREAM_BATCHES", "8"))
CHURN = float(os.environ.get("BENCH_STREAM_CHURN", "0.01"))
MIN_SPEEDUP = float(os.environ.get("BENCH_STREAM_MIN_SPEEDUP", "5.0"))
MEASURE = "jaccard"
WATCHLIST = 512


def _watchlist(graph: CSRGraph, size: int, seed: int = 13) -> np.ndarray:
    """A fixed random candidate-pair watchlist (non-edges not needed:
    scores are maintained for whatever pairs the application watches)."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    pairs = set()
    while len(pairs) < size:
        u = int(rng.integers(0, n - 1))
        v = int(rng.integers(u + 1, n))
        pairs.add((u, v))
    return np.asarray(sorted(pairs), dtype=np.int64)


def _work(ctx) -> float:
    """Total modeled work: the sum of all lane times.  (The region
    runtime is the max lane; for comparing maintenance strategies the
    aggregate cycles spent are the fair, placement-independent metric —
    a tiny incremental batch would otherwise vanish inside the slack of
    the longest lane.)"""
    return float(sum(ctx.engine.report().lane_times))


def _full_recompute(edges: np.ndarray, n: int, pairs: np.ndarray):
    """One static-pipeline pass: rebuild the SetGraph view and recompute
    everything (graph loading is uncharged, as everywhere else)."""
    ctx = SisaContext()
    sg = SetGraph.from_graph(CSRGraph.from_edges(n, edges), ctx)
    counts = local_triangle_counts(sg, ctx)
    coeffs = clustering_coefficients_from_counts(counts, degrees_of(sg))
    scores = watchlist_scores(sg, ctx, pairs, measure=MEASURE)
    return _work(ctx), int(counts.sum()) // 3, counts, coeffs, scores


def _run():
    stream = rmat_churn_stream(
        SCALE, EDGE_FACTOR, churn=CHURN, num_batches=BATCHES, seed=3
    )
    graph = stream.initial_graph()
    pairs = _watchlist(graph, WATCHLIST)

    ctx = SisaContext()
    dyn = DynamicSetGraph.from_graph(graph, ctx)
    bootstrap_start = _work(ctx)
    tri = IncrementalTriangleCount(dyn)
    clus = IncrementalClusteringCoefficients(dyn)
    lp = IncrementalLinkPrediction(dyn, pairs, measure=MEASURE)
    bootstrap = _work(ctx) - bootstrap_start
    engine = StreamingEngine(dyn, [tri, clus, lp])

    rows = []
    inc_total = full_total = 0.0
    for batch in stream.batches:
        before = _work(ctx)
        engine.step(batch)
        inc_cycles = _work(ctx) - before
        full_cycles, ref_count, ref_counts, ref_coeffs, ref_scores = (
            _full_recompute(dyn.edge_array(), dyn.num_vertices, lp.pairs)
        )
        assert tri.count == ref_count
        assert np.array_equal(clus.counts, ref_counts)
        assert np.array_equal(clus.coefficients(dyn), ref_coeffs)
        assert np.array_equal(lp.scores, ref_scores)
        inc_total += inc_cycles
        full_total += full_cycles
        rows.append((dyn.epoch, batch.size, tri.count, inc_cycles, full_cycles))
    return stream, pairs, bootstrap, rows, inc_total, full_total


def _render(stream, pairs, bootstrap, rows, inc_total, full_total):
    graph = stream.initial_graph()
    n, m = graph.num_vertices, graph.num_edges
    print("== Streaming: incremental maintenance vs full recompute ==")
    print(
        f"RMAT scale={SCALE} edge_factor={EDGE_FACTOR} (n={n}, m={m}), "
        f"churn={CHURN:.1%}/batch, watchlist={len(pairs)} pairs, "
        f"measure={MEASURE}"
    )
    print(f"maintainer bootstrap: {bootstrap / 1e6:.2f} Mcycles (once)")
    print(
        f"{'epoch':>6}{'updates':>9}{'triangles':>11}"
        f"{'incr Mcyc':>11}{'full Mcyc':>11}{'win':>8}"
    )
    for epoch, size, count, inc, full in rows:
        print(
            f"{epoch:>6}{size:>9}{count:>11}"
            f"{inc / 1e6:>11.3f}{full / 1e6:>11.2f}{full / inc:>7.1f}x"
        )
    print(
        f"\ntotal modeled-cycle win at {CHURN:.1%} churn: "
        f"{full_total / inc_total:.1f}x (floor {MIN_SPEEDUP:.1f}x)"
    )


def test_streaming_incremental_speedup(benchmark):
    stream, pairs, bootstrap, rows, inc_total, full_total = _run()
    emit(
        "streaming",
        lambda: _render(stream, pairs, bootstrap, rows, inc_total, full_total),
    )
    emit_json(
        "streaming",
        {
            "speedup": full_total / inc_total,
            "incremental_mcycles": inc_total / 1e6,
            "full_recompute_mcycles": full_total / 1e6,
            "bootstrap_mcycles": bootstrap / 1e6,
            "epochs": len(rows),
        },
        floors={"min_speedup": MIN_SPEEDUP},
    )
    # Floor on the modeled-cycle win (deterministic; outputs already
    # asserted identical inside _run).
    assert full_total / inc_total >= MIN_SPEEDUP

    def one_incremental_batch():
        ctx = SisaContext()
        dyn = DynamicSetGraph.from_graph(stream.initial_graph(), ctx)
        engine = StreamingEngine(dyn, [IncrementalTriangleCount(dyn, count=0)])
        engine.step(stream.batches[0])

    benchmark(one_incremental_batch)


if __name__ == "__main__":
    stream, pairs, bootstrap, rows, inc_total, full_total = _run()
    _render(stream, pairs, bootstrap, rows, inc_total, full_total)
