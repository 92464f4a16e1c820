"""Cross-plan fusion: modeled-cycle win of batched plan execution.

The serving pattern the plan/execute split targets is a *mixed
workload batch* hitting one graph at once — a triangle-count refresh,
the clustering coefficient derived from it, and a link-prediction
watchlist re-score.  Executed as sequential ``session.run`` calls,
each query runs in isolation: the clustering query re-counts every
triangle the refresh just counted, and every count burst pays its own
SCU dispatch and probe-metadata fetch.

``session.run_many([...], fuse=True)`` executes the same batch as
compiled :class:`WorkloadPlan`\\ s: identical sub-requests (the
triangle count inside ``clustering_coefficient``) dedup through the
result cache before any instruction issues, and the remaining
count-form frontier bursts from different plans fuse into shared macro
dispatches — the macro decode and the probe metadata fetch are paid
once per fused group instead of once per op.

Acceptance floor (enforced here and in CI): the fused batch completes
in <= 1/1.5 of the modeled cycles of the sequential warm loop, while a
fusion-*disabled* ``run_many`` of the same batch is asserted
bit-identical to the sequential stream (outputs, per-plan cycles,
dispatch stats).  Modeled cycles are deterministic, so CI asserts the
full floor.

The JSON record also keeps every fused plan's exact modeled cycles and
instruction count, and the per-tenant cycle ledger of a strict fused
soak batch (eight tenants submitting the robustness-soak mix on a
Kronecker graph, so two neighbourhood fan-outs interleave macro by
macro).  Both are deterministic: CI reruns the bench and fails when
the committed record changes.

Env knobs: ``BENCH_PLAN_N`` / ``BENCH_PLAN_M`` (graph shape, default
4000 / 16000), ``BENCH_PLAN_PAIRS`` (watchlist size, default 400),
``BENCH_PLAN_MIN_SPEEDUP`` (floor, default 1.5).
"""

import os

import numpy as np

from repro.analysis.static.smoke import SOAK_WORKLOADS
from repro.graphs.generators import chung_lu_graph, kronecker_graph
from repro.session import ExecutionConfig, SessionPool, SisaSession

from common import emit, emit_json

N = int(os.environ.get("BENCH_PLAN_N", "4000"))
M = int(os.environ.get("BENCH_PLAN_M", "16000"))
PAIRS = int(os.environ.get("BENCH_PLAN_PAIRS", "400"))
MIN_SPEEDUP = float(os.environ.get("BENCH_PLAN_MIN_SPEEDUP", "1.5"))
THREADS = 32
SOAK_TENANTS = 8


def _watchlist(n: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(11)
    pairs = rng.integers(0, n, size=(int(count * 1.2), 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:count]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _batch(pairs):
    return [
        ("triangles", {}),
        ("clustering_coefficient", {}),
        ("similarity_pairs", {"pairs": pairs, "measure": "jaccard"}),
    ]


def _warm_session(graph):
    """A session with both cached structures built, so the measured
    region compares steady-state serving, not setup.  The result cache
    is disabled: the sequential baseline must re-execute its queries,
    not answer them in O(1) (the cache has its own benchmarks)."""
    session = SisaSession(
        graph, ExecutionConfig(threads=THREADS, result_cache=False)
    )
    session.run("triangles")  # builds the orientation
    session.run("local_clustering")  # builds the undirected sets
    return session


def _measure(graph):
    pairs = _watchlist(graph.num_vertices, PAIRS)
    batch = _batch(pairs)

    # Sequential warm loop: each query runs in isolation.
    seq_session = _warm_session(graph)
    seq_runs = [seq_session.run(name, **params) for name, params in batch]
    seq_cycles = [r.runtime_cycles for r in seq_runs]

    # Fusion-disabled plan execution: asserted bit-identical.
    plain_session = _warm_session(graph)
    plain_runs = plain_session.run_many(batch, fuse=False)
    for seq, plain in zip(seq_runs, plain_runs):
        assert repr(plain.output) == repr(seq.output)
        assert plain.runtime_cycles == seq.runtime_cycles
        assert plain.stats == seq.stats
        assert plain.opcode_counts() == seq.opcode_counts()

    # Fused plan execution of the same batch, statically certified
    # hazard-free first (verify=True): the verifier is pure host-side
    # analysis, so outputs and modeled cycles are unchanged by it.
    fused_session = _warm_session(graph)
    mark = fused_session.ctx.mark()
    fused_runs = fused_session.run_many(batch, fuse=True, verify=True)
    fused_cycles = fused_session.ctx.report_since(mark).runtime_cycles
    for seq, fused in zip(seq_runs, fused_runs):
        assert np.array_equal(
            np.asarray(fused.output), np.asarray(seq.output)
        ), fused.workload

    rows = []
    for seq, fused in zip(seq_runs, fused_runs):
        rows.append(
            {
                "workload": seq.workload,
                "seq_mcycles": seq.runtime_cycles / 1e6,
                "fused_mcycles": fused.runtime_cycles / 1e6,
                "seq_instr": seq.instructions,
                "fused_instr": fused.instructions,
            }
        )
    total_seq = float(sum(seq_cycles))
    macros = fused_session.ctx.scu.stats.fused_macros
    plans = [
        {
            "workload": fused.workload,
            "runtime_cycles": fused.runtime_cycles,
            "instructions": fused.instructions,
        }
        for fused in fused_runs
    ]
    return rows, total_seq, float(fused_cycles), macros, plans


def _soak_ledger() -> dict[str, float]:
    """Modeled cycles each tenant is charged for one strict fused soak
    batch: ``SOAK_TENANTS`` tenants submitting the robustness-soak mix
    to one pooled session."""
    pool = SessionPool(ExecutionConfig(threads=THREADS))
    pool.session("soak", kronecker_graph(9, 8, seed=0))
    for tenant in range(SOAK_TENANTS):
        for name, params in SOAK_WORKLOADS:
            pool.submit("soak", name, tenant=f"tenant-{tenant}", **params)
    pool.run()
    return dict(sorted(pool.tenant_cycles.items()))


def _render(graph, rows, total_seq, fused_cycles, macros, plans):
    print("== Plan fusion: mixed workload batch vs sequential warm runs ==")
    print(
        f"chung-lu n={graph.num_vertices} m={graph.edge_array().shape[0]} "
        f"watchlist={PAIRS} pairs, threads={THREADS}"
    )
    print(
        f"{'workload':<24}{'seq Mcyc':>10}{'fused Mcyc':>12}"
        f"{'seq instr':>11}{'fused instr':>12}"
    )
    for row in rows:
        print(
            f"{row['workload']:<24}{row['seq_mcycles']:>10.3f}"
            f"{row['fused_mcycles']:>12.3f}{row['seq_instr']:>11}"
            f"{row['fused_instr']:>12}"
        )
    speedup = total_seq / fused_cycles
    print(
        f"\nsequential batch: {total_seq / 1e6:.3f} Mcycles; "
        f"fused batch: {fused_cycles / 1e6:.3f} Mcycles "
        f"({macros} fused macros)"
    )
    print(
        f"fused speedup: {speedup:.2f}x (floor {MIN_SPEEDUP:.1f}x); "
        "fusion-disabled execution asserted bit-identical to the "
        "sequential stream"
    )


def test_plan_fusion_speedup(benchmark):
    graph = chung_lu_graph(N, M, gamma=2.4, seed=17)
    rows, total_seq, fused_cycles, macros, plans = _measure(graph)
    emit(
        "plan_fusion",
        lambda: _render(graph, rows, total_seq, fused_cycles, macros, plans),
    )
    emit_json(
        "plan_fusion",
        {
            "speedup": total_seq / fused_cycles,
            "sequential_mcycles": total_seq / 1e6,
            "fused_mcycles": fused_cycles / 1e6,
            "fused_macros": macros,
            "fused_plans": plans,
            "soak_tenant_cycles": _soak_ledger(),
        },
        floors={"min_speedup": MIN_SPEEDUP},
    )
    assert total_seq / fused_cycles >= MIN_SPEEDUP

    session = _warm_session(graph)
    pairs = _watchlist(graph.num_vertices, PAIRS)
    benchmark(lambda: session.run_many(_batch(pairs), fuse=True))


if __name__ == "__main__":
    graph = chung_lu_graph(N, M, gamma=2.4, seed=17)
    _render(graph, *_measure(graph))
