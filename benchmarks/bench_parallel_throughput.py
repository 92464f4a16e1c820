"""Parallel serving throughput: the certified soak batch on real
shard worker processes, bit-identical to sequential serving.

``bench_schedule_whatif`` proved the *modeled* lane speedup of the
certified 8-tenant soak batch; this bench runs the same batch through
the real thing — ``pool.run(lanes=4, parallel=True)`` fans count
bursts out to spawned worker processes over shared-memory shards (one
message per fan-out chunk) and merges the partial counts
deterministically on the host.

Acceptance (the deterministic floors are asserted unconditionally):

* every output, every per-tenant cycle ledger and every modeled
  runtime-cycle figure is bit-identical to the sequential scheduled
  run of the same batch;
* the reconciled parallel report equals the certifier's prediction
  exactly — ``parallel_cycles == what_if(lanes).makespan +
  merge_cycles`` (32 host cycles per cross-lane dependency edge);
* wall-clock speedup of lanes=4 over lanes=1 (same offload machinery,
  one shard) clears ``BENCH_PAR_MIN_WALL_SPEEDUP`` (default 1.3x) —
  enforced only when the machine has >= 4 CPU cores, reported and
  skipped gracefully otherwise (a 1-core box cannot demonstrate wall
  parallelism, only correctness).

Wall clock is steady-state serving: each pool (sequential, lanes=1,
lanes=4) serves one untimed warm-up batch (cold certification, the
session's structures and, for the parallel pools, the first worker
round trips), then the median of ``WARM_BATCHES`` more batches is
recorded.  The pools keep no result cache, so every batch does the
full work.  Spawning a parallel pool's workers is timed on its own
(``spawn_seconds``), and the record carries the machine (cores, Python
and NumPy versions) the walls were measured on.

Env knobs: ``BENCH_PAR_N`` (graph vertices, default 60),
``BENCH_PAR_P`` (edge probability, default 0.12),
``BENCH_PAR_TENANTS`` (default 8), ``BENCH_PAR_LANES`` (default 4),
``BENCH_PAR_MIN_WALL_SPEEDUP`` (default 1.3).
"""

import os
import platform
import time
from statistics import median

import numpy as np

from repro.analysis.static.smoke import SOAK_WORKLOADS
from repro.graphs.generators import gnp_random_graph
from repro.session import ExecutionConfig, SessionPool
from repro.session.cache import fingerprint

from common import emit, emit_json

N = int(os.environ.get("BENCH_PAR_N", "60"))
P = float(os.environ.get("BENCH_PAR_P", "0.12"))
TENANTS = int(os.environ.get("BENCH_PAR_TENANTS", "8"))
LANES = int(os.environ.get("BENCH_PAR_LANES", "4"))
MIN_WALL_SPEEDUP = float(
    os.environ.get("BENCH_PAR_MIN_WALL_SPEEDUP", "1.3")
)
ENOUGH_CORES = (os.cpu_count() or 1) >= 4
#: Timed batches per pool after the warm-up batch (their median is the
#: recorded wall).
WARM_BATCHES = 5


def _submit(pool: SessionPool, graph) -> int:
    count = 0
    for t in range(TENANTS):
        for name, params in SOAK_WORKLOADS:
            pool.submit(
                "bench", name, tenant=f"tenant-{t}", graph=graph, **params
            )
            count += 1
    return count


def _serve(graph, lanes: int, parallel: bool):
    """One fresh pool serving the full soak batch at the given lane
    width: spawn (parallel pools only), the warm-up batch, then
    ``WARM_BATCHES`` timed batches.  Returns (pool, warm-up results,
    the warm-up batch's parallel report and what-if model, spawn
    seconds, median warm wall seconds)."""
    pool = SessionPool(ExecutionConfig(threads=8, result_cache=False))
    spawn = 0.0
    if parallel:
        pool.parallel_offload_threshold = 0  # every count burst offloads
        session = pool.session("bench", graph)
        t0 = time.perf_counter()
        # Bench-only: spawn the pool's shard workers up front.
        pool._runtime_for("bench", session, lanes).ping()
        spawn = time.perf_counter() - t0
    _submit(pool, graph)
    results = pool.run(lanes=lanes, parallel=parallel)
    report = pool.last_parallel.get("bench")
    model = pool.last_schedules["bench"].what_if(lanes)
    walls = []
    for __ in range(WARM_BATCHES):
        _submit(pool, graph)
        t0 = time.perf_counter()
        warm = pool.run(lanes=lanes, parallel=parallel)
        walls.append(time.perf_counter() - t0)
        assert all(r.ok for r in warm)
    return pool, results, report, model, spawn, median(walls)


def _measure():
    graph = gnp_random_graph(N, P, seed=3)
    plans = TENANTS * len(SOAK_WORKLOADS)

    # Sequential oracle: the same batches through the scheduled path
    # without workers — identical certification, identical ledgers.
    pool_seq, seq, __, __, __, wall_seq = _serve(graph, LANES, False)
    pool_one, __, __, __, spawn_one, wall_one = _serve(graph, 1, True)
    pool_par, par, report, model, spawn_par, wall_par = _serve(
        graph, LANES, True
    )

    # Bit-identity: outputs, modeled cycles and tenant ledgers.
    assert len(par) == plans
    for a, b in zip(seq, par):
        assert a.ok and b.ok, (a, b)
        assert b.parallel and b.scheduled
        assert fingerprint(a.output) == fingerprint(b.output), a.workload
        assert a.report.runtime_cycles == b.report.runtime_cycles
    assert pool_seq.tenant_cycles == pool_par.tenant_cycles

    # Exact reconciliation against the certifier's prediction.
    assert report.parallel_cycles == model.makespan + model.merge_cycles
    assert report.merge_cycles == model.merge_cycles
    assert report.offloaded_units > 0 and report.inline_units == 0

    pool_seq.close()
    pool_one.close()
    pool_par.close()
    walls = {"sequential": wall_seq, "lanes_1": wall_one, f"lanes_{LANES}": wall_par}
    spawns = {"lanes_1": spawn_one, f"lanes_{LANES}": spawn_par}
    speedup = wall_one / wall_par if wall_par > 0 else float("inf")
    return report, model, walls, spawns, speedup


def _render(report, model, walls, spawns, speedup):
    print("== Parallel serving throughput: soak batch on shard workers ==")
    print(
        f"robustness soak: {TENANTS} tenants x {len(SOAK_WORKLOADS)} "
        f"workloads on G(n={N}, p={P}), lanes={LANES}, "
        f"shards={report.shards} (degree partition)"
    )
    print(
        f"offloaded units: {report.offloaded_units} "
        f"(inline {report.inline_units}); shard vertices "
        f"{list(report.shard_vertices)}"
    )
    print(
        f"modeled: parallel {report.parallel_cycles / 1e6:.4f} Mcyc = "
        f"makespan {model.makespan / 1e6:.4f} + merge "
        f"{model.merge_cycles / 1e6:.4f} ({report.cross_edges} cross-lane "
        f"edges); modeled speedup {report.speedup:.3f}x"
    )
    print(
        f"lane occupancy: max {report.lane_max_occupancy:.3f} "
        f"mean {report.lane_mean_occupancy:.3f}"
    )
    for label, wall in walls.items():
        print(f"wall {label:>12}: {wall:8.4f} s (warm median of {WARM_BATCHES})")
    for label, spawn in spawns.items():
        print(f"spawn {label:>11}: {spawn:8.4f} s")
    floor = (
        f"floor {MIN_WALL_SPEEDUP:.1f}x"
        if ENOUGH_CORES
        else f"floor skipped: {os.cpu_count()} core(s) < 4"
    )
    print(f"wall speedup lanes={LANES} over lanes=1: {speedup:.3f}x ({floor})")
    print("\noutputs, ledgers and modeled cycles bit-identical to sequential")


def test_parallel_throughput(benchmark):
    report, model, walls, spawns, speedup = _measure()
    emit(
        "parallel_throughput",
        lambda: _render(report, model, walls, spawns, speedup),
    )
    emit_json(
        "parallel_throughput",
        {
            "tenants": TENANTS,
            "lanes": LANES,
            "shards": report.shards,
            "offloaded_units": report.offloaded_units,
            "parallel_cycles": report.parallel_cycles,
            "merge_cycles": report.merge_cycles,
            "cross_edges": report.cross_edges,
            "modeled_speedup": report.speedup,
            "lane_max_occupancy": report.lane_max_occupancy,
            "lane_mean_occupancy": report.lane_mean_occupancy,
            "wall_seconds": walls,
            "warm_batches": WARM_BATCHES,
            "spawn_seconds": spawns,
            "wall_speedup": speedup,
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "wall_floor_enforced": ENOUGH_CORES,
        },
        floors={"min_wall_speedup": MIN_WALL_SPEEDUP},
    )
    if ENOUGH_CORES:
        assert speedup >= MIN_WALL_SPEEDUP, (speedup, MIN_WALL_SPEEDUP)

    # The synchronization overhead every worker message (one fan-out
    # chunk, or one other burst) pays: one broadcast/collect round trip
    # across all live shard workers.
    pool = SessionPool(threads=8)
    pool.parallel_offload_threshold = 0
    _submit(pool, gnp_random_graph(N, P, seed=3))
    pool.run(lanes=LANES, parallel=True)
    runtime = pool._runtimes["bench"]  # bench-only peek at the live pool runtime
    benchmark(runtime.ping)
    pool.close()


if __name__ == "__main__":
    _render(*_measure())
