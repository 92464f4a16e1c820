"""Observability overhead smoke: zero modeled cost, bounded wall cost.

Runs the full robustness soak schedule (``bench_robustness``) twice —
observability off and on — and asserts the layer's core contract:

* **modeled-cycle overhead is exactly 0** — the instrumented soak's
  per-tenant ledgers, retry ledgers and every result's
  ``runtime_cycles`` are bit-identical to the uninstrumented run, and
  every output ``repr``-identical.  Instrumentation is
  observation-only by construction; this asserts it stays that way.
* **wall-clock overhead <= BENCH_OBS_MAX_WALL** (default 15%) — the
  price of feeding counters and spans from the hot paths.
* **the ledger mirror is exact** — ``pool.metrics()``'s per-tenant
  cycle counters equal ``pool.tenant_cycles`` with ``==``, not
  approximately (the hub replays the same float additions in the same
  order).
* **span trees are deep enough to be useful** — the Chrome-trace JSON
  export of the soak round-trips through ``json.loads`` with >= 5
  nesting levels (run → session → plan → stage → kernel).

Env knobs: the ``BENCH_ROBUST_*`` family (graph/schedule shape,
inherited from bench_robustness) plus ``BENCH_OBS_MAX_WALL`` and
``BENCH_OBS_REPEATS`` (default 3; wall overhead uses best-of-N per
side).  Each repeat runs one soak with observability off and one with
it on, alternating which goes first, so a slow phase of the host
cannot cover one side's runs alone.
"""

import gc
import json
import os
import time

from repro.observability import write_chrome_trace

import bench_robustness as soak
from common import RESULTS_DIR, emit, emit_json

MAX_WALL_OVERHEAD = float(os.environ.get("BENCH_OBS_MAX_WALL", "0.15"))
REPEATS = int(os.environ.get("BENCH_OBS_REPEATS", "3"))


def _timed_soaks(graph):
    """``REPEATS`` rounds of one soak with observability off and one
    with it on, alternating which goes first.  Returns each side's last
    ``(pool, results)`` and best wall, keyed by the observability
    flag."""
    runs = {}
    best = {False: float("inf"), True: float("inf")}
    for r in range(REPEATS):
        for observability in (r % 2 == 1, r % 2 == 0):
            gc.collect()
            start = time.perf_counter()
            pool, results, __ = soak._soak(
                graph, faulted=True, observability=observability
            )
            wall = time.perf_counter() - start
            best[observability] = min(best[observability], wall)
            runs[observability] = (pool, results)
    return runs, best


def _measure(graph):
    runs, best = _timed_soaks(graph)
    (base_pool, base_runs), base_wall = runs[False], best[False]
    (obs_pool, obs_runs), obs_wall = runs[True], best[True]

    # Modeled cost and outputs: bit-identical with observability on.
    assert len(obs_runs) == len(base_runs)
    for base, inst in zip(base_runs, obs_runs):
        assert inst.ok == base.ok
        if inst.ok:
            assert inst.report.runtime_cycles == base.report.runtime_cycles
            assert repr(inst.output) == repr(base.output)
    assert obs_pool.tenant_cycles == base_pool.tenant_cycles
    assert obs_pool.tenant_retry_cycles == base_pool.tenant_retry_cycles

    # The metrics mirror of the ledger is *exact*, per tenant.
    reg = obs_pool.obs.registry
    for tenant, cycles in obs_pool.tenant_cycles.items():
        assert reg.counter_value("tenant_work_cycles_total", (tenant,)) == cycles
    for tenant, cycles in obs_pool.tenant_retry_cycles.items():
        assert (
            reg.counter_value("tenant_retry_cycles_total", (tenant,)) == cycles
        )

    # Span trees: Chrome-trace JSON round-trips with >= 5 levels.
    trace_path = RESULTS_DIR / "BENCH_observability_trace.json"
    write_chrome_trace(obs_pool.obs.spans, trace_path)
    trace = json.loads(trace_path.read_text())
    depth = 1 + max(e["args"]["depth"] for e in trace["traceEvents"])
    assert depth >= 5, depth

    wall_overhead = obs_wall / base_wall - 1.0
    return obs_pool, base_wall, obs_wall, wall_overhead, depth, len(
        trace["traceEvents"]
    )


def _render(graph, pool, base_wall, obs_wall, overhead, depth, events):
    snap = pool.metrics()
    print("== Observability: zero modeled overhead, bounded wall cost ==")
    print(
        f"gnp n={graph.num_vertices} m={graph.edge_array().shape[0]} "
        f"tenants={soak.TENANTS} epochs={soak.EPOCHS} seed={soak.SEED}"
    )
    print(
        f"soak wall: off={base_wall * 1e3:.0f} ms on={obs_wall * 1e3:.0f} ms "
        f"overhead={overhead:.1%} (ceiling {MAX_WALL_OVERHEAD:.0%})"
    )
    print(
        "modeled cycles, outputs, tenant ledgers: asserted bit-identical "
        "observability on vs off"
    )
    print(
        "per-tenant cycle counters asserted == pool.tenant_cycles exactly"
    )
    print(
        f"spans: {snap['spans']['recorded']} recorded "
        f"(max depth {snap['spans']['max_depth']}), chrome trace "
        f"{events} events / {depth} levels"
    )
    families = snap["metrics"]
    series = sum(len(f["series"]) for f in families.values())
    print(f"metric families: {len(families)} ({series} labeled series)")
    print(
        "set-size histograms (Fig. 9b per tenant): "
        + " ".join(
            f"{t}={h['total']}" for t, h in sorted(snap["set_sizes"].items())
        )
    )


def test_observability_overhead(benchmark):
    graph = soak.gnp_random_graph(soak.N, soak.P, seed=soak.SEED)
    pool, base_wall, obs_wall, overhead, depth, events = _measure(graph)
    emit(
        "observability",
        lambda: _render(
            graph, pool, base_wall, obs_wall, overhead, depth, events
        ),
    )
    emit_json(
        "observability",
        {
            "wall_off_ms": base_wall * 1e3,
            "wall_on_ms": obs_wall * 1e3,
            "wall_overhead": overhead,
            "modeled_cycle_overhead": 0.0,  # asserted bit-identical
            "span_depth": depth,
            "trace_events": events,
        },
        floors={"max_wall_overhead": MAX_WALL_OVERHEAD},
    )
    assert overhead <= MAX_WALL_OVERHEAD

    benchmark(
        lambda: soak._soak(graph, faulted=True, observability=True)
    )


if __name__ == "__main__":
    graph = soak.gnp_random_graph(soak.N, soak.P, seed=soak.SEED)
    _render(graph, *_measure(graph))
