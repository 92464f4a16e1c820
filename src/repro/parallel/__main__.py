"""CLI front end: ``python -m repro.parallel``.

``--soak`` serves the 40-plan robustness-soak batch (8 tenants x the
five soak workloads) through ``pool.run(parallel=True)`` — certified
schedules on real shard worker processes with shared-memory merges —
and verifies the run bit-identical to a sequential scheduled run of
the same batch: every output fingerprint, every per-plan modeled cycle
figure and every per-tenant ledger must match exactly, and the
reconciled report must equal ``schedule.what_if(lanes).makespan``
plus the modeled host merge charges.  ``--racecheck`` additionally
arms the happens-before race detector over the parallel replay.

This is the CI ``parallel`` job's entry point; exit status is non-zero
on any divergence, race, or worker crash.
"""

from __future__ import annotations

import argparse
from typing import Any


def _run_soak(
    *,
    n: int,
    tenants: int,
    lanes: int,
    racecheck: bool,
    offload_threshold: int,
) -> int:
    from repro.analysis.static.smoke import SOAK_WORKLOADS, make_session
    from repro.session import SessionPool
    from repro.session.cache import fingerprint

    graph = make_session(n=n).graph

    def submit(pool: SessionPool) -> int:
        count = 0
        for t in range(tenants):
            for name, params in SOAK_WORKLOADS:
                pool.submit(
                    "soak",
                    name,
                    tenant=f"tenant-{t}",
                    graph=graph,
                    **params,
                )
                count += 1
        return count

    pool_seq = SessionPool(threads=8)
    count = submit(pool_seq)
    sequential = pool_seq.run(lanes=lanes)

    pool_par = SessionPool(threads=8)
    pool_par.parallel_offload_threshold = offload_threshold
    submit(pool_par)
    parallel = pool_par.run(
        lanes=lanes, parallel=True, racecheck=racecheck
    )

    failures: list[str] = []
    crashed = sum(1 for r in parallel if not r.ok)
    if crashed:
        failures.append(f"{crashed} plan(s) failed under parallel=True")
    for a, b in zip(sequential, parallel):
        if not (a.ok and b.ok):
            continue
        if fingerprint(a.output) != fingerprint(b.output):
            failures.append(f"output diverged: {a.workload}")
        if a.report.runtime_cycles != b.report.runtime_cycles:
            failures.append(f"modeled cycles diverged: {a.workload}")
    if pool_seq.tenant_cycles != pool_par.tenant_cycles:
        failures.append("per-tenant ledgers diverged")

    report = pool_par.last_parallel.get("soak")
    if report is None:
        failures.append("no parallel report published")
    else:
        model = pool_par.last_schedules["soak"].what_if(lanes)
        if report.parallel_cycles != model.makespan + model.merge_cycles:
            failures.append(
                "reconciled cycles != what_if makespan + merge charges"
            )
        print(
            f"soak[parallel]: {count} plans, {tenants} tenants, "
            f"lanes={lanes}, shards={report.shards} "
            f"(degree partition, vertices {list(report.shard_vertices)})"
        )
        print(
            f"  offloaded {report.offloaded_units} unit(s), inline "
            f"{report.inline_units}; modeled speedup "
            f"{report.speedup:.3f}x, merge {report.merge_cycles:.0f} "
            f"cyc over {report.cross_edges} cross-lane edge(s)"
        )
        print(
            f"  lane occupancy max {report.lane_max_occupancy:.3f} / "
            f"mean {report.lane_mean_occupancy:.3f}"
            + ("; racecheck: zero races" if racecheck else "")
        )
    pool_par.close()
    if failures:
        for failure in failures:
            print(f"  FAIL: {failure}")
        return 1
    print(
        f"  outputs, ledgers and modeled cycles bit-identical to the "
        f"sequential scheduled run of all {count} plans"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description="Sharded parallel serving checks: the robustness "
        "soak on real worker processes, verified bit-identical to "
        "sequential execution.",
    )
    parser.add_argument(
        "--soak",
        action="store_true",
        help="serve the robustness-soak batch with parallel=True and "
        "verify bit-identity against the sequential scheduled run",
    )
    parser.add_argument(
        "--racecheck",
        action="store_true",
        help="arm the happens-before race detector over the parallel "
        "replay",
    )
    parser.add_argument(
        "--lanes",
        type=int,
        default=4,
        metavar="N",
        help="lane width / shard count (default 4)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=8,
        metavar="N",
        help="soak tenants (default 8: the 40-plan batch)",
    )
    parser.add_argument(
        "--graph-size",
        type=int,
        default=60,
        metavar="N",
        help="vertex count for the smoke graph (default 60)",
    )
    parser.add_argument(
        "--offload-threshold",
        type=int,
        default=0,
        metavar="ELEMENTS",
        help="payload (|A| + sum of |B_i|, in set elements) at or above "
        "which a count burst offloads to the workers (default 0: "
        "offload everything)",
    )
    args = parser.parse_args(argv)
    if not args.soak:
        parser.print_help()
        return 0
    kwargs: dict[str, Any] = {
        "n": args.graph_size,
        "tenants": args.tenants,
        "lanes": args.lanes,
        "racecheck": args.racecheck,
        "offload_threshold": args.offload_threshold,
    }
    return _run_soak(**kwargs)


if __name__ == "__main__":
    raise SystemExit(main())
