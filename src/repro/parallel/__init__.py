"""Sharded parallel execution of certified schedules on real processes.

The schedule certifier (:mod:`repro.analysis.static.schedule`) proves
*which* orders are legal and models their parallel cycles; this package
executes a :class:`~repro.analysis.static.schedule.CertifiedSchedule`
on actual OS processes:

* :mod:`repro.parallel.shards` — partition the vertex universe
  (degree-balanced) and stage per-source CSR slices in
  ``multiprocessing.shared_memory`` so worker attach is zero-copy;
* :mod:`repro.parallel.workers` — a spawn-safe process fan-out pool;
  each worker owns one shard and serves one kernel, per-shard partial
  intersection counts of row pairs, into a shared result arena;
* :mod:`repro.parallel.merge` — host-side deterministic merges (fixed
  shard-order integer reduction, bit-identical to sequential) plus the
  merge ledger and the model reconciliation against
  :meth:`CertifiedSchedule.what_if`;
* :mod:`repro.parallel.executor` — the :class:`ParallelExecutor`
  behind ``pool.run(lanes=N, parallel=True)``;
* :mod:`repro.parallel.ownership` — the host/worker ownership fence.

This ``__init__`` stays import-light (lazy attribute resolution) so the
spawned workers — which import :mod:`repro.parallel.workers` — never
pay for the host-side session/analysis stack.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "ParallelExecutor": "repro.parallel.executor",
    "LaneGate": "repro.parallel.executor",
    "ParallelReport": "repro.parallel.merge",
    "MergeLedger": "repro.parallel.merge",
    "merge_partials": "repro.parallel.merge",
    "reconcile": "repro.parallel.merge",
    "ShardPlan": "repro.parallel.shards",
    "partition_universe": "repro.parallel.shards",
    "ShardRuntime": "repro.parallel.workers",
    "assert_host_owned": "repro.parallel.ownership",
    "in_worker": "repro.parallel.ownership",
    "current_shard": "repro.parallel.ownership",
    "mark_worker": "repro.parallel.ownership",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__() -> list[str]:
    return __all__
