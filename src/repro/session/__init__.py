"""Session-centric workload API (the persistent Fig. 3 software layer).

* :class:`ExecutionConfig` — one frozen, validated home for every
  execution knob.
* :class:`SisaSession` — owns one ``SisaContext`` per graph and lazily
  caches the SetGraph, degeneracy order and oriented SetGraph, so
  repeated runs skip all setup while engine epoch marks keep per-run
  accounting exact.
* :func:`workload` / :func:`available_workloads` — the registry behind
  ``session.run("triangles")`` and friends.
* :class:`RunResult` — the uniform result record (output, per-run
  cycles, instruction stats, config echo).

The built-in workload definitions live in
:mod:`repro.session.workloads` and are registered on first use.
"""

from repro.session.cache import CacheStats, ResultCache
from repro.session.config import ExecutionConfig
from repro.session.plan import (
    BurstUnit,
    PlanExecutor,
    PlanStage,
    WorkloadPlan,
)
from repro.session.pool import SessionPool
from repro.session.registry import (
    WorkloadSpec,
    available_workloads,
    get_workload,
    workload,
)
from repro.session.result import FailedResult, RunResult
from repro.session.session import SisaSession, run_workload

__all__ = [
    "BurstUnit",
    "CacheStats",
    "ExecutionConfig",
    "FailedResult",
    "PlanExecutor",
    "PlanStage",
    "ResultCache",
    "RunResult",
    "SessionPool",
    "SisaSession",
    "WorkloadPlan",
    "WorkloadSpec",
    "available_workloads",
    "get_workload",
    "run_workload",
    "workload",
]
