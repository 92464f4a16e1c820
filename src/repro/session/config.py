"""ExecutionConfig: the single home of every execution knob.

Every execution knob (``threads``, ``mode``, ``t``, ``budget``,
``policy``, ``gallop_threshold``, ``smb_enabled``, ``hw``, ``cpu``,
``trace``, ...) lives in one frozen, validated dataclass; a
:class:`SisaSession` is configured once and every run inherits the
configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.hw.config import CpuConfig, HardwareConfig

MODES = ("sisa", "cpu-set")
POLICIES = ("fraction", "threshold")


@dataclass(frozen=True)
class ExecutionConfig:
    """Everything that shapes how a session executes workloads.

    Machine knobs (``SisaContext`` construction):

    * ``threads`` — simulated thread lanes (paper: up to 32),
    * ``mode`` — ``"sisa"`` (PIM offload) or ``"cpu-set"`` (host
      ``_set-based`` baseline),
    * ``hw`` / ``cpu`` — hardware parameter overrides,
    * ``gallop_threshold`` — merge-vs-galloping crossover override,
    * ``smb_enabled`` — Set Metadata Buffer cache on/off,
    * ``trace`` — per-instruction trace recording.

    Graph-structure knobs (``SetGraph`` construction, paper Section 6.1):

    * ``t`` — DB bias (fraction or threshold, per ``policy``),
    * ``budget`` — extra-storage budget as a fraction of the all-SA
      footprint,
    * ``policy`` — ``"fraction"`` or ``"threshold"``.

    Result caching:

    * ``result_cache`` — cache registered-workload outputs keyed on
      (workload, params, stream version), so repeated identical runs
      on an unchanged graph are O(1) (``session.invalidate_results()``
      drops entries explicitly; mutations invalidate by key),
    * ``result_cache_size`` — LRU bound on cached outputs.

    Observability:

    * ``observability`` — when True, sessions and pools build an
      :class:`~repro.observability.Observability` hub and feed it from
      every layer (SCU dispatch, kernel bursts, caches, admission,
      orientation maintenance).  Observation-only: modeled cycles and
      outputs are bit-identical either way, so the knob is deliberately
      *not* part of :meth:`memo_signature`.
    """

    threads: int = 32
    mode: str = "sisa"
    t: float = 0.4
    budget: float = 0.1
    policy: str = "fraction"
    gallop_threshold: float | None = None
    smb_enabled: bool = True
    hw: HardwareConfig | None = None
    cpu: CpuConfig | None = None
    trace: bool = False
    result_cache: bool = True
    result_cache_size: int = 128
    observability: bool = False

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ConfigError("threads must be positive")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.t <= 1.0:
            raise ConfigError("t must be in [0, 1]")
        if self.budget < 0.0:
            raise ConfigError("budget must be non-negative")
        if self.policy not in POLICIES:
            raise ConfigError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if self.result_cache_size <= 0:
            raise ConfigError("result_cache_size must be positive")

    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "ExecutionConfig":
        """A copy with some knobs changed (validation re-runs)."""
        return dataclasses.replace(self, **changes)

    def make_context(
        self, *, decision_memo: dict | None = None, observability=None
    ):
        """Build a fresh simulated machine from the machine knobs.

        ``decision_memo`` optionally injects a shared SCU decision
        table (session pools share one per machine signature; the
        memoized values are pure functions of operand shapes and these
        frozen configs, so sharing is bit-identical).  ``observability``
        optionally wires an :class:`~repro.observability.Observability`
        hub into the context and its SCU (observation-only)."""
        from repro.runtime.context import SisaContext

        return SisaContext(
            threads=self.threads,
            mode=self.mode,
            hw=self.hw,
            cpu=self.cpu,
            gallop_threshold=self.gallop_threshold,
            smb_enabled=self.smb_enabled,
            trace=self.trace,
            decision_memo=decision_memo,
            observability=observability,
        )

    def memo_signature(self) -> tuple:
        """The machine signature under which SCU decision tables may be
        shared: two configs with equal signatures produce bit-identical
        variant decisions and model costs for every operand shape."""
        from repro.hw.config import CpuConfig, HardwareConfig

        return (
            self.mode,
            self.hw or HardwareConfig(),
            self.cpu or CpuConfig(),
            self.gallop_threshold,
        )

    def describe(self) -> dict[str, Any]:
        """A plain-dict echo of the knobs (for RunResult reporting)."""
        return {
            "threads": self.threads,
            "mode": self.mode,
            "t": self.t,
            "budget": self.budget,
            "policy": self.policy,
            "gallop_threshold": self.gallop_threshold,
            "smb_enabled": self.smb_enabled,
            "hw": self.hw,
            "cpu": self.cpu,
            "trace": self.trace,
            "result_cache": self.result_cache,
            "result_cache_size": self.result_cache_size,
            "observability": self.observability,
        }
