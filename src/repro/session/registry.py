"""The workload registry: uniform names for every session workload.

A *workload* is a named, session-aware entry point: it receives the
owning :class:`~repro.session.session.SisaSession` plus its own keyword
parameters, pulls whatever cached structure it needs (undirected or
degeneracy-oriented SetGraph, the live stream, a snapshot view) and
returns its functional output.  Registration is declarative::

    @workload("triangles", requires="oriented", view_capable=True)
    def _triangles(session, *, view=None):
        ...

``session.run("triangles")`` then dispatches through the registry and
wraps the output in a uniform :class:`~repro.session.result.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigError, SisaError

REQUIRES = ("none", "undirected", "oriented", "both")


@dataclass(frozen=True)
class WorkloadSpec:
    """One registry entry."""

    name: str
    fn: Callable[..., Any]
    description: str
    # Which cached structure the workload reads: one of REQUIRES, or a
    # callable mapping the run's params to one (for workloads whose
    # needs depend on a parameter, e.g. kclique_star's variant).
    requires: str | Callable[[dict], str]
    view_capable: bool  # can run against a snapshot / dynamic view
    # Optional stage compiler: ``stages(session, params)`` returns the
    # declarative :class:`~repro.session.plan.PlanStage` list a
    # :class:`~repro.session.plan.WorkloadPlan` executes.  Workloads
    # without one compile to a single opaque call stage (not fusable,
    # but still schedulable/dedupable as a whole).
    stages: Callable[[Any, dict], list] | None = None
    # Optional parameter normalizer: ``normalize(session, params)``
    # returns the semantically-resolved parameter dict used for result
    # cache / dedup keys (e.g. defaulted parameters filled in), so every
    # spelling of the same request shares one key.  Defaults to the raw
    # params.
    normalize: Callable[[Any, dict], dict] | None = None
    # Names of the cached sub-requests this workload's plan stages may
    # seed from (beyond its own name) — e.g. clustering_coefficient
    # reads the "triangles" entry.  ``session.invalidate_results(name)``
    # drops these too, so an explicitly invalidated workload can never
    # be "recomputed" from a sub-request the caller meant to discard.
    subrequests: tuple[str, ...] = ()
    # Effect declarations for workloads *without* a stage compiler: the
    # opaque call stage the fallback compiler emits carries these tokens
    # (namespaces of repro.analysis.static.effects) so the hazard
    # verifier can still reason about the kernel — e.g. a kernel that
    # registers and releases its own temporary sets declares
    # ``effect_writes=("sets:scratch",)``.  Stage-compiled workloads
    # declare effects per stage instead.
    effect_reads: tuple[str, ...] = ()
    effect_writes: tuple[str, ...] = ()

    def requires_for(self, params: dict) -> str:
        req = self.requires(params) if callable(self.requires) else self.requires
        if req not in REQUIRES:
            raise ConfigError(f"requires must be one of {REQUIRES}, got {req!r}")
        return req


_REGISTRY: dict[str, WorkloadSpec] = {}


def workload(
    name: str,
    *,
    requires: str | Callable[[dict], str] = "undirected",
    view_capable: bool = False,
    description: str = "",
    stages: Callable[[Any, dict], list] | None = None,
    normalize: Callable[[Any, dict], dict] | None = None,
    subrequests: tuple[str, ...] = (),
    effect_reads: tuple[str, ...] = (),
    effect_writes: tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Register a session workload under ``name``.

    Re-registering an existing name raises
    :class:`~repro.errors.SisaError` unless ``replace=True`` is passed
    explicitly — a silent overwrite would let a plugin shadow a
    built-in (and invalidate compiled plans holding the old spec)
    without any signal.
    """
    if not callable(requires) and requires not in REQUIRES:
        raise ConfigError(f"requires must be one of {REQUIRES}")

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in _REGISTRY and not replace:
            raise SisaError(
                f"workload {name!r} is already registered; pass "
                "replace=True to overwrite it deliberately"
            )
        doc_line = next(iter((fn.__doc__ or "").strip().splitlines()), "")
        _REGISTRY[name] = WorkloadSpec(
            name=name,
            fn=fn,
            description=description or doc_line,
            requires=requires,
            view_capable=view_capable,
            stages=stages,
            normalize=normalize,
            subrequests=subrequests,
            effect_reads=effect_reads,
            effect_writes=effect_writes,
        )
        return fn

    return decorate


def _ensure_default_workloads() -> None:
    """Load the built-in workload definitions.

    Deferred to the first lookup: the definitions use this module's
    :func:`workload` decorator and the plan API, so they load once
    ``repro.session`` is fully initialized.
    """
    import repro.session.workloads  # noqa: F401  (registration side effect)


def get_workload(name: str) -> WorkloadSpec:
    _ensure_default_workloads()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(
            f"unknown workload {name!r}; available: {known}"
        ) from None


def available_workloads() -> dict[str, str]:
    """Mapping of registered workload names to their descriptions."""
    _ensure_default_workloads()
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}
