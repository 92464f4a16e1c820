"""The front-door validation rule engine.

Before this module, a malformed request died wherever it happened to
hit bottom: an unknown workload raised at registry lookup, a misspelled
parameter at plan compile, a bad ``measure`` inside the kernel, an
out-of-range vertex as an opaque numpy ``IndexError`` — and an unknown
``ExecutionConfig`` override key as a bare ``TypeError`` from the
dataclass constructor.  The rule engine moves all of that to the door:

* Validators are small named functions registered with :func:`rule`
  (the per-validator registry idiom of the kg-microbe build system's
  per-source transform registry): each declares which workloads it
  applies to and returns violations instead of raising.
* :class:`RuleSet` composes validators; :func:`default_rules` builds
  the stock set for a workload (every global rule plus its targeted
  ones).
* :func:`validate_request` is the single validation code path shared
  by ``session.compile``, ``session.run`` and ``pool.submit``.  On
  failure it raises one structured
  :class:`~repro.errors.ValidationError` whose ``details`` carry every
  violation (rule name, message, offending values) machine-readably.
* :func:`resolve_execution_config` / :func:`validate_config_overrides`
  run the config-scoped rules, so ``SessionPool(bogus_knob=1)`` fails
  with a :class:`~repro.errors.ConfigError` naming the bad key instead
  of a dataclass ``TypeError``.

Validation is host-side and uncharged: it never dispatches
instructions, never builds cached structures, and never changes the
modeled cycles of an accepted request.

Imports from ``repro.session`` are deferred inside functions: the
session layer itself validates through this module, and module-level
imports in either direction would cycle.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.algorithms.similarity import MEASURES
from repro.errors import ConfigError, SisaError, ValidationError

SCOPES = ("request", "config")


@dataclass(frozen=True)
class Violation:
    """One failed check: the rule that failed, a human-readable
    message, and a machine-readable context payload."""

    rule: str
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {"rule": self.rule, "message": self.message, **self.details}


@dataclass
class RequestContext:
    """What validators see.

    ``session`` (and therefore ``graph``) may be ``None`` when a
    request is validated without a session (pure shape checks still
    run; graph-dependent rules skip).  ``overrides`` is populated only
    for config-scoped validation.
    """

    workload: str | None = None
    params: dict[str, Any] = field(default_factory=dict)
    spec: Any = None  # WorkloadSpec, once resolved
    session: Any = None
    overrides: dict[str, Any] = field(default_factory=dict)

    @property
    def graph(self):
        """The current CSR graph state, or ``None`` sessionless."""
        return None if self.session is None else self.session.current_graph

    @property
    def num_vertices(self) -> int | None:
        """The session's vertex count, or ``None`` sessionless.  A
        stream never changes it, so it is read off the construction
        graph, without rebuilding the current CSR."""
        return None if self.session is None else self.session.graph.num_vertices


@dataclass(frozen=True)
class Rule:
    """One registered validator."""

    name: str
    check: Callable[[RequestContext], Any]
    scope: str  # one of SCOPES
    workloads: frozenset[str] | None  # None = applies to every workload
    description: str

    def applies_to(self, workload: str | None) -> bool:
        return self.workloads is None or workload in self.workloads

    def violations(self, ctx: RequestContext) -> list[Violation]:
        """Run the check, normalizing its return value: ``None`` means
        pass; a string, a :class:`Violation` or an iterable of either
        means failure(s)."""
        found = self.check(ctx)
        if found is None:
            return []
        if isinstance(found, (str, Violation)):
            found = [found]
        return [
            v if isinstance(v, Violation) else Violation(self.name, str(v))
            for v in found
        ]


_RULES: dict[str, Rule] = {}


def rule(
    name: str,
    *,
    scope: str = "request",
    workloads: Iterable[str] | None = None,
    description: str = "",
    replace: bool = False,
) -> Callable[[Callable[[RequestContext], Any]], Callable[[RequestContext], Any]]:
    """Register a validator under ``name``.

    ``workloads`` restricts a request-scoped rule to specific workload
    names (``None`` = global).  Re-registering an existing name raises
    unless ``replace=True`` — the same anti-shadowing contract as the
    workload registry.
    """
    if scope not in SCOPES:
        raise ConfigError(f"rule scope must be one of {SCOPES}, got {scope!r}")

    def decorate(fn: Callable[[RequestContext], Any]):
        if name in _RULES and not replace:
            raise SisaError(
                f"validation rule {name!r} is already registered; pass "
                "replace=True to overwrite it deliberately"
            )
        doc_line = next(iter((fn.__doc__ or "").strip().splitlines()), "")
        _RULES[name] = Rule(
            name=name,
            check=fn,
            scope=scope,
            workloads=frozenset(workloads) if workloads is not None else None,
            description=description or doc_line,
        )
        return fn

    return decorate


def available_rules(scope: str | None = None) -> dict[str, str]:
    """Registered rule names mapped to their descriptions."""
    return {
        name: r.description
        for name, r in sorted(_RULES.items())
        if scope is None or r.scope == scope
    }


class RuleSet:
    """An ordered collection of registered rules."""

    def __init__(self, names: Iterable[str]):
        self.names = tuple(names)
        unknown = [n for n in self.names if n not in _RULES]
        if unknown:
            raise ConfigError(
                f"unknown validation rule(s) {unknown}; available: "
                f"{sorted(_RULES)}",
                details={"unknown_rules": unknown},
            )

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def validate(self, ctx: RequestContext) -> list[Violation]:
        """Run every applicable rule; returns all violations found."""
        found: list[Violation] = []
        for name in self.names:
            r = _RULES[name]
            if r.scope == "request" and not r.applies_to(ctx.workload):
                continue
            found.extend(r.violations(ctx))
        return found


def default_rules(workload: str | None = None) -> RuleSet:
    """The stock request RuleSet for ``workload``: every global
    request rule plus the rules targeting that workload, in
    registration order."""
    return RuleSet(
        name
        for name, r in _RULES.items()
        if r.scope == "request" and r.applies_to(workload)
    )


# ---------------------------------------------------------------------------
# Shared signature introspection (the one home of the accepted/required
# parameter logic that used to live privately in the plan compiler)
# ---------------------------------------------------------------------------

_SIGNATURES: dict[Callable, tuple[frozenset | None, frozenset]] = {}


def signature_params(fn: Callable) -> tuple[frozenset | None, frozenset]:
    """``(accepted, required)`` keyword parameters of a workload fn.

    ``accepted`` is ``None`` when the fn takes ``**kwargs``;
    ``required`` are the parameters without defaults (never includes
    the leading session argument or ``view``)."""
    cached = _SIGNATURES.get(fn)
    if cached is not None:
        return cached
    names: list[str] = []
    required: list[str] = []
    accepts_any = False
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        if p.kind is inspect.Parameter.VAR_KEYWORD:
            accepts_any = True
        elif i > 0:  # skip the leading session argument
            names.append(p.name)
            if p.default is inspect.Parameter.empty and p.name != "view":
                required.append(p.name)
    result = (
        None if accepts_any else frozenset(names),
        frozenset(required),
    )
    _SIGNATURES[fn] = result
    return result


# ---------------------------------------------------------------------------
# Built-in request rules
# ---------------------------------------------------------------------------


@rule("params-accepted")
def _params_accepted(ctx: RequestContext):
    """Every parameter name must exist in the workload's signature."""
    accepted, __ = signature_params(ctx.spec.fn)
    if accepted is None:
        return None
    unknown = set(ctx.params) - accepted
    if unknown:
        return Violation(
            "params-accepted",
            f"workload {ctx.workload!r} got unexpected parameter(s) "
            f"{sorted(unknown)}; accepted: {sorted(accepted)}",
            {"unknown": sorted(unknown), "accepted": sorted(accepted)},
        )
    return None


@rule("params-required")
def _params_required(ctx: RequestContext):
    """Parameters without defaults must be supplied at the door, not
    discovered as a TypeError when the kernel finally runs."""
    __, required = signature_params(ctx.spec.fn)
    missing = required - set(ctx.params)
    if missing:
        return Violation(
            "params-required",
            f"workload {ctx.workload!r} is missing required parameter(s) "
            f"{sorted(missing)}",
            {"missing": sorted(missing)},
        )
    return None


def _is_int(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not (
        isinstance(value, bool)
    )


# Declarative per-parameter domains: workload -> param -> (predicate,
# requirement text).  ``None`` values pass (the workload resolves its
# own default).  Kept deliberately weaker than nothing the kernels
# accept: a request passing these rules may still be expensive, but it
# can no longer be *malformed*.
_DOMAINS: dict[str, dict[str, tuple[Callable[[Any], bool], str]]] = {
    "kclique": {"k": (lambda v: _is_int(v) and v >= 1, "an integer >= 1")},
    "kclique_star": {
        "k": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
        "variant": (
            lambda v: v in ("intersect", "from_k1"),
            "'intersect' or 'from_k1'",
        ),
    },
    "bfs": {"root": (_is_int, "a vertex index")},
    "similarity": {
        "u": (_is_int, "a vertex index"),
        "v": (_is_int, "a vertex index"),
    },
    "link_prediction": {
        "removal_fraction": (
            lambda v: _is_real(v) and 0.0 < v < 1.0,
            "a fraction in (0, 1)",
        ),
        "seed": (_is_int, "an integer"),
    },
    "fsm": {
        # sigma is a fraction-of-n multiplier, but values above 1 are
        # legitimate (threshold > n: the search provably stops early).
        "sigma": (lambda v: _is_real(v) and v > 0.0, "a positive number"),
        "max_size": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    },
    "approx_degeneracy": {
        "eps": (lambda v: _is_real(v) and v > 0, "a positive number")
    },
    "jarvis_patrick": {
        "tau": (lambda v: _is_real(v) and v >= 0, "a non-negative number")
    },
}


@rule("param-domains")
def _param_domains(ctx: RequestContext):
    """Scalar parameters must lie in their workload's documented
    domain (types and ranges from the declarative table)."""
    table = _DOMAINS.get(ctx.workload or "")
    if not table:
        return None
    found = []
    for name, (ok, requirement) in table.items():
        if name not in ctx.params or ctx.params[name] is None:
            continue
        value = ctx.params[name]
        if not ok(value):
            found.append(
                Violation(
                    "param-domains",
                    f"parameter {name!r} of workload {ctx.workload!r} must "
                    f"be {requirement}, got {value!r}",
                    {"param": name, "value": repr(value), "requirement": requirement},
                )
            )
    return found or None


@rule(
    "measure-known",
    workloads=("similarity", "similarity_pairs", "jarvis_patrick", "link_prediction"),
)
def _measure_known(ctx: RequestContext):
    """``measure`` must name a known similarity measure."""
    measure = ctx.params.get("measure")
    if measure is None:
        return None
    if measure not in MEASURES:
        return Violation(
            "measure-known",
            f"unknown measure {measure!r} for workload {ctx.workload!r}; "
            f"supported: {sorted(MEASURES)}",
            {"measure": repr(measure), "supported": sorted(MEASURES)},
        )
    return None


@rule("pairs-shape", workloads=("similarity_pairs",))
def _pairs_shape(ctx: RequestContext):
    """A watchlist must be an integer array of shape ``(n, 2)``."""
    pairs = ctx.params.get("pairs")
    if pairs is None:
        return None
    try:
        arr = np.asarray(pairs)
    except (TypeError, ValueError):  # pragma: no cover - non-array inputs
        return Violation("pairs-shape", "pairs is not array-like")
    if arr.ndim != 2 or arr.shape[1] != 2:
        return Violation(
            "pairs-shape",
            f"pairs must have shape (n, 2), got {arr.shape}",
            {"shape": list(arr.shape)},
        )
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        return Violation(
            "pairs-shape",
            f"pairs must hold vertex indices (integer dtype), got {arr.dtype}",
            {"dtype": str(arr.dtype)},
        )
    return None


@rule("vertices-in-range")
def _vertices_in_range(ctx: RequestContext):
    """Every vertex-index parameter must address the session's graph
    (skipped sessionless)."""
    n = ctx.num_vertices
    if n is None:
        return None
    found = []

    def check(name: str, value: Any):
        if _is_int(value) and not 0 <= int(value) < n:
            found.append(
                Violation(
                    "vertices-in-range",
                    f"parameter {name!r} = {int(value)} is outside the "
                    f"graph's vertex range [0, {n})",
                    {"param": name, "value": int(value), "num_vertices": n},
                )
            )

    for name in ("root", "u", "v"):
        if name in ctx.params:
            check(name, ctx.params[name])
    pairs = ctx.params.get("pairs")
    if ctx.workload == "similarity_pairs" and pairs is not None:
        arr = np.asarray(pairs)
        if (
            arr.ndim == 2
            and arr.shape[1] == 2
            and arr.size
            and np.issubdtype(arr.dtype, np.integer)
            and (arr.min() < 0 or arr.max() >= n)
        ):
            found.append(
                Violation(
                    "vertices-in-range",
                    f"pairs contain vertices outside [0, {n})",
                    {"num_vertices": n},
                )
            )
    return found or None


# ---------------------------------------------------------------------------
# Config-scoped rules
# ---------------------------------------------------------------------------


@rule("config-overrides", scope="config")
def _config_overrides(ctx: RequestContext):
    """ExecutionConfig override keys must name real config knobs."""
    import dataclasses

    from repro.session.config import ExecutionConfig

    accepted = {f.name for f in dataclasses.fields(ExecutionConfig)}
    unknown = sorted(set(ctx.overrides) - accepted)
    if unknown:
        return Violation(
            "config-overrides",
            f"unknown ExecutionConfig override(s) {unknown}; accepted: "
            f"{sorted(accepted)}",
            {"unknown_keys": unknown, "accepted": sorted(accepted)},
        )
    return None


CONFIG_RULES = ("config-overrides",)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _raise(workload: str | None, violations: list[Violation]) -> None:
    messages = "; ".join(v.message for v in violations)
    raise ValidationError(
        f"invalid request for workload {workload!r}: {messages}"
        if workload is not None
        else messages,
        details={
            "workload": workload,
            "violations": [v.as_dict() for v in violations],
        },
    )


def validate_request(session, workload: str, params: Mapping[str, Any]):
    """Validate one workload request; returns the resolved
    :class:`~repro.session.registry.WorkloadSpec` on success.

    This is the single front door shared by ``session.compile``,
    ``session.run`` and ``pool.submit``: name resolution, signature
    checks and every applicable registered rule run here, and any
    failure raises one :class:`~repro.errors.ValidationError` carrying
    all violations in ``details``.
    """
    from repro.session.registry import get_workload

    if not isinstance(workload, str):
        _raise(
            None,
            [
                Violation(
                    "workload-registered",
                    "workloads are requested by registered name; got "
                    f"{type(workload).__name__}",
                    {"got_type": type(workload).__name__},
                )
            ],
        )
    try:
        spec = get_workload(workload)
    except ConfigError as exc:
        # Preserve the registry's message (it lists what *is*
        # available) while upgrading to the structured error.
        raise ValidationError(
            str(exc),
            details={
                "workload": workload,
                "violations": [
                    Violation("workload-registered", str(exc)).as_dict()
                ],
            },
        ) from None
    ctx = RequestContext(
        workload=spec.name, params=dict(params), spec=spec, session=session
    )
    violations = default_rules(spec.name).validate(ctx)
    if violations:
        _raise(spec.name, violations)
    return spec


def validate_config_overrides(overrides: Mapping[str, Any]) -> None:
    """Run the config-scoped rules over keyword overrides; raises a
    :class:`~repro.errors.ValidationError` (a ``ConfigError``) naming
    any bad key.  Per-violation details (e.g. ``unknown_keys``) are
    flattened onto the error's top-level ``details`` so callers can
    read them without walking the violation list."""
    ctx = RequestContext(overrides=dict(overrides))
    violations = RuleSet(CONFIG_RULES).validate(ctx)
    if violations:
        merged: dict[str, Any] = {}
        for v in violations:
            merged.update(v.details)
        raise ValidationError(
            "; ".join(v.message for v in violations),
            details={
                **merged,
                "violations": [v.as_dict() for v in violations],
            },
        )


def resolve_execution_config(config, overrides: Mapping[str, Any]):
    """The one code path resolving ``(config, **overrides)`` into an
    :class:`~repro.session.config.ExecutionConfig`.

    Unknown override keys fail through the rule engine with a
    ``ConfigError`` naming the key (previously a bare dataclass
    ``TypeError``); a non-config ``config`` argument is rejected
    likewise instead of exploding on attribute access later.
    """
    from repro.session.config import ExecutionConfig

    if config is not None and not isinstance(config, ExecutionConfig):
        raise ValidationError(
            f"config must be an ExecutionConfig (or None), got "
            f"{type(config).__name__}",
            details={"got_type": type(config).__name__},
        )
    if overrides:
        validate_config_overrides(overrides)
        if config is not None:
            return config.replace(**overrides)
        return ExecutionConfig(**overrides)
    return config if config is not None else ExecutionConfig()
