"""Outside-in layer tracing: wall time attributed to the repro layers.

The tracer times the public calls into each layer from the outside,
by wrapping the layer's public functions and methods while it is
active.  Nothing under ``src/`` knows about it; leaving the ``with``
block restores every original attribute.

Each wrapped call pushes a frame on one stack.  A frame's *self* time
is its wall time minus the wall time of the wrapped calls nested in it,
so every traced second lands on exactly one layer: the innermost
wrapped call running at that moment.  Code a layer reaches through
unwrapped functions (private helpers, algorithm host code, set classes)
counts toward the layer that called it.  A call counts as one entry
into a layer only when its caller is a different layer, so recursion
and same-layer helpers do not inflate ``calls``.

Calls made in spawned worker processes are not traced; the host time a
layer spends waiting on them counts as that layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

#: Layer name -> the code it covers.  An entry is ``module`` (every
#: public function and class method defined in it), ``module:Class``
#: (that class's public methods) or ``module:Class.method``.
LAYERS: dict[str, tuple[str, ...]] = {
    "session.pool": ("repro.session.pool",),
    "serving.admission": ("repro.serving.admission",),
    # Executor and session host code; stage generators and algorithm
    # code run unwrapped underneath it and count here.
    "session.plan": ("repro.session.plan", "repro.session.session"),
    "session.cache": ("repro.session.cache",),
    "isa.scu": ("repro.isa.scu",),
    "isa.metadata": ("repro.isa.metadata",),
    # SisaContext: the runtime API between plans and the SCU/kernels.
    "runtime.context": ("repro.runtime.context",),
    "runtime.batch": ("repro.runtime.batch",),
    "sets.kernels": ("repro.sets.kernels",),
    "hw.engine": ("repro.hw.engine",),
    "observability": (
        "repro.observability.hub",
        "repro.observability.spans:SpanRecorder",
    ),
    "streaming.graph": ("repro.streaming.graph",),
    "streaming.orientation": ("repro.streaming.orientation",),
    "analysis.static.schedule": ("repro.analysis.static.schedule",),
    "parallel.workers": ("repro.parallel.workers:ShardRuntime.partial_counts",),
}


def _public_methods(cls):
    for name, attr in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(attr, (staticmethod, classmethod)) or inspect.isfunction(attr):
            yield name, attr


def _targets(entry: str):
    """``(owner, attribute name, original)`` for every callable an
    entry covers; ``owner`` is a module (functions) or a class."""
    modname, __, qual = entry.partition(":")
    module = importlib.import_module(modname)
    if qual:
        clsname, __, method = qual.partition(".")
        cls = getattr(module, clsname)
        if method:
            yield cls, method, vars(cls)[method]
        else:
            for name, attr in _public_methods(cls):
                yield cls, name, attr
        return
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != modname:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj
        elif inspect.isclass(obj):
            for mname, attr in _public_methods(obj):
                yield obj, mname, attr


class LayerTracer:
    """Context manager that attributes wall time to :data:`LAYERS`.

    ::

        tracer = LayerTracer()
        with tracer:
            tracer.reset()          # start counting here
            ...                     # run requests
        tracer.self_s["isa.scu"], tracer.calls["isa.scu"]

    Between :meth:`start_spans` and :meth:`take_spans` every wrapped
    call is also kept as a span ``(layer, function, start, end,
    depth)``; :func:`chrome_trace` turns them into a Chrome trace.
    """

    def __init__(self):
        self.names = list(LAYERS)
        self._self = [0.0] * len(self.names)
        self._calls = [0] * len(self.names)
        # Root frame: layer -1 collects time spent outside every layer.
        self._stack: list[list] = [[-1, 0.0]]
        self._spans: list[tuple] = []
        self._recording = [False]
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple[object, object]] = {}

    def reset(self) -> None:
        for i in range(len(self.names)):
            self._self[i] = 0.0
            self._calls[i] = 0

    @property
    def self_s(self) -> dict[str, float]:
        return dict(zip(self.names, self._self))

    @property
    def calls(self) -> dict[str, int]:
        return dict(zip(self.names, self._calls))

    def start_spans(self) -> None:
        self._spans.clear()
        self._recording[0] = True

    def take_spans(self) -> list[tuple]:
        self._recording[0] = False
        spans = list(self._spans)
        self._spans.clear()
        return spans

    def _wrap(self, fn, idx: int):
        stack = self._stack
        push, pop = stack.append, stack.pop
        self_s = self._self
        calls = self._calls
        recording = self._recording
        spans = self._spans
        layer = self.names[idx]
        qualname = fn.__qualname__
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [idx, 0.0]
            push(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                pop()
                self_s[idx] += dt - frame[1]
                parent[1] += dt
                if parent[0] != idx:
                    calls[idx] += 1
                if recording[0]:
                    spans.append((layer, qualname, t0, t1, len(stack)))

        return traced

    def __enter__(self) -> "LayerTracer":
        if self._restore:
            raise RuntimeError("LayerTracer is already active")
        functions: dict[int, tuple[object, object]] = {}
        for idx, name in enumerate(self.names):
            for entry in LAYERS[name]:
                for owner, attr, original in list(_targets(entry)):
                    if isinstance(original, (staticmethod, classmethod)):
                        wrapped = type(original)(self._wrap(original.__func__, idx))
                    else:
                        wrapped = self._wrap(original, idx)
                        if inspect.ismodule(owner):
                            functions[id(original)] = (original, wrapped)
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
        # ``from module import fn`` copies the reference: rebind it
        # wherever another repro module holds it.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, key, value))
                    setattr(module, key, hit[1])
        self._wrappers = {id(w): (w, o) for o, w in functions.values()}
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        # Modules imported while tracing copied wrapped references.
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self._wrappers = {}


def chrome_trace(spans: list[tuple], request: int) -> dict:
    """Spans of one request as Chrome trace events (chrome://tracing,
    Perfetto); nesting follows from the start and end times."""
    origin = min((span[2] for span in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "otherData": {"request": request},
        "traceEvents": [
            {
                "name": fn,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": round((t0 - origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "args": {"depth": depth},
            }
            for layer, fn, t0, t1, depth in spans
        ],
    }


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
