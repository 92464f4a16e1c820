"""Vertex-universe sharding and the shared-memory staging layer.

The paper's multi-lane model charges per-lane costs via
``engine.on_lane``; shards are the software analogue — a partition of
the vertex universe such that ``|A ∩ B| = Σ_k |A ∩ B ∩ S_k|`` exactly
(the shards partition the universe, and intersection distributes over
the partition), so per-shard partial counts merge back into the precise
integer the sequential kernel computes.

Everything a worker reads is staged once in
``multiprocessing.shared_memory`` numpy arrays (the staged per-source
registry idiom: each source — the undirected neighborhoods, the
oriented ``N+`` sets — is an independently buildable, re-pushable CSR
slice), so worker attach is zero-copy: all processes map the same
physical pages.  Workers additionally build a *private* shard-filtered
CSR on load, which splits frontier scans ``O(Σ|B_i|)`` evenly across
shards instead of duplicating them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any

import numpy as np

from repro.errors import ConfigError

def partition_universe(degrees: np.ndarray, shards: int) -> np.ndarray:
    """Assign every vertex to a shard; returns ``shard_of`` (int32).

    Vertices are placed greedily in decreasing-degree order onto the
    currently lightest shard (by degree mass, ties to the lowest shard)
    — the classic LPT balance heuristic, deterministic for a fixed
    degree array.
    """
    if shards < 1:
        raise ConfigError("shards must be positive")
    degrees = np.asarray(degrees, dtype=np.int64)
    n = degrees.size
    shard_of = np.zeros(n, dtype=np.int32)
    if shards == 1 or n == 0:
        return shard_of
    order = np.argsort(-degrees, kind="stable")
    loads = [0] * shards
    for v in order:
        k = min(range(shards), key=lambda i: (loads[i], i))
        shard_of[v] = k
        loads[k] += int(degrees[v]) + 1  # +1 keeps zero-degree tails even
    return shard_of


@dataclass(frozen=True)
class ShardPlan:
    """One partition of the vertex universe."""

    shards: int
    shard_of: np.ndarray

    @property
    def vertex_counts(self) -> tuple[int, ...]:
        """Per-shard vertex counts (the health/balance metric)."""
        return tuple(
            int(c)
            for c in np.bincount(self.shard_of, minlength=self.shards)
        )

    @classmethod
    def build(cls, degrees: np.ndarray, shards: int) -> "ShardPlan":
        return cls(
            shards=int(shards), shard_of=partition_universe(degrees, shards)
        )


class SharedArray:
    """One numpy array backed by a named shared-memory segment.

    The creating (host) side owns the segment and unlinks it on
    :meth:`destroy`; workers attach by spec and only ever close their
    local mapping.  A ``weakref.finalize`` guard unlinks host segments
    even when a runtime is dropped without ``close()``.

    The guard watches :attr:`array`, not the wrapper: every numpy view
    of the array keeps it alive (a view's base is the array, whose own
    base is the mapping), and the wrapper holds it, so the mapping is
    closed only once neither the wrapper nor any view is reachable.
    """

    def __init__(self, shm: shared_memory.SharedMemory, array: np.ndarray, *, owner: bool):
        self.shm = shm
        self.array = array
        self.owner = owner
        if owner:
            self._finalizer = weakref.finalize(array, _cleanup_segment, shm)
        else:
            self._finalizer = weakref.finalize(array, _close_segment, shm)

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(
            create=True, size=max(int(array.nbytes), 1)
        )
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
        view[...] = array
        return cls(shm, view, owner=True)

    @classmethod
    def zeros(cls, shape, dtype) -> "SharedArray":
        return cls.create(np.zeros(shape, dtype=dtype))

    def spec(self) -> dict[str, Any]:
        """Picklable attach descriptor (name + shape + dtype)."""
        return {
            "name": self.shm.name,
            "shape": tuple(int(s) for s in self.array.shape),
            "dtype": str(self.array.dtype),
        }

    @classmethod
    def attach(cls, spec: dict[str, Any]) -> "SharedArray":
        """Worker-side zero-copy attach.

        Python 3.11's ``SharedMemory`` has no ``track`` parameter:
        every attach registers the segment with the resource tracker —
        which spawned workers *share* with the host, so tracking (or
        unregistering) from a worker would corrupt the host's
        registration and unlink live segments.  Until ``track=False``
        exists, registration is suppressed for the duration of the
        attach (worker bootstrap is single-threaded, so the swap cannot
        race).
        """
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=spec["name"])
        finally:
            resource_tracker.register = original
        array = np.ndarray(
            spec["shape"], dtype=np.dtype(spec["dtype"]), buffer=shm.buf
        )
        return cls(shm, array, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (workers; host keeps segment)."""
        self._finalizer.detach()
        _close_segment(self.shm)

    def destroy(self) -> None:
        """Host-side teardown: close the mapping and unlink the
        segment."""
        self._finalizer.detach()
        _cleanup_segment(self.shm)


def _close_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views still alive
        pass


def _cleanup_segment(shm: shared_memory.SharedMemory) -> None:
    _close_segment(shm)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


def setgraph_csr(ctx, set_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten one SetGraph's per-vertex sets into (offsets, values).

    Reads raw set values through the uncharged model-internal accessor
    — staging is graph loading, outside the measured region — so
    building the shard store never perturbs modeled cycles.
    """
    offsets = np.zeros(len(set_ids) + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for i, sid in enumerate(set_ids):
        arr = np.asarray(ctx.value(sid).to_array(), dtype=np.int64)
        offsets[i + 1] = offsets[i] + arr.size
        chunks.append(arr)
    values = (
        np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    )
    return offsets, values


class ShardStore:
    """Host-side owner of every shared segment of one runtime.

    Segments: the partition map, the per-shard result arena, and one
    (offsets, values) CSR pair per pushed source.  Pushing a source
    again (stream epoch advanced, orientation rebuilt) replaces the
    pair; the old segments are destroyed only after the caller
    confirmed every worker reloaded.
    """

    def __init__(self, plan: ShardPlan, *, arena_width: int):
        self.plan = plan
        self.shard_of = SharedArray.create(plan.shard_of)
        self.arena = SharedArray.zeros(
            (plan.shards, int(arena_width)), np.int64
        )
        self.sources: dict[str, tuple[SharedArray, SharedArray]] = {}

    @property
    def arena_width(self) -> int:
        return int(self.arena.array.shape[1])

    def base_spec(self) -> dict[str, Any]:
        """The picklable worker bootstrap descriptor."""
        return {
            "n": int(self.plan.shard_of.size),
            "shards": self.plan.shards,
            "shard_of": self.shard_of.spec(),
            "arena": self.arena.spec(),
        }

    def push_source(
        self, name: str, offsets: np.ndarray, values: np.ndarray
    ) -> tuple[dict[str, Any], tuple[SharedArray, SharedArray] | None]:
        """Stage one source CSR; returns its attach spec and the
        *previous* segment pair (for the caller to destroy after every
        worker acknowledged the reload)."""
        stale = self.sources.get(name)
        pair = (SharedArray.create(offsets), SharedArray.create(values))
        self.sources[name] = pair
        spec = {
            "source": name,
            "offsets": pair[0].spec(),
            "values": pair[1].spec(),
        }
        return spec, stale

    def close(self) -> None:
        self.shard_of.destroy()
        self.arena.destroy()
        for pair in self.sources.values():
            pair[0].destroy()
            pair[1].destroy()
        self.sources.clear()
