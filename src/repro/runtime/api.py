"""The thin SISA software layer (paper Fig. 3).

Two levels of abstraction on top of :class:`SisaContext`:

* :class:`SisaSet` — an opaque handle over a set ID, with operator
  overloads and iterators ("Set classes and iterators over sets that
  abstract away details of set representation and organization").
* :func:`c_api` — the C-style wrapper functions that map one-to-one to
  SISA instructions (``sisa_intersect``, ``sisa_union``, ...), shown in
  the figure's "Function wrappers that map directly to HW instructions"
  box.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.runtime.context import SisaContext


class SisaSet:
    """An opaque reference to a SISA set (the figure's ``VertexSet``).

    Operators mirror the paper's example syntax::

        union = A | B          # A.SISA_Union(B)
        inter = A & B
        diff = A - B
        count = A.intersect_count(B)
        for v in A: ...

    Sets are context managers, so scoped temporaries are freed without
    leaking set IDs::

        with A & B as shared:
            ...                # shared.free() runs on exit
    """

    __slots__ = ("ctx", "set_id")

    def __init__(self, ctx: SisaContext, set_id: int):
        self.ctx = ctx
        self.set_id = set_id

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        ctx: SisaContext,
        elements: Iterable[int] = (),
        *,
        universe: int,
        dense: bool = False,
    ) -> "SisaSet":
        return cls(ctx, ctx.create_set(elements, universe=universe, dense=dense))

    def clone(self) -> "SisaSet":
        return SisaSet(self.ctx, self.ctx.clone(self.set_id))

    def free(self) -> None:
        self.ctx.free(self.set_id)

    # -- scoped lifetime ------------------------------------------------------

    def __enter__(self) -> "SisaSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.free()

    # -- operators -----------------------------------------------------------

    def _wrap(self, set_id: int) -> "SisaSet":
        return SisaSet(self.ctx, set_id)

    def __and__(self, other: "SisaSet") -> "SisaSet":
        return self._wrap(self.ctx.intersect(self.set_id, other.set_id))

    def __or__(self, other: "SisaSet") -> "SisaSet":
        return self._wrap(self.ctx.union(self.set_id, other.set_id))

    def __sub__(self, other: "SisaSet") -> "SisaSet":
        return self._wrap(self.ctx.difference(self.set_id, other.set_id))

    def __iand__(self, other: "SisaSet") -> "SisaSet":
        self.ctx.intersect_into(self.set_id, other.set_id)
        return self

    def __ior__(self, other: "SisaSet") -> "SisaSet":
        self.ctx.union_into(self.set_id, other.set_id)
        return self

    def __isub__(self, other: "SisaSet") -> "SisaSet":
        self.ctx.difference_into(self.set_id, other.set_id)
        return self

    def intersect_count(self, other: "SisaSet") -> int:
        return self.ctx.intersect_count(self.set_id, other.set_id)

    def union_count(self, other: "SisaSet") -> int:
        return self.ctx.union_count(self.set_id, other.set_id)

    def difference_count(self, other: "SisaSet") -> int:
        return self.ctx.difference_count(self.set_id, other.set_id)

    # -- batched / CISC forms (parity with the batched runtime) ---------------

    def intersect_count_batch(self, others: Iterable["SisaSet"]) -> np.ndarray:
        """``|A ∩ B_i|`` over a whole frontier of sets: one amortized
        count burst, cycle-identical to the sequential stream."""
        return self.ctx.intersect_count_batch(
            self.set_id, [other.set_id for other in others]
        )

    def intersect_batch(self, others: Iterable["SisaSet"]) -> list["SisaSet"]:
        """Materializing batched intersection over a frontier."""
        return [
            self._wrap(set_id)
            for set_id in self.ctx.intersect_batch(
                self.set_id, [other.set_id for other in others]
            )
        ]

    def intersect_many(self, *others: "SisaSet") -> "SisaSet":
        """Multi-set intersection ``A ∩ B_1 ∩ ... ∩ B_l``: a chain of
        binary intersections, each with its own dispatch and SM lookups,
        whose intermediates stay in the accelerator (see
        :meth:`SisaContext.intersect_many`)."""
        return self._wrap(
            self.ctx.intersect_many(
                self.set_id, *(other.set_id for other in others)
            )
        )

    # -- elements -------------------------------------------------------------

    def insert(self, x: int) -> None:
        self.ctx.insert(self.set_id, x)

    def remove(self, x: int) -> None:
        self.ctx.remove(self.set_id, x)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, (int, np.integer)) and self.ctx.member(
            self.set_id, int(x)
        )

    def __len__(self) -> int:
        return self.ctx.cardinality(self.set_id)

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.ctx.elements(self.set_id))

    def to_array(self) -> np.ndarray:
        return self.ctx.elements(self.set_id)

    def __repr__(self) -> str:
        meta = self.ctx.sm.meta(self.set_id)
        return (
            f"SisaSet(id={self.set_id}, |A|={meta.cardinality}, "
            f"{meta.representation.value})"
        )


class CApi:
    """The C-style wrappers of Fig. 3 (``SetId``-based, one function per
    SISA instruction family)."""

    def __init__(self, ctx: SisaContext, universe: int):
        self.ctx = ctx
        self.universe = universe

    # SetId create(Vertex* vs, size_t count);
    def create(self, vertices: Iterable[int] = (), *, dense: bool = False) -> int:
        return self.ctx.create_set(vertices, universe=self.universe, dense=dense)

    # void delete(SetId id);
    def delete(self, set_id: int) -> None:
        self.ctx.free(set_id)

    # SetId clone(SetId id);
    def clone(self, set_id: int) -> int:
        return self.ctx.clone(set_id)

    # void insert(SetId id, Vertex v, ...);
    def insert(self, set_id: int, *vertices: int) -> None:
        """Variadic element insert: one batched element-update dispatch
        burst (cycle-identical to the scalar per-vertex stream)."""
        if len(vertices) == 1:
            self.ctx.insert(set_id, vertices[0])
        elif vertices:
            self.ctx.insert_batch([(set_id, v) for v in vertices])

    # void remove(SetId id, Vertex v, ...);
    def remove(self, set_id: int, *vertices: int) -> None:
        """Variadic element remove, batched like :meth:`insert`."""
        if len(vertices) == 1:
            self.ctx.remove(set_id, vertices[0])
        elif vertices:
            self.ctx.remove_batch([(set_id, v) for v in vertices])

    # SetId union(SetId A, SetId B, ...);
    def union(self, a: int, b: int) -> int:
        return self.ctx.union(a, b)

    # SetId intersect(SetId A, SetId B, ...);
    def intersect(self, a: int, b: int) -> int:
        return self.ctx.intersect(a, b)

    # SetId difference(SetId A, SetId B, ...);
    def difference(self, a: int, b: int) -> int:
        return self.ctx.difference(a, b)

    # size_t intersect_count(SetId A, SetId B, ...);
    def intersect_count(self, a: int, b: int) -> int:
        return self.ctx.intersect_count(a, b)

    # size_t cardinality(SetId id, ...);
    def cardinality(self, set_id: int) -> int:
        return self.ctx.cardinality(set_id)

    # bool is_member(SetId id, Vertex v, ...);
    def is_member(self, set_id: int, v: int) -> bool:
        return self.ctx.member(set_id, v)

    # SetId intersect_many(SetId A1, ..., SetId Al);   [CISC extension]
    def intersect_many(self, *set_ids: int) -> int:
        return self.ctx.intersect_many(*set_ids)


def c_api(ctx: SisaContext, universe: int) -> CApi:
    """Build the C-style wrapper table bound to one context."""
    return CApi(ctx, universe)
