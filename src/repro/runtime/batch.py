"""Batched set-instruction execution: the functional fan-out kernels.

This module implements the *functional* half of SISA's batched
count-form instructions.  It maps to the paper's Section 6.2.3:
cardinality-of-result instruction variants (``|A ∩ B|``, ``|A ∪ B|``,
``|A \\ B|``) exist precisely so graph-mining kernels never materialize
intermediate sets.  Graph algorithms issue these instructions in dense
bursts — one probe set ``A`` (a neighborhood or a running candidate
set) against a whole frontier ``B_1 .. B_k`` — so the runtime exposes a
batched form (:meth:`repro.runtime.context.SisaContext.count_burst`,
behind ``intersect_count_batch`` and ``union_count_batch``) that:

* fetches operand values/metadata once per frontier,
* runs ONE vectorized kernel over the concatenated (CSR-style) element
  arrays of all sparse operands instead of ``k`` per-op kernel
  launches (:func:`repro.sets.kernels.intersect_count_flat_sa` /
  ``intersect_count_flat_db``),
* charges the SCU the aggregate of the per-op model costs through
  :meth:`repro.isa.scu.Scu.dispatch_binary_batch`, preserving per-op
  stats, SMB behaviour and bit-identical simulated cycles.

Only interpreter overhead is amortized; the modeled hardware cost of a
batch equals that of the equivalent sequential instruction stream.

Union counts are derived from the intersection counts by the identity
``|A ∪ B| = |A| + |B| - |A ∩ B|`` — the one the scalar cardinality
kernel uses, so results match exactly.  Difference counts have no
batched form; they are issued one op at a time
(:meth:`repro.runtime.context.SisaContext.difference_count`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SetError
from repro.sets import kernels
from repro.sets.base import VertexSet
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray


def intersect_counts(a: VertexSet, values: Sequence[VertexSet]) -> np.ndarray:
    """``|A ∩ B_i|`` for every ``B_i``, with zero materialization.

    Sparse operands are concatenated into one flat frontier array and
    counted in a single vectorized pass; dense operands are counted by
    per-set popcounts/bit probes (their words are already contiguous).
    """
    n = len(values)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    if n == 1:
        v = values[0]
        if v.universe != a.universe:
            raise SetError(f"universe mismatch: {a.universe} vs {v.universe}")
        return np.asarray([kernels.intersect_cardinality(a, v)], dtype=np.int64)
    universe = a.universe
    sa_idx: list[int] = []
    sa_arrays: list[np.ndarray] = []
    db_pairs: list[tuple[int, DenseBitvector]] = []
    boundaries = [0]
    total = 0
    for i, v in enumerate(values):
        if v.universe != universe:
            raise SetError(f"universe mismatch: {universe} vs {v.universe}")
        if type(v) is SparseArray:
            arr = v.elements
            total += arr.size
            boundaries.append(total)
            sa_idx.append(i)
            sa_arrays.append(arr)
        else:
            db_pairs.append((i, v))
    if not db_pairs and type(a) is SparseArray:
        # Hot path (all-SA frontier, SA probe): skip the scatter back
        # through an index list.
        flat = np.concatenate(sa_arrays)
        return kernels.intersect_count_flat_sa(
            a.to_array(), flat, np.asarray(boundaries)
        )
    out = np.zeros(n, dtype=np.int64)
    if sa_idx:
        flat = np.concatenate(sa_arrays)
        offsets = np.asarray(boundaries)
        if isinstance(a, DenseBitvector):
            out[sa_idx] = kernels.intersect_count_flat_db(a.words, flat, offsets)
        else:
            out[sa_idx] = kernels.intersect_count_flat_sa(
                a.to_array(), flat, offsets
            )
    if db_pairs:
        if isinstance(a, DenseBitvector):
            for i, v in db_pairs:
                out[i] = kernels.intersect_count_db_db(a, v)
        else:
            arr = a.elements
            if arr.size:
                word_idx = arr // 64
                shift = (arr % 64).astype(np.uint64)
                one = np.uint64(1)
                for i, v in db_pairs:
                    out[i] = int(
                        np.count_nonzero((v.words[word_idx] >> shift) & one)
                    )
    return out


def intersect_values(a: VertexSet, values: Sequence[VertexSet]) -> list[VertexSet]:
    """Materializing batched intersection ``A ∩ B_i`` for every ``B_i``.

    Sparse operands are probed against ``A`` in one vectorized pass;
    each result is a zero-copy slice of the single flattened hit array
    (segment hits preserve the segment's sorted order, so the slices
    are valid sorted SAs as-is).  Dense operands fall back to the
    pairwise kernels — their results stay dense and word-contiguous.
    """
    n = len(values)
    results: list[VertexSet | None] = [None] * n
    if n == 0:
        return []  # type: ignore[return-value]
    universe = a.universe
    sa_idx: list[int] = []
    sa_arrays: list[np.ndarray] = []
    boundaries = [0]
    total = 0
    for i, v in enumerate(values):
        if v.universe != universe:
            raise SetError(f"universe mismatch: {universe} vs {v.universe}")
        if type(v) is SparseArray:
            # Segment hits inherit the segment's order; materialized
            # results must be sorted SAs, so unsorted operands are
            # probed via their sorted view.
            arr = v.elements if v.is_sorted else v.to_array()
            total += arr.size
            boundaries.append(total)
            sa_idx.append(i)
            sa_arrays.append(arr)
        else:
            results[i] = kernels.intersect(a, v)
    if sa_idx:
        flat = np.concatenate(sa_arrays)
        offsets = np.asarray(boundaries)
        if isinstance(a, DenseBitvector):
            mask = kernels._probe_bits(a.words, flat) if flat.size else np.zeros(0, bool)
        else:
            mask = kernels._probe_sorted(a.to_array(), flat)
        hits = flat[mask]
        cum = np.zeros(mask.size + 1, dtype=np.int64)
        np.cumsum(mask, dtype=np.int64, out=cum[1:])
        starts = cum[offsets[:-1]]
        ends = cum[offsets[1:]]
        for j, i in enumerate(sa_idx):
            results[i] = SparseArray.from_sorted(
                hits[starts[j]:ends[j]], universe
            )
    return results  # type: ignore[return-value]


class SetRows:
    """The element rows of a list of sets of one universe, as one CSR.

    Row ``r`` holds the sorted elements of ``values[r]`` (its
    ``to_array()``, the set iterator's order): ``col[indptr[r]:
    indptr[r + 1]]``, ``cards[r]`` of them.
    """

    def __init__(self, values: Sequence[VertexSet]):
        arrays = [
            None if type(v) is DenseBitvector else v.to_array() for v in values
        ]
        dense = [r for r, a in enumerate(arrays) if a is None]
        if dense:
            # Every dense row's elements from one bit unpack.
            bits = np.unpackbits(
                np.stack([values[r].words for r in dense]).view(np.uint8),
                axis=1,
                count=values[dense[0]].universe,
                bitorder="little",
            )
            which, elements = np.nonzero(bits)
            ends = np.cumsum(np.bincount(which, minlength=len(dense)))
            for r, row in zip(dense, np.split(elements, ends[:-1])):
                arrays[r] = row
        n = len(arrays)
        self.cards = np.fromiter((a.size for a in arrays), np.int64, n)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.cards, out=self.indptr[1:])
        self.col = (
            np.concatenate(arrays) if n else np.zeros(0, dtype=np.int64)
        )

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The elements of ``rows``, concatenated in order, and each
        row's end in them."""
        lens = self.cards[rows]
        ends = np.cumsum(lens)
        pos = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
        pos += np.repeat(self.indptr[rows] - (ends - lens), lens)
        return self.col[pos], ends


def chunk_end(
    ops: np.ndarray, volume: np.ndarray, t0: int, max_ops: int, max_volume: int
) -> int:
    """The end of the chunk of tasks that starts at task ``t0``, given
    the tasks' cumulative op counts ``ops`` and probe volumes ``volume``
    (``ops[t]`` before task ``t``): the last task boundary within
    ``max_ops`` ops and ``max_volume`` volume, or ``t0 + 1`` if task
    ``t0`` alone exceeds either."""
    t1 = min(
        int(np.searchsorted(ops, ops[t0] + max_ops, side="right")),
        int(np.searchsorted(volume, volume[t0] + max_volume, side="right")),
    )
    return max(t1 - 1, t0 + 1)


def bfs_tasks(
    rows: SetRows,
    tasks: np.ndarray,
    words: np.ndarray,
    parent: np.ndarray,
    *,
    bottom_up: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run BFS level tasks functionally, in one flat bit probe.

    Task ``v`` (each vertex of ``tasks``, in order) computes ``R_v =
    row v ∩ X``, ``X`` the dense set of ``words``.  Bottom-up, a
    non-empty ``R_v`` makes ``min R_v`` the parent of ``v`` and inserts
    ``v``; top-down, each ``w ∈ R_v`` whose parent is unset and which no
    earlier task inserted gets parent ``v`` and is inserted.  Updates
    ``parent`` in place; returns every ``|R_v|``, each task's insert
    count, and the inserted vertices.
    """
    elements, ends = rows.gather(tasks)
    hit = kernels._probe_bits(words, elements)
    cum = np.zeros(hit.size + 1, dtype=np.int64)
    np.cumsum(hit, out=cum[1:])
    starts = cum[ends - rows.cards[tasks]]
    sizes = cum[ends] - starts
    if bottom_up:
        found = sizes > 0
        inserted = tasks[found]
        parent[inserted] = elements[np.flatnonzero(hit)[starts[found]]]
        return sizes, found.astype(np.int64), inserted
    reached = elements[hit]
    owner = np.repeat(np.arange(tasks.size), sizes)
    keep = np.zeros(reached.size, dtype=bool)
    keep[np.unique(reached, return_index=True)[1]] = True
    keep &= parent[reached] == -1
    inserted = reached[keep]
    parent[inserted] = tasks[owner[keep]]
    return sizes, np.bincount(owner[keep], minlength=tasks.size), inserted


class FanoutRows(SetRows):
    """The element rows of a neighbourhood fan-out, as one CSR.

    Rows as :class:`SetRows`; ``keys`` holds ``r * universe + w`` for
    every element ``w`` of row ``r``; rows are sorted and consecutive,
    so the keys are globally sorted and one binary search answers "is
    ``w`` in row ``r``" for any number of (row, element) pairs at once.

    The elements are vertices naming rows, so row ``v``'s fan-out pairs
    it with every row ``u ∈ row v``; ``volume[v]`` is the probe volume
    (``Σ min(|row v|, |row u|)``, the elements one pair's probe searches)
    of all pairs of rows before ``v``.
    """

    def __init__(self, values: Sequence[VertexSet], universe: int):
        super().__init__(values)
        self.universe = universe
        rows = np.repeat(np.arange(self.cards.size, dtype=np.int64), self.cards)
        self.keys = rows * universe + self.col
        probe = np.zeros(self.col.size + 1, dtype=np.int64)
        np.cumsum(
            np.minimum(self.cards[rows], self.cards[self.col]), out=probe[1:]
        )
        self.volume = probe[self.indptr]

    def chunk_end(self, v0: int, ops: int, volume: int) -> int:
        """The end of the chunk of fan-out rows that starts at ``v0``:
        the last row boundary within ``ops`` pairs and ``volume`` probe
        volume, or ``v0 + 1`` if row ``v0`` alone exceeds either."""
        return chunk_end(self.indptr, self.volume, v0, ops, volume)

    def intersect_counts(
        self, a_rows: np.ndarray, b_rows: np.ndarray
    ) -> np.ndarray:
        """``|row a_i ∩ row b_i|`` for every pair, in one flat probe
        (:func:`~repro.sets.kernels.intersect_count_rows`).  Equals
        :func:`intersect_counts` pair by pair."""
        return kernels.intersect_count_rows(
            self.indptr,
            self.cards,
            self.col,
            self.keys,
            self.universe,
            a_rows,
            b_rows,
        )


def derive_counts(
    op_kind: str,
    a_cardinality: int,
    b_cardinalities: np.ndarray,
    inter: np.ndarray,
) -> np.ndarray:
    """Turn intersection counts into the requested count form."""
    if op_kind == "intersect":
        return inter
    if op_kind == "union":
        return a_cardinality + b_cardinalities - inter
    raise SetError(f"unknown count form {op_kind!r}")
