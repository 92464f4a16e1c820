"""Functional kernels for set operations across representations.

Each kernel computes the exact result of a set operation for a specific
pair of representations.  These are the *functional* halves of the SISA
instructions in Table 5 of the paper; the *timing* halves live in
``repro.isa.perfmodel``.  Every kernel is pure: inputs are never
mutated and results are new set objects.

Output-representation convention (matches the paper's Figure 4 flow):

* DB op DB  -> DB (in-situ bulk bitwise),
* anything involving an SA -> SA (produced by a near-memory core).

All SA kernels exploit the sorted invariant: neighborhood SAs are
sorted, so membership probes of a sorted probe array produce hits that
are already in order and never need re-sorting.  The count-only
kernels (``*_cardinality`` plus the per-pair ``*_count_*`` functions)
realize the paper's Section 6.2.3 cardinality-of-result instructions:
they return the result size without allocating a result set for *any*
representation pair.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SetError
from repro.sets.base import Representation, VertexSet
from repro.sets.bitops import popcount
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import ELEMENT_DTYPE, SparseArray


def _check_universe(a: VertexSet, b: VertexSet) -> int:
    if a.universe != b.universe:
        raise SetError(
            f"universe mismatch: {a.universe} vs {b.universe}"
        )
    return a.universe


def _probe_sorted(haystack: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask over ``needles``: which occur in sorted ``haystack``.

    One vectorized binary-search pass; ``needles`` may be unsorted.
    """
    if haystack.size == 0 or needles.size == 0:
        return np.zeros(needles.size, dtype=bool)
    idx = np.searchsorted(haystack, needles)
    np.minimum(idx, haystack.size - 1, out=idx)
    return haystack[idx] == needles


def _probe_bits(words: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Boolean mask over ``needles``: which bits are set in a DB's words."""
    bits = (words[needles // 64] >> (needles % 64).astype(np.uint64)) & np.uint64(1)
    return bits.astype(bool)


def _merge_sorted_disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted, *disjoint* arrays into one sorted array.

    Scatter-based: the final slot of ``a[i]`` is ``i`` plus the number
    of ``b`` elements below it (and symmetrically for ``b``), so two
    ``searchsorted`` passes replace the concatenate-and-resort that
    ``np.union1d`` would do.
    """
    out = np.empty(a.size + b.size, dtype=ELEMENT_DTYPE)
    out[np.arange(a.size) + np.searchsorted(b, a)] = a
    out[np.arange(b.size) + np.searchsorted(a, b)] = b
    return out


# ---------------------------------------------------------------------------
# Intersection
# ---------------------------------------------------------------------------

def intersect_merge(a: SparseArray, b: SparseArray) -> SparseArray:
    """Merge-based SA intersection: O(|A| + |B|) streaming (opcode 0x0).

    Functionally realized as a membership probe of the smaller sorted
    array into the larger (the output is identical to a two-pointer
    merge); hits of a sorted probe array are already sorted, so no
    re-sort is needed.
    """
    n = _check_universe(a, b)
    arr_a, arr_b = a.to_array(), b.to_array()
    small, big = (arr_a, arr_b) if arr_a.size <= arr_b.size else (arr_b, arr_a)
    return SparseArray.from_sorted(small[_probe_sorted(big, small)], n)


def intersect_gallop(a: SparseArray, b: SparseArray) -> SparseArray:
    """Galloping SA intersection, O(min * log max) (opcode 0x1).

    Search strategy: one vectorized binary search (``searchsorted``) of
    every element of the smaller set into the larger sorted set — the
    batched equivalent of per-element galloping; the timing model
    (``repro.isa.perfmodel``) prices it as ``l_M * min * log2(max)``.
    The smaller operand is probed in storage order, so when it is a
    sorted SA the hits come out sorted and the final sort is skipped.
    """
    n = _check_universe(a, b)
    small, big = (a, b) if a.cardinality <= b.cardinality else (b, a)
    small_arr = small.elements
    hits = small_arr[_probe_sorted(big.to_array(), small_arr)]
    if not small.is_sorted:
        hits = np.sort(hits)
    return SparseArray.from_sorted(hits, n)


def intersect_sa_db(a: SparseArray, b: DenseBitvector) -> SparseArray:
    """SA ∩ DB: iterate the SA, O(1) bit probes into the DB (opcode 0x3).

    Probe hits preserve the SA's storage order, so a sorted input SA
    yields sorted hits with no extra sort.
    """
    n = _check_universe(a, b)
    arr = a.elements
    if arr.size == 0:
        return SparseArray.empty(n)
    hits = arr[_probe_bits(b.words, arr)]
    if not a.is_sorted:
        hits = np.sort(hits)
    return SparseArray.from_sorted(hits, n)


def intersect_db_db(a: DenseBitvector, b: DenseBitvector) -> DenseBitvector:
    """DB ∩ DB: in-situ bulk bitwise AND (opcode 0x4)."""
    n = _check_universe(a, b)
    return DenseBitvector(a.words & b.words, n)


# ---------------------------------------------------------------------------
# Union
# ---------------------------------------------------------------------------

def union_merge(a: SparseArray, b: SparseArray) -> SparseArray:
    """SA ∪ SA via probe + scatter-merge of the sorted inputs (no
    concatenate-and-resort as in ``np.union1d``)."""
    n = _check_universe(a, b)
    arr_a, arr_b = a.to_array(), b.to_array()
    b_only = arr_b[~_probe_sorted(arr_a, arr_b)]
    return SparseArray.from_sorted(_merge_sorted_disjoint(arr_a, b_only), n)


def union_sa_db(a: SparseArray, b: DenseBitvector) -> DenseBitvector:
    """SA ∪ DB: set one bit per SA element (result stays dense)."""
    n = _check_universe(a, b)
    words = b.words.copy()
    arr = a.elements
    if arr.size:
        np.bitwise_or.at(
            words, arr // 64, np.uint64(1) << (arr % 64).astype(np.uint64)
        )
    return DenseBitvector(words, n)


def union_db_db(a: DenseBitvector, b: DenseBitvector) -> DenseBitvector:
    """DB ∪ DB: in-situ bulk bitwise OR."""
    n = _check_universe(a, b)
    return DenseBitvector(a.words | b.words, n)


# ---------------------------------------------------------------------------
# Difference (A \ B)
# ---------------------------------------------------------------------------

def difference_merge(a: SparseArray, b: SparseArray) -> SparseArray:
    """SA \\ SA: membership probe of A into B, keep the misses."""
    n = _check_universe(a, b)
    arr_a = a.to_array()
    return SparseArray.from_sorted(arr_a[~_probe_sorted(b.to_array(), arr_a)], n)


def difference_gallop(a: SparseArray, b: SparseArray) -> SparseArray:
    """Galloping difference: binary-search each element of A in B (same
    vectorized ``searchsorted`` strategy as :func:`intersect_gallop`).
    A sorted A yields sorted survivors, skipping the final sort."""
    n = _check_universe(a, b)
    arr = a.elements
    keep = arr[~_probe_sorted(b.to_array(), arr)]
    if not a.is_sorted:
        keep = np.sort(keep)
    return SparseArray.from_sorted(keep, n)


def difference_sa_db(a: SparseArray, b: DenseBitvector) -> SparseArray:
    """SA \\ DB: iterate A with O(1) bit probes (order-preserving, so a
    sorted A needs no re-sort)."""
    n = _check_universe(a, b)
    arr = a.elements
    if arr.size == 0:
        return SparseArray.empty(n)
    keep = arr[~_probe_bits(b.words, arr)]
    if not a.is_sorted:
        keep = np.sort(keep)
    return SparseArray.from_sorted(keep, n)


def difference_db_sa(a: DenseBitvector, b: SparseArray) -> DenseBitvector:
    """DB \\ SA: clear one bit per SA element."""
    n = _check_universe(a, b)
    words = a.words.copy()
    arr = b.elements
    if arr.size:
        np.bitwise_and.at(
            words, arr // 64, ~(np.uint64(1) << (arr % 64).astype(np.uint64))
        )
    return DenseBitvector(words, n)


def difference_db_db(a: DenseBitvector, b: DenseBitvector) -> DenseBitvector:
    """DB \\ DB via the set-algebra rule A \\ B = A ∩ B' (paper §8.1:
    in-situ NOT then AND)."""
    n = _check_universe(a, b)
    return DenseBitvector(a.words & ~b.words, n)


# ---------------------------------------------------------------------------
# Count-only kernels (§6.2.3): result sizes with zero materialization
# ---------------------------------------------------------------------------

def intersect_count_sa_sa(a: SparseArray, b: SparseArray) -> int:
    """|A ∩ B| for two SAs: probe the smaller into the larger and count
    hits — no result array is ever allocated."""
    small, big = (a, b) if a.cardinality <= b.cardinality else (b, a)
    return int(np.count_nonzero(_probe_sorted(big.to_array(), small.elements)))


def intersect_count_sa_db(a: SparseArray, b: DenseBitvector) -> int:
    """|A ∩ B| for SA vs DB: count set bits under the SA's elements."""
    arr = a.elements
    if arr.size == 0:
        return 0
    return int(np.count_nonzero(_probe_bits(b.words, arr)))


def intersect_count_db_db(a: DenseBitvector, b: DenseBitvector) -> int:
    """|A ∩ B| for two DBs: popcount of the bitwise AND."""
    return int(popcount(a.words & b.words).sum())


def intersect_cardinality(a: VertexSet, b: VertexSet) -> int:
    """``|A ∩ B|`` without materializing the result (paper §6.2.3:
    dedicated cardinality-of-result instructions avoid intermediates).
    True for every representation pair — no kernel here allocates a
    result set."""
    _check_universe(a, b)
    if isinstance(a, DenseBitvector):
        if isinstance(b, DenseBitvector):
            return intersect_count_db_db(a, b)
        return intersect_count_sa_db(b, a)
    if isinstance(b, DenseBitvector):
        return intersect_count_sa_db(a, b)
    return intersect_count_sa_sa(a, b)


def union_cardinality(a: VertexSet, b: VertexSet) -> int:
    """``|A ∪ B| = |A| + |B| - |A ∩ B|``."""
    return a.cardinality + b.cardinality - intersect_cardinality(a, b)


def difference_cardinality(a: VertexSet, b: VertexSet) -> int:
    """``|A \\ B| = |A| - |A ∩ B|``."""
    return a.cardinality - intersect_cardinality(a, b)


# ---------------------------------------------------------------------------
# Batched count primitives: one vectorized pass over a whole frontier
# ---------------------------------------------------------------------------

def _segment_counts(hits: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment hit counts for concatenated segments.

    ``offsets`` is a CSR-style boundary array of length ``k + 1``; the
    cumulative-sum formulation handles empty segments (which
    ``np.add.reduceat`` would mishandle)."""
    cum = np.zeros(hits.size + 1, dtype=np.int64)
    np.cumsum(hits, dtype=np.int64, out=cum[1:])
    return cum[offsets[1:]] - cum[offsets[:-1]]


def intersect_count_flat_sa(
    probe_sorted: np.ndarray, flat: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``|P ∩ S_i|`` for every segment ``S_i`` of ``flat``.

    ``flat`` concatenates the element arrays of many SAs (CSR-style
    boundaries in ``offsets``); one ``searchsorted`` pass over the whole
    frontier replaces per-set kernel launches."""
    if flat.size == 0 or probe_sorted.size == 0:
        return np.zeros(offsets.size - 1, dtype=np.int64)
    return _segment_counts(_probe_sorted(probe_sorted, flat), offsets)


def intersect_count_flat_db(
    words: np.ndarray, flat: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``|P ∩ S_i|`` where P is a dense bitvector: one vectorized bit
    probe of the whole concatenated frontier."""
    if flat.size == 0:
        return np.zeros(offsets.size - 1, dtype=np.int64)
    return _segment_counts(_probe_bits(words, flat), offsets)


def intersect_count_rows(
    indptr: np.ndarray,
    cards: np.ndarray,
    col: np.ndarray,
    keys: np.ndarray,
    width: int,
    a_rows: np.ndarray,
    b_rows: np.ndarray,
) -> np.ndarray:
    """``|row a_i ∩ row b_i|`` for every pair of rows of one CSR, in one
    flat probe.

    Row ``r`` is ``col[indptr[r]:indptr[r + 1]]`` (sorted, ``cards[r]``
    elements, each below ``width``) and ``keys`` holds ``r * width + w``
    for every element ``w`` of row ``r``, so the keys are globally
    sorted.  The smaller row of each pair is searched among the larger
    row's keys."""
    ca = cards[a_rows]
    cb = cards[b_rows]
    swap = ca > cb
    small = np.where(swap, b_rows, a_rows)
    big = np.where(swap, a_rows, b_rows)
    lens = np.minimum(ca, cb)
    ends = np.cumsum(lens)
    starts = ends - lens
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.zeros(a_rows.size, dtype=np.int64)
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(indptr[small] - starts, lens)
    probe = col[pos]
    probe += np.repeat(big * width, lens)
    idx = np.searchsorted(keys, probe)
    np.minimum(idx, keys.size - 1, out=idx)
    hit = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(keys[idx] == probe, out=hit[1:])
    return hit[ends] - hit[starts]


# ---------------------------------------------------------------------------
# Generic dispatch (functional semantics; the SCU handles timing)
# ---------------------------------------------------------------------------

def intersect(a: VertexSet, b: VertexSet) -> VertexSet:
    if isinstance(a, DenseBitvector) and isinstance(b, DenseBitvector):
        return intersect_db_db(a, b)
    if isinstance(a, SparseArray) and isinstance(b, DenseBitvector):
        return intersect_sa_db(a, b)
    if isinstance(a, DenseBitvector) and isinstance(b, SparseArray):
        return intersect_sa_db(b, a)
    assert isinstance(a, SparseArray) and isinstance(b, SparseArray)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
    return intersect_merge(a, b)


def union(a: VertexSet, b: VertexSet) -> VertexSet:
    if isinstance(a, DenseBitvector) and isinstance(b, DenseBitvector):
        return union_db_db(a, b)
    if isinstance(a, SparseArray) and isinstance(b, DenseBitvector):
        return union_sa_db(a, b)
    if isinstance(a, DenseBitvector) and isinstance(b, SparseArray):
        return union_sa_db(b, a)
    assert isinstance(a, SparseArray) and isinstance(b, SparseArray)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
    return union_merge(a, b)


def difference(a: VertexSet, b: VertexSet) -> VertexSet:
    if isinstance(a, DenseBitvector) and isinstance(b, DenseBitvector):
        return difference_db_db(a, b)
    if isinstance(a, SparseArray) and isinstance(b, DenseBitvector):
        return difference_sa_db(a, b)
    if isinstance(a, DenseBitvector) and isinstance(b, SparseArray):
        return difference_db_sa(a, b)
    assert isinstance(a, SparseArray) and isinstance(b, SparseArray)  # repolint: disable=library-assert -- kernel-internal dispatch invariant
    return difference_merge(a, b)
