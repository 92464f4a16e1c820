"""Element-update instructions: scalar round-trips and batched bursts.

Contracts under test:

* ``with_element``/``without_element`` are part of the ``VertexSet``
  base interface (every representation implements them),
* scalar ``insert``/``remove`` round-trips on both SA and DB
  representations and keeps the ``SetMeta`` cardinality in sync,
* ``insert_batch``/``remove_batch`` are functionally identical and
  cycle-identical (stats, SMB, simulated cycles) to the sequential
  scalar stream — batching amortizes Python overhead, not modeled
  cost,
* ``convert_representation`` swaps SA ↔ DB in place, preserving the
  set id, the elements and the metadata.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.context import SisaContext
from repro.sets.base import Representation, VertexSet
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray

UNIVERSE = 96

subsets = st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), max_size=30)
elements = st.lists(
    st.integers(min_value=0, max_value=UNIVERSE - 1), min_size=1, max_size=20
)


class TestBaseInterface:
    def test_update_methods_are_abstract(self):
        assert "with_element" in VertexSet.__abstractmethods__
        assert "without_element" in VertexSet.__abstractmethods__

    @given(start=subsets, xs=elements)
    @settings(max_examples=60, deadline=None)
    def test_bulk_updates_match_scalar_folds(self, start, xs):
        arr = np.asarray(sorted(start), dtype=np.int64)
        xs_arr = np.asarray(xs, dtype=np.int64)
        for value in (
            SparseArray(arr, UNIVERSE),
            SparseArray(arr, UNIVERSE).shuffled(5),
            DenseBitvector.from_elements(arr, UNIVERSE),
        ):
            folded = value
            for x in xs:
                folded = folded.with_element(int(x))
            bulk = value.with_elements(xs_arr)
            assert np.array_equal(bulk.to_array(), folded.to_array())
            assert bulk.representation is folded.representation
            folded = value
            for x in xs:
                folded = folded.without_element(int(x))
            bulk = value.without_elements(xs_arr)
            assert np.array_equal(bulk.to_array(), folded.to_array())
            assert bulk.representation is folded.representation

    @given(start=subsets, xs=elements)
    @settings(max_examples=40, deadline=None)
    def test_contains_many(self, start, xs):
        arr = np.asarray(sorted(start), dtype=np.int64)
        xs_arr = np.asarray(xs, dtype=np.int64)
        expected = np.asarray([x in start for x in xs], dtype=bool)
        for value in (
            SparseArray(arr, UNIVERSE),
            SparseArray(arr, UNIVERSE).shuffled(7),
            DenseBitvector.from_elements(arr, UNIVERSE),
        ):
            assert np.array_equal(value.contains_many(xs_arr), expected)


@pytest.mark.parametrize("dense", [False, True])
def test_scalar_round_trip_keeps_metadata_in_sync(dense):
    """Regression: insert/remove round-trips on SA and DB, with the SM
    cardinality tracking every step."""
    ctx = SisaContext(threads=1)
    sid = ctx.create_set([2, 9, 40], universe=UNIVERSE, dense=dense)
    rep = Representation.DENSE if dense else Representation.SPARSE_SORTED

    ctx.insert(sid, 17)
    assert ctx.sm.meta(sid).cardinality == 4
    assert ctx.sm.meta(sid).cardinality == ctx.value(sid).cardinality
    assert ctx.member(sid, 17)

    ctx.insert(sid, 17)  # no-op insert still dispatches, state unchanged
    assert ctx.sm.meta(sid).cardinality == 4

    ctx.remove(sid, 17)
    assert ctx.sm.meta(sid).cardinality == 3
    assert not ctx.member(sid, 17)

    ctx.remove(sid, 17)  # no-op remove
    assert ctx.sm.meta(sid).cardinality == 3

    assert np.array_equal(ctx.value(sid).to_array(), [2, 9, 40])
    assert ctx.sm.meta(sid).representation is rep
    assert ctx.value(sid).representation is rep


update_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which set
        st.integers(min_value=0, max_value=UNIVERSE - 1),
    ),
    min_size=1,
    max_size=25,
)


class TestBatchedElementUpdates:
    def _fresh(self, mode="sisa"):
        ctx = SisaContext(threads=4, mode=mode)
        sids = [
            ctx.create_set([1, 5, 9, 30], universe=UNIVERSE),
            ctx.create_set([5, 6], universe=UNIVERSE, dense=(mode == "sisa")),
            ctx.create_set([], universe=UNIVERSE),
        ]
        return ctx, sids

    @given(stream=update_streams, insert=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_batch_is_cycle_identical_to_scalar_stream(self, stream, insert):
        for mode in ("sisa", "cpu-set"):
            ctx_b, sids_b = self._fresh(mode)
            ctx_s, sids_s = self._fresh(mode)
            updates_b = [(sids_b[i], x) for i, x in stream]
            for i, x in stream:
                if insert:
                    ctx_s.insert(sids_s[i], x)
                else:
                    ctx_s.remove(sids_s[i], x)
            if insert:
                flags = ctx_b.insert_batch(updates_b)
            else:
                flags = ctx_b.remove_batch(updates_b)
            assert flags.shape == (len(stream),)
            assert ctx_b.runtime_cycles == ctx_s.runtime_cycles
            assert ctx_b.scu.stats == ctx_s.scu.stats
            assert ctx_b.scu.smb.stats.hits == ctx_s.scu.smb.stats.hits
            assert ctx_b.scu.smb.stats.misses == ctx_s.scu.smb.stats.misses
            for sb, ss in zip(sids_b, sids_s):
                assert np.array_equal(
                    ctx_b.value(sb).to_array(), ctx_s.value(ss).to_array()
                )
                assert ctx_b.sm.meta(sb).cardinality == ctx_s.sm.meta(ss).cardinality
                assert (
                    ctx_b.sm.meta(sb).representation
                    is ctx_s.sm.meta(ss).representation
                )

    def test_effect_flags(self):
        ctx, sids = self._fresh()
        flags = ctx.insert_batch(
            [(sids[0], 2), (sids[0], 5), (sids[0], 2), (sids[2], 0)]
        )
        # new, already present, duplicate within burst, new
        assert flags.tolist() == [True, False, False, True]
        flags = ctx.remove_batch(
            [(sids[0], 2), (sids[0], 2), (sids[0], 77)]
        )
        assert flags.tolist() == [True, False, False]

    def test_empty_batch(self):
        ctx, _ = self._fresh()
        before = ctx.runtime_cycles
        assert ctx.insert_batch([]).size == 0
        assert ctx.remove_batch([]).size == 0
        assert ctx.runtime_cycles == before


class TestConvertRepresentation:
    def test_sa_to_db_and_back(self):
        ctx = SisaContext(threads=1)
        sid = ctx.create_set([3, 8, 64], universe=UNIVERSE)
        before = ctx.runtime_cycles
        assert ctx.convert_representation(sid, dense=True)
        assert ctx.runtime_cycles > before
        assert ctx.sm.meta(sid).representation is Representation.DENSE
        assert ctx.sm.meta(sid).cardinality == 3
        assert np.array_equal(ctx.value(sid).to_array(), [3, 8, 64])
        assert ctx.convert_representation(sid, dense=False)
        assert ctx.sm.meta(sid).representation is Representation.SPARSE_SORTED
        assert np.array_equal(ctx.value(sid).to_array(), [3, 8, 64])

    def test_noop_conversion_charges_nothing(self):
        ctx = SisaContext(threads=1)
        sid = ctx.create_set([3, 8], universe=UNIVERSE)
        before = ctx.runtime_cycles
        assert not ctx.convert_representation(sid, dense=False)
        assert ctx.runtime_cycles == before
