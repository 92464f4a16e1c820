"""Unit tests for the SCU dispatch logic and performance models."""

import pytest

from repro.errors import IsaError
from repro.hw.config import HardwareConfig
from repro.isa.metadata import SetMetadataTable
from repro.isa.opcodes import Opcode, SetOp, opcode_uses_pum
from repro.isa.perfmodel import (
    choose_intersection_variant,
    predict_galloping,
    predict_streaming,
)
from repro.isa.scu import Scu
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray

UNIVERSE = 4096


@pytest.fixture
def table():
    return SetMetadataTable()


def register_sa(table, size, *, sorted_=True):
    elements = list(range(size))
    value = SparseArray(elements, UNIVERSE, sorted_=None)
    if not sorted_:
        value = value.shuffled(seed=1)
    return table.register(value), table


def register_db(table, size):
    return table.register(DenseBitvector.from_elements(range(size), UNIVERSE))


class TestPerfModel:
    def test_streaming_model_formula(self):
        hw = HardwareConfig()
        cycles = predict_streaming(hw, 100, 200)
        expected = hw.dram_latency_cycles + (hw.word_bits / 8) * 200 / hw.stream_bytes_per_cycle
        assert cycles == pytest.approx(expected)

    def test_galloping_model_grows_with_small_side(self):
        hw = HardwareConfig()
        assert predict_galloping(hw, 10, 10_000) < predict_galloping(
            hw, 100, 10_000
        )

    def test_auto_picks_gallop_for_skew(self):
        hw = HardwareConfig()
        choice = choose_intersection_variant(hw, 4, 1_000_000)
        assert choice.variant == "galloping"

    def test_auto_picks_merge_for_balance(self):
        hw = HardwareConfig()
        choice = choose_intersection_variant(hw, 5000, 5000)
        assert choice.variant == "merge"

    def test_threshold_override(self):
        hw = HardwareConfig()
        # Ratio 10 with threshold 100: stay with merge.
        assert (
            choose_intersection_variant(hw, 10, 100, gallop_threshold=100).variant
            == "merge"
        )
        # Same sizes with threshold 5: gallop.
        assert (
            choose_intersection_variant(hw, 10, 100, gallop_threshold=5).variant
            == "galloping"
        )


class TestDispatch:
    def test_db_pair_goes_to_pum(self, table):
        scu = Scu(HardwareConfig())
        a = register_db(table, 50)
        b = register_db(table, 80)
        dispatch = scu.dispatch_binary(
            SetOp.INTERSECT, table.meta(a), table.meta(b)
        )
        assert dispatch.backend == "pum"
        assert dispatch.opcode == Opcode.INTERSECT_DB_DB
        assert opcode_uses_pum(dispatch.opcode)
        assert scu.stats.pum_ops == 1

    def test_mixed_pair_goes_to_pnm(self, table):
        scu = Scu(HardwareConfig())
        a, __ = register_sa(table, 50)
        b = register_db(table, 80)
        dispatch = scu.dispatch_binary(
            SetOp.INTERSECT, table.meta(a), table.meta(b)
        )
        assert dispatch.backend == "pnm"
        assert dispatch.opcode == Opcode.INTERSECT_SA_DB

    def test_sparse_pair_picks_variant(self, table):
        scu = Scu(HardwareConfig())
        a, __ = register_sa(table, 4)
        b, __ = register_sa(table, 4000)
        dispatch = scu.dispatch_binary(
            SetOp.INTERSECT, table.meta(a), table.meta(b)
        )
        assert dispatch.variant == "galloping"
        assert dispatch.opcode == Opcode.INTERSECT_SA_SA_GALLOP

    def test_unsorted_large_side_forces_merge(self, table):
        scu = Scu(HardwareConfig())
        a, __ = register_sa(table, 4)
        big = SparseArray(list(range(4000)), UNIVERSE).shuffled(seed=2)
        b = table.register(big)
        dispatch = scu.dispatch_binary(
            SetOp.INTERSECT, table.meta(a), table.meta(b)
        )
        assert dispatch.variant == "merge"

    def test_union_never_gallops(self, table):
        scu = Scu(HardwareConfig())
        a, __ = register_sa(table, 4)
        b, __ = register_sa(table, 4000)
        dispatch = scu.dispatch_binary(SetOp.UNION, table.meta(a), table.meta(b))
        assert dispatch.opcode == Opcode.UNION_SA_SA_MERGE

    def test_difference_db_pair_costs_two_insitu_ops(self, table):
        hw = HardwareConfig()
        scu = Scu(hw)
        a = register_db(table, 10)
        b = register_db(table, 10)
        inter = scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        diff = scu.dispatch_binary(SetOp.DIFFERENCE, table.meta(a), table.meta(b))
        assert diff.cost.latency_cycles > inter.cost.latency_cycles

    def test_host_fallback_routes_to_host(self, table):
        scu = Scu(HardwareConfig(), host_fallback=True)
        a = register_db(table, 10)
        b = register_db(table, 10)
        dispatch = scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        assert dispatch.backend == "host"
        assert scu.stats.host_ops == 1
        assert scu.stats.pum_ops == 0

    def test_invalid_op_rejected(self, table):
        scu = Scu(HardwareConfig())
        a = register_db(table, 10)
        b = register_db(table, 10)
        with pytest.raises(IsaError):
            scu.dispatch_binary(SetOp.MEMBER, table.meta(a), table.meta(b))

    def test_cardinality_is_metadata_only(self, table):
        scu = Scu(HardwareConfig())
        a = register_db(table, 10)
        dispatch = scu.dispatch_cardinality(table.meta(a))
        assert dispatch.backend == "scu"
        assert dispatch.cost.memory_bytes == 0

    def test_element_update_db_vs_sa(self, table):
        scu = Scu(HardwareConfig())
        a = register_db(table, 10)
        b, __ = register_sa(table, 1000)
        db_up = scu.dispatch_element_update(table.meta(a), insert=True)
        sa_up = scu.dispatch_element_update(table.meta(b), insert=True)
        assert db_up.opcode == Opcode.INSERT_DB
        assert sa_up.opcode == Opcode.INSERT_SA
        assert sa_up.cost.memory_bytes > db_up.cost.memory_bytes

    def test_smb_caching_reduces_cost(self, table):
        hw = HardwareConfig()
        scu = Scu(hw)
        a = register_db(table, 10)
        b = register_db(table, 10)
        first = scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        second = scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        assert second.cost.latency_cycles < first.cost.latency_cycles

    def test_smb_disabled_always_misses(self, table):
        scu = Scu(HardwareConfig(), smb_enabled=False)
        a = register_db(table, 10)
        b = register_db(table, 10)
        scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        assert scu.smb.stats.hits == 0

    def test_opcode_counters(self, table):
        scu = Scu(HardwareConfig())
        a = register_db(table, 10)
        b = register_db(table, 10)
        scu.dispatch_binary(SetOp.INTERSECT, table.meta(a), table.meta(b))
        scu.dispatch_cardinality(table.meta(a))
        assert scu.stats.instructions == 2
        assert scu.stats.by_opcode[Opcode.INTERSECT_DB_DB] == 1


class TestFusedBurst:
    """The fused charging rule in closed form: with the SMB off every
    lookup misses, so each op's cost follows from its :meth:`Scu._decide`
    cost alone."""

    # Non-dyadic latencies, so a sum composed in another order shows.
    HW = HardwareConfig(
        scu_dispatch_cycles=0.1, sm_hit_cycles=0.3, pnm_random_access_ns=1.7
    )

    @pytest.mark.parametrize("probe_dense", [False, True])
    @pytest.mark.parametrize("include_decode", [True, False])
    @pytest.mark.parametrize("op", [SetOp.INTERSECT_COUNT, SetOp.UNION_COUNT])
    def test_costs_follow_the_charging_rule(
        self, table, op, include_decode, probe_dense
    ):
        hw = self.HW
        a = register_db(table, 300) if probe_dense else register_sa(table, 40)[0]
        bs = [
            register_sa(table, 12)[0],
            register_db(table, 900),
            register_sa(table, 2000)[0],
            register_sa(table, 40)[0],
            register_db(table, 5),
        ]
        meta_a = table.meta(a)
        metas = [table.meta(b) for b in bs]
        scu = Scu(hw, smb_enabled=False)
        fused = scu.dispatch_binary_batch(
            op, meta_a, metas, count_only=True, include_decode=include_decode
        )
        unfused = Scu(hw, smb_enabled=False).dispatch_binary_batch(
            op, meta_a, metas, count_only=True
        )
        costs = [
            Scu(hw, smb_enabled=False)._decide(op, meta_a, m, 0, True)[3]
            for m in metas
        ]
        miss = hw.pnm_random_access_cycles
        decode = hw.scu_dispatch_cycles if include_decode else 0.0
        assert fused.compute == [decode + costs[0].compute_cycles] + [
            c.compute_cycles for c in costs[1:]
        ]
        assert fused.latency == [2 * miss + costs[0].latency_cycles] + [
            miss + c.latency_cycles for c in costs[1:]
        ]
        assert fused.memory == [c.memory_bytes for c in costs]
        assert fused.opcodes == unfused.opcodes
        assert fused.backends == unfused.backends
        assert fused.variants == unfused.variants
        assert scu.smb.stats.misses == 1 + len(bs)
        assert scu.stats.instructions == len(bs)
        assert scu.stats.fused_macros == int(include_decode)

    def test_host_fallback_cannot_fuse(self, table):
        scu = Scu(self.HW, host_fallback=True)
        a = register_db(table, 10)
        with pytest.raises(IsaError):
            scu.dispatch_binary_batch(
                SetOp.INTERSECT_COUNT,
                table.meta(a),
                [table.meta(a)],
                count_only=True,
                include_decode=True,
            )


class TestMetadataTable:
    def test_register_and_lookup(self, table):
        sid = table.register(SparseArray([1, 2], UNIVERSE))
        assert table.meta(sid).cardinality == 2
        assert sid in table

    def test_update_changes_representation(self, table):
        sid = table.register(SparseArray([1, 2], UNIVERSE))
        table.update(sid, DenseBitvector.from_elements([1, 2, 3], UNIVERSE))
        assert table.meta(sid).is_dense
        assert table.meta(sid).cardinality == 3

    def test_delete(self, table):
        sid = table.register(SparseArray([1], UNIVERSE))
        table.delete(sid)
        assert sid not in table
        from repro.errors import SetError

        with pytest.raises(SetError):
            table.meta(sid)

    def test_unique_ids(self, table):
        ids = {table.register(SparseArray([i], UNIVERSE)) for i in range(10)}
        assert len(ids) == 10
