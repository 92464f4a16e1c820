"""Shared fixtures for the test suite."""

from contextlib import contextmanager

import networkx as nx
import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.generators import gnp_random_graph
from repro.hw.config import HardwareConfig
from repro.runtime import context as contextmod


@pytest.fixture
def small_graph() -> CSRGraph:
    """A hand-built graph with known structure:

        0-1, 0-2, 1-2 (triangle), 2-3, 3-4, 4-5, 5-3 (triangle), 0-5
    """
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (0, 5)]
    return CSRGraph.from_edges(6, edges)


@pytest.fixture
def random_graph() -> CSRGraph:
    return gnp_random_graph(50, 0.15, seed=11)


@pytest.fixture
def dense_graph() -> CSRGraph:
    return gnp_random_graph(30, 0.5, seed=23)


def to_networkx(graph: CSRGraph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.num_vertices))
    nxg.add_edges_from(map(tuple, graph.edge_array()))
    return nxg


@pytest.fixture
def nx_of():
    return to_networkx


def random_edge_list(n: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    return np.column_stack([src, dst])


#: Machines for the bit-identity oracles: SMB off, SMB of one and two
#: entries, the default, and non-dyadic latencies.
MACHINES = {
    "smb-off": {"smb_enabled": False},
    "smb-1": {"hw": HardwareConfig(smb_entries=1)},
    "smb-2": {"hw": HardwareConfig(smb_entries=2)},
    "default": {},
    # Non-dyadic latencies: per-op cost sums depend on the order of
    # the float additions, which must match the per-burst path's.
    "float-order": {
        "hw": HardwareConfig(
            scu_dispatch_cycles=0.1, sm_hit_cycles=0.3, pnm_random_access_ns=1.7
        )
    },
}


def machine_state(ctx):
    """Everything an instruction stream may touch on ``ctx``, in
    comparable form: engine lanes and lane-time cache, current lane,
    SMB order and counters, stats and ``by_opcode`` order, decision-memo
    keys, trace events, the set-metadata table (registrations, next
    address, live ids, and the free list's records in order) and, with
    observability on, the metrics registry (series in order, wall-clock
    families left out) and the set-size histograms."""
    engine = ctx.engine
    scu = ctx.scu
    sm = ctx.sm
    state = {
        "lanes": [
            (lane.compute_cycles, lane.memory_bytes, lane.latency_cycles, lane.tasks)
            for lane in engine._lanes
        ],
        "lane_times": list(engine._lane_times),
        "current_lane": (engine._current, ctx._current_lane),
        "smb_order": list(scu.smb._entries),
        "smb_stats": scu.smb.stats,
        "stats": scu.stats,
        "by_opcode_order": list(scu.stats.by_opcode),
        "memo_keys": list(scu._decision_memo),
        "trace": ctx.trace.events,
        "sm": (
            sm.registrations,
            sm._next_address,
            list(sm._meta),
            [
                (m.set_id, m.representation, m.cardinality, m.universe, m.address)
                for m in sm._free
            ],
        ),
    }
    if ctx.obs is not None:
        state["metrics"] = {
            name: {**family, "series": list(family["series"].items())}
            for name, family in ctx.obs.registry.snapshot().items()
            if "wall" not in name
        }
        state["set_sizes"] = {k: h.as_dict() for k, h in ctx.obs.set_sizes.items()}
    return state


#: Fan-out chunk budgets ``(ops, probe)`` for the chunked-program
#: oracles: one task per chunk, small chunks, and the defaults.
CHUNK_BUDGETS = [(1, 1), (7, 40), (1024, 16384)]


@contextmanager
def chunk_budgets(ops, probe):
    """Run with the fan-out chunk budgets set to ``ops`` and ``probe``."""
    saved = contextmod.FANOUT_CHUNK_OPS, contextmod.FANOUT_CHUNK_PROBE
    contextmod.FANOUT_CHUNK_OPS, contextmod.FANOUT_CHUNK_PROBE = ops, probe
    try:
        yield
    finally:
        contextmod.FANOUT_CHUNK_OPS, contextmod.FANOUT_CHUNK_PROBE = saved
