"""Equivalence suite for batched and count-only set instructions.

The contract under test (ISSUE: batched set-instruction execution
engine + zero-materialization counting fast path):

* count-form ops return the same numbers as materializing ops for all
  representation pairs (sorted SA, unsorted SA, DB) without allocating
  a result set,
* batched execution is bit-identical to sequential execution in
  functional outputs, simulated cycles, SCU stats, SMB behaviour and
  traces — batching amortizes Python overhead, not modeled cost,
* the batched algorithm kernels agree with independent references.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bfs import bfs_on
from repro.algorithms.clustering import jarvis_patrick_on
from repro.algorithms.common import oriented_setgraph
from repro.algorithms import kclique as kcliquemod
from repro.algorithms.common import PatternBudget
from repro.algorithms.kclique import four_clique_count_on, kclique_count_on
from repro.algorithms.similarity import (
    COUNT_MEASURES,
    all_pairs_similarity_on,
    similarity_batch_on,
    similarity_on,
)
from repro.algorithms.triangles import triangle_count_oriented
from repro.baselines.nonset import (
    bfs_nonset,
    four_clique_count_nonset,
    kclique_count_nonset,
    triangle_count_nonset,
)
from repro.graphs.generators import gnp_random_graph, kronecker_graph
from repro.observability import Observability
from repro.runtime import batch as batchmod
from repro.runtime import context as contextmod
from repro.runtime.context import FANOUT_CHUNK_OPS, MODES, SisaContext
from repro.runtime.setgraph import SetGraph
from repro.session import SisaSession
from repro.sets import kernels
from repro.sets.bitops import _popcount_unpackbits, popcount
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray

from conftest import CHUNK_BUDGETS, MACHINES, chunk_budgets, machine_state

UNIVERSE = 96

subsets = st.sets(st.integers(min_value=0, max_value=UNIVERSE - 1), max_size=40)


def sa(elements, *, shuffle_seed=None):
    s = SparseArray(np.asarray(sorted(elements), dtype=np.int64), UNIVERSE)
    if shuffle_seed is not None:
        s = s.shuffled(shuffle_seed)
    return s


def db(elements):
    return DenseBitvector.from_elements(np.asarray(sorted(elements)), UNIVERSE)


def variants(elements):
    """The three storage variants of one logical set."""
    return [sa(elements), sa(elements, shuffle_seed=3), db(elements)]


class TestCountKernels:
    """Count-form kernels agree with set semantics for every pair."""

    @given(subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_intersect_cardinality_all_pairs(self, a, b):
        for va in variants(a):
            for vb in variants(b):
                assert kernels.intersect_cardinality(va, vb) == len(a & b)

    @given(subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_union_cardinality_all_pairs(self, a, b):
        for va in variants(a):
            for vb in variants(b):
                assert kernels.union_cardinality(va, vb) == len(a | b)

    @given(subsets, subsets)
    @settings(max_examples=40, deadline=None)
    def test_difference_cardinality_all_pairs(self, a, b):
        for va in variants(a):
            for vb in variants(b):
                assert kernels.difference_cardinality(va, vb) == len(a - b)

    def test_counts_allocate_no_result_set(self, monkeypatch):
        """The §6.2.3 contract: no VertexSet is constructed by a
        count-form instruction, for any representation pair."""

        pairs = [
            (va, vb)
            for va in variants({1, 2, 3, 40})
            for vb in variants({2, 3, 70})
        ]

        def boom(*args, **kwargs):
            raise AssertionError("count op materialized a result set")

        monkeypatch.setattr(SparseArray, "__init__", boom)
        monkeypatch.setattr(DenseBitvector, "__init__", boom)
        for va, vb in pairs:
            assert kernels.intersect_cardinality(va, vb) == 2
            assert kernels.union_cardinality(va, vb) == 5
            assert kernels.difference_cardinality(va, vb) == 2

    def test_context_counts_allocate_no_result_set(self, monkeypatch):
        ctx = SisaContext(threads=2)
        ids = [
            ctx.create_set([1, 2, 3], universe=50),
            ctx.create_set([2, 3, 4], universe=50, dense=True),
            ctx.create_set([3, 4, 5], universe=50),
        ]

        def boom(*args, **kwargs):
            raise AssertionError("count op materialized a result set")

        monkeypatch.setattr(SparseArray, "__init__", boom)
        monkeypatch.setattr(DenseBitvector, "__init__", boom)
        assert ctx.intersect_count(ids[0], ids[1]) == 2
        assert ctx.union_count(ids[0], ids[2]) == 5
        assert ctx.difference_count(ids[1], ids[0]) == 1
        assert list(ctx.intersect_count_batch(ids[0], ids[1:])) == [2, 1]
        assert list(ctx.union_count_batch(ids[0], ids[1:])) == [4, 5]

    def test_popcount_fallback_matches_numpy(self):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**63, size=37, dtype=np.uint64)
        assert np.array_equal(
            np.asarray(_popcount_unpackbits(words), dtype=np.int64),
            np.asarray(popcount(words), dtype=np.int64),
        )
        empty = np.zeros(0, dtype=np.uint64)
        assert _popcount_unpackbits(empty).size == 0

    @given(subsets, st.lists(subsets, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_flat_batch_counts(self, a, bs):
        """The one-pass flat kernels equal per-pair counts."""
        for va in (sa(a), db(a)):
            values = [v for b in bs for v in (sa(b), sa(b, shuffle_seed=7), db(b))]
            got = batchmod.intersect_counts(va, values)
            expected = [kernels.intersect_cardinality(va, v) for v in values]
            assert list(got) == expected


def _mixed_context(seed=0, threads=4, mode="sisa", trace=False, observability=None):
    """A context with a spread of sorted-SA / unsorted-SA / DB sets."""
    rng = np.random.default_rng(seed)
    ctx = SisaContext(
        threads=threads, mode=mode, trace=trace, observability=observability
    )
    ids = []
    for i in range(36):
        k = int(rng.integers(0, 50))
        elems = rng.choice(150, size=k, replace=False)
        if i % 4 == 0:
            ids.append(ctx.create_set(elems, universe=150, dense=True))
        elif i % 4 == 1:
            ids.append(ctx.create_set(elems, universe=150, sorted_=False))
        else:
            ids.append(ctx.create_set(np.sort(elems), universe=150))
    return ctx, ids


class TestBatchSequentialEquivalence:
    """Batched execution == sequential execution, bit for bit."""

    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    @pytest.mark.parametrize(
        "batch_name,scalar_name",
        [
            ("intersect_count_batch", "intersect_count"),
            ("union_count_batch", "union_count"),
        ],
    )
    def test_count_batch_matches_scalar(self, mode, batch_name, scalar_name):
        ctx_b, ids_b = _mixed_context(mode=mode, trace=True)
        ctx_s, ids_s = _mixed_context(mode=mode, trace=True)
        a_b, a_s = ids_b[5], ids_s[5]
        bs_b, bs_s = ids_b[1:], ids_s[1:]
        ctx_b.begin_task()
        got = getattr(ctx_b, batch_name)(a_b, bs_b)
        ctx_s.begin_task()
        scalar_op = getattr(ctx_s, scalar_name)
        expected = [scalar_op(a_s, b) for b in bs_s]
        assert list(got) == expected
        assert ctx_b.runtime_cycles == ctx_s.runtime_cycles
        assert ctx_b.scu.stats == ctx_s.scu.stats
        assert ctx_b.scu.smb.stats == ctx_s.scu.smb.stats
        assert ctx_b.trace.events == ctx_s.trace.events

    def test_intersect_batch_matches_scalar(self):
        ctx_b, ids_b = _mixed_context(seed=2, trace=True)
        ctx_s, ids_s = _mixed_context(seed=2, trace=True)
        a_b, a_s = ids_b[8], ids_s[8]
        ctx_b.begin_task()
        got_ids = ctx_b.intersect_batch(a_b, ids_b[:20])
        ctx_s.begin_task()
        exp_ids = [ctx_s.intersect(a_s, b) for b in ids_s[:20]]
        assert got_ids == exp_ids
        for g, e in zip(got_ids, exp_ids):
            assert np.array_equal(
                ctx_b.value(g).to_array(), ctx_s.value(e).to_array()
            )
            assert type(ctx_b.value(g)) is type(ctx_s.value(e))
        assert ctx_b.runtime_cycles == ctx_s.runtime_cycles
        assert ctx_b.scu.stats == ctx_s.scu.stats
        assert ctx_b.trace.events == ctx_s.trace.events

    def test_empty_batch_charges_nothing(self):
        ctx, ids = _mixed_context()
        before = ctx.runtime_cycles
        instr = ctx.instruction_count
        assert ctx.intersect_count_batch(ids[0], []).size == 0
        assert ctx.intersect_batch(ids[0], []) == []
        assert ctx.runtime_cycles == before
        assert ctx.instruction_count == instr


class TestFusedCountBurst:
    """A fused-macro constituent against the unfused batch over the same
    frontier: the same counts, opcodes and trace; only the per-op
    dispatch and probe-metadata fetches are elided."""

    @pytest.mark.parametrize("include_decode", [True, False])
    @pytest.mark.parametrize("kind", ["intersect", "union"])
    def test_matches_the_unfused_batch(self, kind, include_decode):
        unfused = {
            "intersect": SisaContext.intersect_count_batch,
            "union": SisaContext.union_count_batch,
        }[kind]
        runs = []
        for fused in (True, False):
            ctx, ids = _mixed_context(
                seed=4, trace=True, observability=Observability()
            )
            ctx.begin_task()
            if fused:
                counts = ctx.count_burst(
                    ids[5], ids[1:], kind=kind, include_decode=include_decode
                )
            else:
                counts = unfused(ctx, ids[5], ids[1:])
            kernels_opened = [
                span.name
                for span in ctx.obs.spans.roots
                if span.name.startswith("kernel:")
            ]
            runs.append((ctx, counts, kernels_opened))
        (ctx_f, counts_f, spans_f), (ctx_u, counts_u, spans_u) = runs
        assert list(counts_f) == list(counts_u)
        assert ctx_f.trace.events == ctx_u.trace.events
        assert list(ctx_f.scu.stats.by_opcode.items()) == list(
            ctx_u.scu.stats.by_opcode.items()
        )
        assert ctx_f.scu.stats.fused_macros == int(include_decode)
        assert ctx_u.scu.stats.fused_macros == 0
        assert ctx_f.runtime_cycles < ctx_u.runtime_cycles
        assert spans_f == [f"kernel:fused_{kind}"]
        assert spans_u == [f"kernel:{kind}_count"]


@pytest.fixture(scope="module")
def graph():
    return gnp_random_graph(60, 0.2, seed=9)


class TestAlgorithmEquivalence:
    """Batched kernels against independent references: the non-set
    baselines for counts and the per-pair similarity stream for scores.
    Two fresh contexts must also replay bit-identically."""

    @staticmethod
    def _replay(kernel, graph, mode="sisa"):
        runs = []
        for _ in range(2):
            ctx = SisaContext(threads=8, mode=mode)
            __, sg = oriented_setgraph(graph, ctx)
            out = kernel(ctx, sg)
            runs.append((out, ctx.runtime_cycles, ctx.opcode_counts()))
        assert runs[0] == runs[1]
        return runs[0][0]

    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_triangles(self, graph, mode):
        out = self._replay(
            lambda ctx, sg: triangle_count_oriented(sg, ctx), graph, mode
        )
        assert out == triangle_count_nonset(graph).output

    def test_four_clique(self, graph):
        out = self._replay(four_clique_count_on, graph)
        assert out == four_clique_count_nonset(graph).output

    def test_kclique_fast_path(self, graph):
        out = self._replay(lambda ctx, sg: kclique_count_on(ctx, sg, 4), graph)
        assert out == kclique_count_nonset(graph, 4).output

    def test_kclique_fast_path_matches_materializing_recursion(self, graph):
        """The counting fast path must not change the functional count
        relative to the full materializing recursion (forced via
        collect, which disables the fast path)."""
        ctx = SisaContext(threads=4)
        __, sg = oriented_setgraph(graph, ctx)
        fast = kclique_count_on(ctx, sg, 4)
        ctx2 = SisaContext(threads=4)
        __, sg2 = oriented_setgraph(graph, ctx2)
        listed = kclique_count_on(ctx2, sg2, 4, collect=True)
        assert fast == len(listed)

    @pytest.mark.parametrize("measure", COUNT_MEASURES)
    def test_similarity_batch_scores(self, graph, measure):
        ctx = SisaContext(threads=4)
        sg = SetGraph.from_graph(graph, ctx)
        vs = list(range(1, 20))
        got = similarity_batch_on(ctx, sg, 0, vs, measure=measure)
        expected = [
            similarity_on(ctx, sg, 0, v, measure=measure) for v in vs
        ]
        assert list(got) == expected

    def test_all_pairs_batch_scores(self, graph):
        pairs = np.asarray(
            [(u, v) for u in range(12) for v in range(u + 1, 14)]
        )
        ctx = SisaContext(threads=4)
        sg = SetGraph.from_graph(graph, ctx)
        got = all_pairs_similarity_on(ctx, sg, pairs, measure="jaccard")
        ctx2 = SisaContext(threads=4)
        sg2 = SetGraph.from_graph(graph, ctx2)
        expected = [
            similarity_on(ctx2, sg2, int(u), int(v), measure="jaccard")
            for u, v in pairs
        ]
        assert list(got) == expected
        # The batched path hoists the shared |N(u)| fetch per frontier
        # (a deliberate modeled-cost win): it must never issue MORE
        # instructions than the per-pair stream.
        assert ctx.instruction_count < ctx2.instruction_count

    def test_jarvis_patrick_batch_functional(self, graph):
        ctx = SisaContext(threads=4)
        sg = SetGraph.from_graph(graph, ctx)
        kept = jarvis_patrick_on(graph, ctx, sg, tau=1.5)
        ctx2 = SisaContext(threads=4)
        sg2 = SetGraph.from_graph(graph, ctx2)
        expected = [
            (int(u), int(v))
            for u, v in graph.edge_array()
            if similarity_on(
                ctx2, sg2, int(u), int(v), measure="common_neighbors"
            ) > 1.5
        ]
        assert kept == expected

    def test_link_prediction_unchanged(self, graph):
        run = SisaSession(graph, threads=4).run(
            "link_prediction", removal_fraction=0.15, seed=3
        )
        assert run.output.effectiveness >= 0
        assert run.output.predicted_edges > 0


class TestMetadataSlotReuse:
    def test_free_list_recycles_ids_and_records(self):
        ctx = SisaContext(threads=2)
        a = ctx.create_set([1, 2], universe=10)
        b = ctx.create_set([3], universe=10)
        meta_b = ctx.sm.meta(b)
        ctx.free(b)
        c = ctx.create_set([4, 5, 6], universe=10)
        assert c == b  # slot reused
        assert ctx.sm.meta(c) is meta_b  # record recycled in place
        assert ctx.sm.meta(c).cardinality == 3
        assert ctx.cardinality(a) == 2

    def test_freed_id_still_rejected_until_reuse(self):
        from repro.errors import SetError

        ctx = SisaContext(threads=2)
        sid = ctx.create_set([1], universe=10)
        ctx.free(sid)
        with pytest.raises(SetError):
            ctx.cardinality(sid)


class TestTraceOverhead:
    def test_disabled_trace_records_nothing(self):
        ctx, ids = _mixed_context(trace=False)
        ctx.intersect_count_batch(ids[0], ids[1:8])
        ctx.intersect(ids[0], ids[1])
        assert len(ctx.trace) == 0

    def test_enabled_trace_records_batch_ops(self):
        ctx, ids = _mixed_context(trace=True)
        before = len(ctx.trace)
        ctx.intersect_count_batch(ids[0], ids[1:8])
        assert len(ctx.trace) == before + 7


def _fanout_reference(ctx, ids):
    """The per-vertex burst loop ``fanout_counts`` replaces."""
    sums = np.zeros(len(ids), dtype=np.int64)
    for v in range(len(ids)):
        ctx.begin_task()
        nbrs = ctx.elements(ids[v])
        if nbrs.size:
            sums[v] = int(
                ctx.intersect_count_batch(ids[v], [ids[u] for u in nbrs]).sum()
            )
    return sums


def _fanout_run(graph, fanout, *, oriented, t, unsorted, machine, **config):
    """One fresh context: build the SetGraph, run the fan-out either way."""
    ctx = SisaContext(
        trace=True, observability=Observability(), **MACHINES[machine], **config
    )
    if oriented:
        __, sg = oriented_setgraph(graph, ctx, t=t)
    else:
        sg = SetGraph.from_graph(graph, ctx, t=t)
    ids = sg.set_ids
    if unsorted:
        # Unsorted operands exercise the sorted-copy iterator and the
        # unsorted-SA variant decision.
        for v in range(0, len(ids), 3):
            value = ctx.value(ids[v])
            if isinstance(value, SparseArray) and value.cardinality > 1:
                ctx.sm.update(ids[v], value.shuffled(v))
    counts = ctx.fanout_counts(ids) if fanout else _fanout_reference(ctx, ids)
    return counts, machine_state(ctx)


class TestFanoutCounts:
    """``SisaContext.fanout_counts`` against the per-vertex burst loop
    it replaces, each on a fresh context: the same counts and the same
    machine state, bit for bit."""

    @staticmethod
    def _assert_same(graph, chunk=FANOUT_CHUNK_OPS, **kwargs):
        saved = contextmod.FANOUT_CHUNK_OPS
        contextmod.FANOUT_CHUNK_OPS = chunk
        try:
            got, state = _fanout_run(graph, True, **kwargs)
        finally:
            contextmod.FANOUT_CHUNK_OPS = saved
        expected, ref_state = _fanout_run(graph, False, **kwargs)
        assert got.tolist() == expected.tolist()
        for field, value in ref_state.items():
            assert state[field] == value, field
        return state["stats"].instructions

    @given(
        n=st.integers(min_value=2, max_value=40),
        p=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**16),
        mode=st.sampled_from(MODES),
        machine=st.sampled_from(sorted(MACHINES)),
        threads=st.sampled_from([1, 4, 32]),
        t=st.sampled_from([0.0, 0.4, 1.0]),
        gallop=st.sampled_from([None, 2.0]),
        oriented=st.booleans(),
        unsorted=st.booleans(),
        chunk=st.sampled_from([1, 7, FANOUT_CHUNK_OPS]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_per_vertex_bursts(
        self, n, p, seed, mode, machine, threads, t, gallop, oriented, unsorted, chunk
    ):
        self._assert_same(
            gnp_random_graph(n, p, seed=seed),
            chunk=chunk,
            oriented=oriented,
            t=t,
            unsorted=unsorted,
            machine=machine,
            mode=mode,
            threads=threads,
            gallop_threshold=gallop,
        )

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("oriented", [True, False])
    def test_crosses_chunk_boundaries(self, mode, oriented):
        ops = self._assert_same(
            kronecker_graph(9, 8, seed=0),
            oriented=oriented,
            t=0.4,
            unsorted=False,
            machine="default",
            mode=mode,
            threads=32,
        )
        assert ops > FANOUT_CHUNK_OPS

    def test_warm_triangles_working_set(self):
        """The fan-out works chunk by chunk, so a warm ``triangles``
        run's transient memory stays within 1.5 MiB."""
        session = SisaSession(
            kronecker_graph(11, 8, seed=0), threads=32, result_cache=False
        )
        session.run("triangles")
        gc.collect()
        tracemalloc.start()
        try:
            start, __ = tracemalloc.get_traced_memory()
            session.run("triangles")
            __, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start <= 1.5 * 2**20


def _kclique3_recursion(ctx, sg):
    """Uncut ``kclique(k=3)`` as the per-vertex recursion runs it."""
    budget = PatternBudget(None)
    total = 0
    for u in range(sg.num_vertices):
        ctx.begin_task()
        total += kcliquemod._count_from(
            ctx, sg, 2, 3, sg.neighborhood(u), [u], budget, None
        )
    return total


class TestKcliqueFanout:
    """Uncut ``kclique(k=3)`` runs as ``fanout_counts`` over ``N+``;
    the recursion it replaces, on a fresh context, is the oracle."""

    @given(
        graph=st.one_of(
            st.builds(
                gnp_random_graph,
                st.integers(min_value=2, max_value=40),
                st.floats(min_value=0.05, max_value=0.6),
                seed=st.integers(min_value=0, max_value=2**16),
            ),
            st.builds(
                kronecker_graph,
                st.integers(min_value=3, max_value=7),
                st.integers(min_value=2, max_value=8),
                seed=st.integers(min_value=0, max_value=2**16),
            ),
        ),
        mode=st.sampled_from(MODES),
        machine=st.sampled_from(sorted(MACHINES)),
        threads=st.sampled_from([1, 4, 32]),
        t=st.sampled_from([0.0, 0.4, 1.0]),
        trace=st.booleans(),
        observability=st.booleans(),
        budgets=st.sampled_from(CHUNK_BUDGETS),
    )
    @settings(max_examples=60, deadline=None)
    def test_k3_matches_the_recursion(
        self, graph, mode, machine, threads, t, trace, observability, budgets
    ):
        def run(fanout):
            ctx = SisaContext(
                mode=mode,
                threads=threads,
                trace=trace,
                observability=Observability() if observability else None,
                **MACHINES[machine],
            )
            __, sg = oriented_setgraph(graph, ctx, t=t)
            if fanout:
                with chunk_budgets(*budgets):
                    count = kclique_count_on(ctx, sg, 3)
            else:
                count = _kclique3_recursion(ctx, sg)
            return count, machine_state(ctx)

        got, state = run(True)
        expected, ref_state = run(False)
        assert got == expected
        assert got == kclique_count_nonset(graph, 3).output
        for field, value in ref_state.items():
            assert state[field] == value, field

    @pytest.mark.parametrize("limit", [1, 7, 40])
    def test_cutoff_and_listing_keep_the_recursion(self, limit):
        graph = kronecker_graph(6, 6, seed=3)
        ctx = SisaContext(threads=8)
        __, sg = oriented_setgraph(graph, ctx)
        assert kclique_count_on(ctx, sg, 3, max_patterns=limit) == (
            kclique_count_nonset(graph, 3, max_patterns=limit).output
        )
        cliques = kclique_count_on(ctx, sg, 3, collect=True)
        assert len(cliques) == len(set(cliques))
        assert len(cliques) == kclique_count_nonset(graph, 3).output


def _bfs_reference(ctx, sg, root, direction):
    """BFS as the per-vertex loop ``SisaContext.bfs_level`` replaces
    runs it: one task per vertex of each level."""
    n = sg.num_vertices
    parent = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    unvisited = ctx.create_set(
        [v for v in range(n) if v != root], universe=n, dense=True
    )
    frontier = ctx.create_set([root], universe=n, dense=True)
    while ctx.cardinality(frontier) > 0:
        frontier_size = ctx.cardinality(frontier)
        remaining = ctx.cardinality(unvisited)
        if direction == "top-down":
            bottom_up = False
        elif direction == "bottom-up":
            bottom_up = True
        else:
            bottom_up = frontier_size * 8 > max(1, remaining)
        new_frontier = ctx.create_set([], universe=n, dense=True)
        if bottom_up:
            for w in ctx.elements(unvisited):
                ctx.begin_task()
                w = int(w)
                hits = ctx.intersect(sg.neighborhood(w), frontier)
                if ctx.cardinality(hits) > 0:
                    parent[w] = int(ctx.elements(hits)[0])
                    ctx.insert(new_frontier, w)
                ctx.free(hits)
        else:
            for u in ctx.elements(frontier):
                ctx.begin_task()
                u = int(u)
                reached = ctx.intersect(sg.neighborhood(u), unvisited)
                for w in ctx.elements(reached):
                    w = int(w)
                    if parent[w] == -1:
                        parent[w] = u
                        ctx.insert(new_frontier, w)
                ctx.free(reached)
        ctx.difference_into(unvisited, new_frontier)
        ctx.free(frontier)
        frontier = new_frontier
    ctx.free(frontier)
    ctx.free(unvisited)
    return parent


def _assert_bfs_tree(graph, root, parent):
    """``parent`` is a BFS tree of ``graph`` from ``root``: the non-set
    BFS's reachable set, and every other reached vertex's parent is a
    neighbour one level closer to the root."""
    ref = bfs_nonset(graph, root).output
    assert ((parent >= 0) == (ref >= 0)).all()
    depth = {root: 0}

    def level(v):
        chain = []
        while v not in depth:
            chain.append(v)
            v = int(ref[v])
        for w in reversed(chain):
            depth[w] = depth[v] + 1
            v = w
        return depth[v]

    assert parent[root] == root
    for v in np.flatnonzero(ref >= 0).tolist():
        if v != root:
            p = int(parent[v])
            assert p in graph.neighbors(v).tolist()
            assert level(p) == level(v) - 1


class TestBfsLevels:
    """``bfs_on`` runs each level as chunked array programs; the
    per-vertex loop it replaces, on a fresh context, is the oracle.
    Each context runs two traversals, so the second starts on a
    populated set-metadata free list."""

    @given(
        graph=st.one_of(
            st.builds(
                gnp_random_graph,
                st.integers(min_value=1, max_value=40),
                st.floats(min_value=0.0, max_value=0.5),
                seed=st.integers(min_value=0, max_value=2**16),
            ),
            st.builds(
                kronecker_graph,
                st.integers(min_value=3, max_value=7),
                st.integers(min_value=1, max_value=8),
                seed=st.integers(min_value=0, max_value=2**16),
            ),
        ),
        roots=st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
        directions=st.tuples(
            st.sampled_from(["top-down", "bottom-up", "auto"]),
            st.sampled_from(["top-down", "bottom-up", "auto"]),
        ),
        mode=st.sampled_from(MODES),
        machine=st.sampled_from(sorted(MACHINES)),
        threads=st.sampled_from([1, 4, 32]),
        t=st.sampled_from([0.0, 0.4, 1.0]),
        trace=st.booleans(),
        observability=st.booleans(),
        budgets=st.sampled_from(CHUNK_BUDGETS),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_vertex_loop(
        self,
        graph,
        roots,
        directions,
        mode,
        machine,
        threads,
        t,
        trace,
        observability,
        budgets,
    ):
        roots = [r % graph.num_vertices for r in roots]

        def run(chunked):
            ctx = SisaContext(
                mode=mode,
                threads=threads,
                trace=trace,
                observability=Observability() if observability else None,
                **MACHINES[machine],
            )
            sg = SetGraph.from_graph(graph, ctx, t=t)
            runs = []
            for root, direction in zip(roots, directions):
                if chunked:
                    with chunk_budgets(*budgets):
                        parent = bfs_on(ctx, sg, root, direction=direction)
                else:
                    parent = _bfs_reference(ctx, sg, root, direction)
                runs.append((parent, machine_state(ctx)))
            return runs

        for (got, state), (expected, ref_state), root in zip(
            run(True), run(False), roots
        ):
            assert got.tolist() == expected.tolist()
            _assert_bfs_tree(graph, root, got)
            for field, value in ref_state.items():
                assert state[field] == value, field

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("direction", ["top-down", "bottom-up", "auto"])
    def test_crosses_chunk_boundaries(self, mode, direction):
        graph = kronecker_graph(9, 8, seed=0)
        root = int(np.argmax(graph.degrees))

        def run(chunked):
            ctx = SisaContext(mode=mode, threads=32, trace=True)
            sg = SetGraph.from_graph(graph, ctx)
            if chunked:
                parent = bfs_on(ctx, sg, root, direction=direction)
            else:
                parent = _bfs_reference(ctx, sg, root, direction)
            return parent, machine_state(ctx)

        (got, state), (expected, ref_state) = run(True), run(False)
        assert got.tolist() == expected.tolist()
        for field, value in ref_state.items():
            assert state[field] == value, field
        assert state["stats"].instructions > FANOUT_CHUNK_OPS
