"""Every execution mode against independent references.

Each mode runs the same workload batch on a hypothesis graph, and every
output is checked against a reference that shares no code with the
set-centric stack: the non-set baselines (``repro.baselines.nonset``),
networkx, or brute force.  No mode is compared with another mode, so a
defect common to all of them still shows.

Modes: ``session.run``; ``run_many`` unfused and fused; a strict pool
with three tenants; a hardened pool (retry plus seeded faults over a
maintained orientation); scheduled replay at one lane and, under the
race detector, at four; a fused pool on the ``cpu-set`` host baseline;
a stream-maintained session after one churn batch (checked against the
post-churn graph); and, once on a fixed graph, sharded execution on two
worker processes.

The eager kernels no plan decomposes run against networkx too:
``similarity_pairs`` under the measures the stage compiler leaves to
one opaque call stage (``session.run`` and a strict pool), and view
runs of ``local_clustering`` and ``similarity_pairs`` on a snapshot and
on the live stream after a churn batch.
"""

from __future__ import annotations

import dataclasses

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nonset import (
    bfs_nonset,
    four_clique_count_nonset,
    kclique_count_nonset,
    triangle_count_nonset,
)
from repro.errors import GraphError
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import gnp_random_graph
from repro.graphs.streams import churn_stream
from repro.serving import FaultInjector, RetryPolicy
from repro.session import ExecutionConfig, SessionPool, SisaSession

from conftest import to_networkx

THREADS = 4
# The robustness soak's fault rates; two faults of each kind stay below
# the five attempts of RetryPolicy(max_retries=4), so every plan ends ok.
FAULT_RATES = dict(
    drift_rate=0.08, cache_rate=0.35, kernel_rate=0.2, orientation_rate=0.15
)


def _pairs(n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    pairs = rng.integers(0, n, size=(4 * n, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][: 2 * n]
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _batch(n: int) -> list[tuple[str, dict]]:
    return [
        ("triangles", {}),
        ("kclique", {"k": 3}),
        ("kclique", {"k": 4}),
        ("four_clique", {}),
        ("bfs", {"root": 0}),
        ("maximal_cliques", {}),
        ("clustering_coefficient", {}),
        ("local_clustering", {}),
        ("similarity_pairs", {"pairs": _pairs(n), "measure": "jaccard"}),
    ]


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _bfs_levels(parent: np.ndarray, root: int) -> dict[int, int]:
    """Hop distance from ``root`` of every vertex the reference BFS
    tree reaches."""
    levels = {root: 0}
    for v in range(parent.size):
        path = []
        while parent[v] >= 0 and v not in levels:
            path.append(v)
            v = int(parent[v])
        for w in reversed(path):
            levels[w] = levels[v] + 1
            v = w
    return levels


def _jaccard(graph: CSRGraph, pairs: np.ndarray) -> np.ndarray:
    nbrs = [set(map(int, graph.neighbors(v))) for v in range(graph.num_vertices)]
    scores = []
    for u, v in pairs.tolist():
        union = nbrs[u] | nbrs[v]
        scores.append(len(nbrs[u] & nbrs[v]) / len(union) if union else 0.0)
    return np.asarray(scores, dtype=np.float64)


#: The similarity measures the stage compiler leaves to one opaque
#: ``run:similarity_pairs`` call stage, with their networkx references.
OPAQUE_MEASURES = {
    "adamic_adar": nx.adamic_adar_index,
    "resource_allocation": nx.resource_allocation_index,
    "preferential_attachment": nx.preferential_attachment,
}


def _nx_scores(nxg: nx.Graph, pairs: np.ndarray, measure: str) -> np.ndarray:
    # networkx reads a one-shot ebunch iterator empty; pass a list.
    ebunch = [tuple(pair) for pair in pairs.tolist()]
    scores = [score for __, __, score in OPAQUE_MEASURES[measure](nxg, ebunch)]
    return np.asarray(scores, dtype=np.float64)


def _check(graph: CSRGraph, batch, outputs, mode: str) -> None:
    """Assert every output of ``batch`` against its reference on
    ``graph``."""
    nxg = to_networkx(graph)
    n = graph.num_vertices
    counts = {
        "triangles": triangle_count_nonset(graph).output,
        ("kclique", 3): kclique_count_nonset(graph, 3).output,
        ("kclique", 4): kclique_count_nonset(graph, 4).output,
        "four_clique": four_clique_count_nonset(graph).output,
    }
    assert len(outputs) == len(batch), mode
    for (name, params), out in zip(batch, outputs):
        where = f"{name} under {mode}"
        if name == "kclique":
            assert out == counts[("kclique", params["k"])], where
        elif name in counts:
            assert out == counts[name], where
        elif name == "bfs":
            root = params["root"]
            ref = bfs_nonset(graph, root).output
            levels = _bfs_levels(ref, root)
            out = np.asarray(out)
            assert out.shape == (n,), where
            assert set(np.flatnonzero(out >= 0).tolist()) == set(levels), where
            assert out[root] == root, where
            for v in levels:
                if v == root:
                    continue
                # The parent choice may differ from the reference, but
                # it must be a neighbour exactly one level up.
                p = int(out[v])
                assert nxg.has_edge(p, v), where
                assert levels[p] == levels[v] - 1, where
        elif name == "maximal_cliques":
            expected = {frozenset(c) for c in nx.find_cliques(nxg)}
            assert {frozenset(c) for c in out} == expected, where
            assert len(out) == len(expected), where
        elif name == "clustering_coefficient":
            assert out == pytest.approx(nx.transitivity(nxg), abs=1e-9), where
        elif name == "local_clustering":
            clustering = nx.clustering(nxg)
            expected = np.asarray([clustering[v] for v in range(n)])
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9, err_msg=where)
        elif name == "similarity_pairs" and params["measure"] == "jaccard":
            expected = _jaccard(graph, params["pairs"])
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9, err_msg=where)
        elif name == "similarity_pairs":
            expected = _nx_scores(nxg, params["pairs"], params["measure"])
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9, err_msg=where)
        else:  # pragma: no cover - the batch is fixed above
            raise AssertionError(f"no reference for {name}")


# ---------------------------------------------------------------------------
# Modes: each returns the batch's outputs in batch order
# ---------------------------------------------------------------------------


def _config(**overrides) -> ExecutionConfig:
    return ExecutionConfig(threads=THREADS, **overrides)


def _session_run(graph, batch, seed):
    session = SisaSession(graph, _config())
    return [session.run(name, **params).output for name, params in batch]


def _run_many(fuse):
    def mode(graph, batch, seed):
        session = SisaSession(graph, _config())
        return [r.output for r in session.run_many(batch, fuse=fuse)]

    return mode


def _pool_outputs(pool, batch, *, tenants=1, **run):
    for i, (name, params) in enumerate(batch):
        pool.submit("g", name, tenant=f"tenant-{i % tenants}", **params)
    results = pool.run(**run)
    assert pool.pending == 0 and pool.deferred == 0
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    return [r.output for r in results]


def _strict_pool(graph, batch, seed):
    pool = SessionPool(_config())
    pool.session("g", graph)
    return _pool_outputs(pool, batch, tenants=3)


def _hardened_pool(graph, batch, seed):
    pool = SessionPool(
        _config(),
        retry=RetryPolicy(max_retries=4),
        fault_injector=FaultInjector(seed, max_per_kind=2, **FAULT_RATES),
    )
    session = pool.session("g", graph)
    session.attach_stream()
    session.maintain_orientation()
    return _pool_outputs(pool, batch, tenants=3)


def _scheduled_pool(**run):
    def mode(graph, batch, seed):
        pool = SessionPool(_config())
        pool.session("g", graph)
        outputs = _pool_outputs(pool, batch, **run)
        assert pool.last_schedules["g"].measured
        return outputs

    return mode


def _cpu_set_pool(graph, batch, seed):
    pool = SessionPool(_config(mode="cpu-set"))
    pool.session("g", graph)
    return _pool_outputs(pool, batch, tenants=3)


MODES = {
    "session.run": _session_run,
    "run_many(fuse=False)": _run_many(False),
    "run_many(fuse=True)": _run_many(True),
    "strict pool": _strict_pool,
    "hardened pool": _hardened_pool,
    "pool.run(lanes=1)": _scheduled_pool(lanes=1),
    "pool.run(lanes=4, racecheck=True)": _scheduled_pool(lanes=4, racecheck=True),
    "cpu-set pool": _cpu_set_pool,
}


def _after_churn(graph, seed):
    """A stream-maintained session after one churn batch, and the
    post-churn graph built from the batch's edge lists alone (None when
    the graph is too dense to churn: fewer absent pairs than edges to
    replace)."""
    try:
        stream = churn_stream(graph, churn=0.2, num_batches=1, seed=seed)
    except GraphError:
        return None
    session = SisaSession(graph, _config())
    session.attach_stream()
    session.maintain_orientation()
    session.stream.apply_batch(stream.batches[0])
    churned = CSRGraph.from_edges(
        graph.num_vertices,
        dataclasses.replace(stream, batches=stream.batches[:1]).final_edges(),
    )
    return session, churned


class TestModesAgainstReferences:
    @given(
        n=st.integers(min_value=2, max_value=28),
        p=st.floats(min_value=0.0, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_mode_matches_the_references(self, n, p, seed):
        graph = gnp_random_graph(n, p, seed=seed)
        batch = _batch(n)
        for mode, run in MODES.items():
            _check(graph, batch, run(graph, batch, seed), mode)
        churn = _after_churn(graph, seed)
        if churn is not None:
            session, churned = churn
            outputs = [session.run(name, **params).output for name, params in batch]
            _check(churned, batch, outputs, "stream-maintained session")

    def test_parallel_pool_matches_the_references(self):
        graph = gnp_random_graph(28, 0.3, seed=5)
        batch = _batch(graph.num_vertices)
        pool = SessionPool(_config())
        pool.session("g", graph)
        # Offload every count burst to the shard workers.
        pool.parallel_offload_threshold = 0
        try:
            outputs = _pool_outputs(pool, batch, lanes=2, parallel=True)
            assert pool.last_parallel["g"].offloaded_units > 0
        finally:
            pool.close()
        _check(graph, batch, outputs, "pool.run(lanes=2, parallel=True)")


class TestUnplannedKernelsAgainstReferences:
    @pytest.mark.parametrize("seed", range(3))
    def test_opaque_similarity_measures(self, seed):
        graph = gnp_random_graph(50, 0.15, seed=seed)
        pairs = _pairs(graph.num_vertices)
        batch = [
            ("similarity_pairs", {"pairs": pairs, "measure": measure})
            for measure in OPAQUE_MEASURES
        ]
        session = SisaSession(graph, _config())
        for name, params in batch:
            plan = session.compile(name, **params)
            assert plan.describe() == ["run:similarity_pairs"]
        _check(graph, batch, _session_run(graph, batch, seed), "session.run")
        _check(graph, batch, _strict_pool(graph, batch, seed), "strict pool")

    @pytest.mark.parametrize("seed", range(3))
    def test_view_runs(self, seed):
        graph = gnp_random_graph(50, 0.15, seed=seed)
        pairs = _pairs(graph.num_vertices)
        batch = [("local_clustering", {})] + [
            ("similarity_pairs", {"pairs": pairs, "measure": measure})
            for measure in ("jaccard", *OPAQUE_MEASURES)
        ]
        session = SisaSession(graph, _config())
        session.attach_stream()
        snapshot = session.snapshot()
        stream = churn_stream(graph, churn=0.2, num_batches=1, seed=seed)
        session.stream.apply_batch(stream.batches[0])
        churned = CSRGraph.from_edges(graph.num_vertices, stream.final_edges())
        try:
            for view, reference, mode in (
                (snapshot, graph, "snapshot view"),
                (session.stream, churned, "live view after churn"),
            ):
                outputs = [
                    session.run(name, view=view, **params).output
                    for name, params in batch
                ]
                _check(reference, batch, outputs, mode)
        finally:
            snapshot.release()
