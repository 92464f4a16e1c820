"""Tests for the non-set baselines and the paradigm frameworks:
functional agreement with the set-centric implementations, plus the
expected timing relationships."""

import networkx as nx
import pytest

from repro.algorithms.subgraph_iso import star_pattern
from repro.baselines.frameworks import (
    peregrine_like_kclique,
    peregrine_like_maximal_cliques,
    rstream_like_kclique,
)
from repro.baselines.nonset import (
    bfs_nonset,
    four_clique_count_nonset,
    jarvis_patrick_nonset,
    kclique_count_nonset,
    kclique_star_nonset,
    maximal_cliques_nonset,
    subgraph_isomorphism_nonset,
    triangle_count_nonset,
)
from repro.graphs.generators import gnp_random_graph
from repro.session import SisaSession

from conftest import to_networkx

MODES = ("sisa", "cpu-set")
# Seeded graphs dense enough that every pattern below (up to 5-cliques)
# has matches.
ORACLE_GRAPHS = [gnp_random_graph(26, 0.35, seed=seed) for seed in (3, 11, 23)]


def session_outputs(workload, **params):
    """Yield ``(graph, output)`` for every mode x oracle graph.

    The workload runs cold and then warm on one session (result cache
    off, so the warm run re-executes on the cached SetGraphs); the two
    runs must agree before the output is checked against an oracle."""
    for mode in MODES:
        for graph in ORACLE_GRAPHS:
            session = SisaSession(graph, threads=4, mode=mode, result_cache=False)
            cold = session.run(workload, **params)
            warm = session.run(workload, **params)
            assert warm.warm and not cold.warm
            assert repr(warm.output) == repr(cold.output), (workload, mode)
            yield graph, cold.output


def kclique(graph, k, **config):
    return SisaSession(graph, **config).run("kclique", k=k)


class TestFunctionalAgreement:
    """Every set-centric workload against the independent non-set
    baselines (or networkx)."""

    def test_triangles(self):
        for graph, count in session_outputs("triangles"):
            assert count == triangle_count_nonset(graph, threads=4).output

    def test_clustering_coefficient(self):
        for graph, coefficient in session_outputs("clustering_coefficient"):
            assert coefficient == pytest.approx(
                nx.transitivity(to_networkx(graph))
            )

    def test_maximal_cliques(self):
        for graph, cliques in session_outputs("maximal_cliques"):
            expected = maximal_cliques_nonset(graph, threads=4).output
            assert sorted(cliques) == sorted(expected)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_kclique(self, k):
        for graph, count in session_outputs("kclique", k=k):
            assert count == kclique_count_nonset(graph, k, threads=4).output

    def test_four_clique(self):
        for graph, count in session_outputs("four_clique"):
            assert count == four_clique_count_nonset(graph, threads=4).output

    def test_kclique_star(self):
        for graph, stars in session_outputs("kclique_star", k=3):
            assert stars == kclique_star_nonset(graph, 3, threads=2).output

    def test_subgraph_isomorphism(self):
        pattern = star_pattern(2)
        for graph, count in session_outputs("subgraph_iso", pattern=pattern):
            expected = subgraph_isomorphism_nonset(graph, pattern, threads=2)
            assert count == expected.output

    def test_clustering(self):
        for graph, result in session_outputs("jarvis_patrick", tau=2.0):
            expected = jarvis_patrick_nonset(graph, tau=2.0, threads=4)
            assert result["edges"] == expected.output

    def test_bfs_depths(self, random_graph):
        nxg = to_networkx(random_graph)
        expected = nx.single_source_shortest_path_length(nxg, 0)
        parent = bfs_nonset(random_graph, 0, threads=4).output
        for v in range(random_graph.num_vertices):
            assert (parent[v] != -1) == (v in expected)


class TestFrameworks:
    def test_peregrine_kclique_counts(self, dense_graph):
        expected = kclique(dense_graph, 3, threads=2).output
        run = peregrine_like_kclique(dense_graph, 3, threads=2)
        assert run.output == expected

    def test_rstream_kclique_counts(self, dense_graph):
        expected = kclique(dense_graph, 4, threads=2).output
        run = rstream_like_kclique(dense_graph, 4, threads=2)
        assert run.output == expected

    def test_peregrine_maximal_cliques(self):
        g = gnp_random_graph(16, 0.4, seed=8)
        expected = sorted(
            SisaSession(g, threads=2).run("maximal_cliques").output
        )
        run = peregrine_like_maximal_cliques(g, threads=2)
        assert sorted(run.output) == expected

    def test_paradigms_much_slower_than_sisa(self, dense_graph):
        """The paper: 10-100x slower than SISA (and >100x for joins)."""
        sisa = kclique(dense_graph, 4, threads=8)
        peregrine = peregrine_like_kclique(dense_graph, 4, threads=8)
        rstream = rstream_like_kclique(dense_graph, 4, threads=8)
        assert peregrine.runtime_cycles > 5 * sisa.runtime_cycles
        assert rstream.runtime_cycles > 5 * sisa.runtime_cycles


class TestTimingShape:
    """The Fig. 6 ordering on a heavy-tailed graph at full parallelism."""

    @pytest.fixture(scope="class")
    def heavy(self):
        from repro.graphs.generators import planted_clique_graph

        return planted_clique_graph(
            400, 8000, num_cliques=6, clique_size=14, gamma=1.9, seed=10
        )

    def test_sisa_beats_cpu_set(self, heavy):
        sisa = SisaSession(heavy, threads=32).run(
            "kclique", k=4, max_patterns=20_000
        )
        cpu = SisaSession(heavy, threads=32, mode="cpu-set").run(
            "kclique", k=4, max_patterns=20_000
        )
        assert sisa.runtime_cycles < cpu.runtime_cycles

    def test_sisa_beats_nonset(self, heavy):
        sisa = SisaSession(heavy, threads=32).run(
            "kclique", k=4, max_patterns=20_000
        )
        nonset = kclique_count_nonset(heavy, 4, threads=32, max_patterns=20_000)
        assert sisa.runtime_cycles < nonset.runtime_cycles

    def test_clustering_nonset_beats_cpu_set(self, heavy):
        """The paper's nuance: for simple clustering the tuned non-set
        baseline outperforms the set-based variant, while SISA wins."""
        sisa = SisaSession(heavy, threads=32).run("jarvis_patrick", tau=3.0)
        cpu = SisaSession(heavy, threads=32, mode="cpu-set").run(
            "jarvis_patrick", tau=3.0
        )
        nonset = jarvis_patrick_nonset(heavy, tau=3.0, threads=32)
        assert sisa.runtime_cycles < nonset.runtime_cycles < cpu.runtime_cycles
