"""Correctness tests for pattern-matching algorithms (tc, mc, kcc, ksc)
against networkx / brute-force references, across all execution modes.
"""

import itertools

import networkx as nx
import numpy as np
import pytest

from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    star_graph,
)
from repro.session import SisaSession

from conftest import to_networkx


def nx_kcliques(graph, k):
    nxg = to_networkx(graph)
    return sum(
        1
        for clique in nx.enumerate_all_cliques(nxg)
        if len(clique) == k
    )


class TestTriangleCounting:
    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_matches_networkx(self, mode):
        for seed in range(3):
            g = gnp_random_graph(40, 0.25, seed=seed)
            expected = sum(nx.triangles(to_networkx(g)).values()) // 3
            run = SisaSession(g, threads=4, mode=mode).run("triangles")
            assert run.output == expected

    def test_complete_graph(self):
        g = complete_graph(8)
        assert SisaSession(g, threads=2).run("triangles").output == 56

    def test_triangle_free(self):
        assert SisaSession(star_graph(20), threads=2).run("triangles").output == 0
        assert SisaSession(cycle_graph(10), threads=2).run("triangles").output == 0

    def test_clustering_coefficient(self):
        g = complete_graph(6)
        run = SisaSession(g, threads=2).run("clustering_coefficient")
        assert run.output == pytest.approx(1.0)

    def test_representation_invariance(self):
        """The t knob changes representations and cycles but never the
        functional result."""
        g = gnp_random_graph(50, 0.2, seed=5)
        counts = {
            SisaSession(g, threads=4, t=t).run("triangles").output
            for t in (0.0, 0.3, 1.0)
        }
        assert len(counts) == 1


class TestMaximalCliques:
    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_matches_networkx(self, mode):
        for seed in range(3):
            g = gnp_random_graph(35, 0.3, seed=seed)
            expected = sorted(
                tuple(sorted(c)) for c in nx.find_cliques(to_networkx(g))
            )
            run = SisaSession(g, threads=4, mode=mode).run("maximal_cliques")
            assert sorted(run.output) == expected

    def test_complete_graph_single_clique(self):
        run = SisaSession(complete_graph(7), threads=2).run("maximal_cliques")
        assert run.output == [tuple(range(7))]

    def test_empty_graph(self):
        run = SisaSession(CSRGraph.empty(4), threads=2).run("maximal_cliques")
        # Each isolated vertex is a maximal clique of size 1.
        assert sorted(run.output) == [(0,), (1,), (2,), (3,)]

    def test_cliques_are_maximal_and_cliques(self, random_graph):
        run = SisaSession(random_graph, threads=4).run("maximal_cliques")
        adjacency = [
            set(map(int, random_graph.neighbors(v)))
            for v in range(random_graph.num_vertices)
        ]
        for clique in run.output:
            for u, v in itertools.combinations(clique, 2):
                assert v in adjacency[u]
            # No vertex extends the clique.
            extensions = set.intersection(*(adjacency[u] for u in clique))
            assert not (extensions - set(clique))

    def test_cutoff_limits_patterns(self, dense_graph):
        run = SisaSession(dense_graph, threads=2).run("maximal_cliques", max_patterns=5)
        assert len(run.output) <= 5 + 1  # at most one task overshoot


class TestKClique:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_counts_match_networkx(self, k, mode):
        g = gnp_random_graph(30, 0.35, seed=7)
        expected = nx_kcliques(g, k)
        run = SisaSession(g, threads=4, mode=mode).run("kclique", k=k)
        assert run.output == expected

    def test_complete_graph_binomial(self):
        g = complete_graph(8)
        import math

        assert SisaSession(g, threads=2).run("kclique", k=4).output == math.comb(8, 4)

    def test_collect_lists_cliques(self):
        g = complete_graph(5)
        run = SisaSession(g, threads=1).run("kclique", k=3, collect=True)
        assert len(run.output) == 10
        for clique in run.output:
            assert len(set(clique)) == 3

    def test_k2_counts_edges(self, random_graph):
        run = SisaSession(random_graph, threads=2).run("kclique", k=2)
        assert run.output == random_graph.num_edges

    def test_bad_k_rejected(self, random_graph):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SisaSession(random_graph).run("kclique", k=1)

    def test_four_clique_specialization_agrees(self):
        g = gnp_random_graph(30, 0.35, seed=9)
        general = SisaSession(g, threads=2).run("kclique", k=4).output
        special = SisaSession(g, threads=2).run("four_clique").output
        assert general == special


class TestKCliqueStar:
    def test_star_extras_are_fully_connected(self):
        g = gnp_random_graph(25, 0.5, seed=3)
        run = SisaSession(g, threads=2).run("kclique_star", k=3, variant="from_k1")
        adjacency = [
            set(map(int, g.neighbors(v))) for v in range(g.num_vertices)
        ]
        for clique, extras in run.output.items():
            for w in extras:
                assert all(w in adjacency[u] or w == u for u in clique)

    def test_variants_agree_on_support(self):
        g = gnp_random_graph(22, 0.5, seed=4)
        from_k1 = SisaSession(g, threads=2).run(
            "kclique_star", k=3, variant="from_k1"
        ).output
        intersect = dict(SisaSession(g, threads=2).run(
            "kclique_star", k=3, variant="intersect"
        ).output)
        # Every star found by the (k+1)-clique variant must appear in
        # the intersection variant's output with at least those extras.
        for clique, extras in from_k1.items():
            assert clique in intersect
            assert set(extras) <= set(intersect[clique])

    def test_complete_graph_stars(self):
        # In K5, every 3-clique extends by the 2 remaining vertices.
        run = SisaSession(complete_graph(5), threads=1).run("kclique_star", k=3)
        assert len(run.output) == 10
        assert all(len(extras) == 2 for extras in run.output.values())

    def test_invalid_variant(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SisaSession(complete_graph(4)).run("kclique_star", k=3, variant="bogus")
