"""Correctness tests for VF2 subgraph isomorphism, including labels."""

import networkx as nx
import pytest

from repro.algorithms.subgraph_iso import star_pattern
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import complete_graph, gnp_random_graph, path_graph
from repro.graphs.labels import Labeling
from repro.session import SisaSession

from conftest import to_networkx


def nx_monomorphism_count(graph, pattern):
    gm = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(graph), to_networkx(pattern)
    )
    return sum(1 for __ in gm.subgraph_monomorphisms_iter())


class TestUnlabeled:
    @pytest.mark.parametrize("mode", ["sisa", "cpu-set"])
    def test_triangle_pattern_matches_networkx(self, mode):
        g = gnp_random_graph(18, 0.35, seed=1)
        triangle = complete_graph(3)
        expected = nx_monomorphism_count(g, triangle)
        run = SisaSession(g, threads=2, mode=mode).run("subgraph_iso", pattern=triangle)
        assert run.output == expected

    def test_star_pattern_count(self):
        # Embeddings of a k-star = sum over centers of d*(d-1)*...*(d-k+1).
        g = gnp_random_graph(20, 0.3, seed=2)
        k = 2
        expected = 0
        for v in range(g.num_vertices):
            d = g.degree(v)
            expected += d * (d - 1)
        run = SisaSession(g, threads=2).run("subgraph_iso", pattern=star_pattern(k))
        assert run.output == expected

    def test_path_pattern_matches_networkx(self):
        g = gnp_random_graph(15, 0.3, seed=3)
        pattern = path_graph(4)
        expected = nx_monomorphism_count(g, pattern)
        run = SisaSession(g, threads=2).run("subgraph_iso", pattern=pattern)
        assert run.output == expected

    def test_no_match_when_pattern_too_dense(self):
        run = SisaSession(path_graph(6), threads=1).run(
            "subgraph_iso", pattern=complete_graph(3)
        )
        assert run.output == 0

    def test_collect_returns_mappings(self):
        g = complete_graph(4)
        run = SisaSession(g, threads=1).run(
            "subgraph_iso", pattern=complete_graph(3), collect=True
        )
        assert len(run.output) == 24  # 4P3 ordered embeddings
        for mapping in run.output:
            values = list(mapping.values())
            assert len(set(values)) == 3

    def test_cutoff(self):
        g = complete_graph(8)
        run = SisaSession(g, threads=1).run(
            "subgraph_iso", pattern=complete_graph(3), max_matches=10
        )
        assert run.output == 10

    def test_star_pattern_shape(self):
        p = star_pattern(4)
        assert p.num_vertices == 5
        assert p.degree(0) == 4


class TestLabeled:
    def test_labels_restrict_matches(self):
        g = complete_graph(6)
        pattern = complete_graph(3)
        unlabeled = SisaSession(g, threads=1).run(
            "subgraph_iso", pattern=pattern
        ).output
        target_labels = Labeling(g, [0, 0, 0, 1, 1, 1])
        pattern_labels = Labeling(pattern, [0, 0, 0])
        labeled = SisaSession(g, threads=1).run(
            "subgraph_iso",
            pattern=pattern,
            target_labels=target_labels,
            pattern_labels=pattern_labels,
        ).output
        assert labeled < unlabeled
        assert labeled == 6  # permutations of {0, 1, 2}

    def test_labels_match_bruteforce(self):
        g = gnp_random_graph(14, 0.4, seed=4)
        pattern = complete_graph(3)
        target_labels = Labeling.random(g, 2, seed=7)
        pattern_labels = Labeling(pattern, [0, 1, 0])
        run = SisaSession(g, threads=1).run(
            "subgraph_iso",
            pattern=pattern,
            target_labels=target_labels,
            pattern_labels=pattern_labels,
        )
        # Brute force over ordered vertex triples.
        expected = 0
        n = g.num_vertices
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if len({a, b, c}) != 3:
                        continue
                    if not (
                        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
                    ):
                        continue
                    if (
                        target_labels.vertex_label(a) == 0
                        and target_labels.vertex_label(b) == 1
                        and target_labels.vertex_label(c) == 0
                    ):
                        expected += 1
        assert run.output == expected

    def test_labeled_run_is_faster(self):
        """The paper: labels prune recursion, so labeled SI is usually
        faster despite extra label checks."""
        g = gnp_random_graph(40, 0.3, seed=5)
        pattern = star_pattern(3)
        unlabeled = SisaSession(g, threads=4).run(
            "subgraph_iso", pattern=pattern, max_matches=3000
        )
        labeled = SisaSession(g, threads=4).run(
            "subgraph_iso",
            pattern=pattern,
            max_matches=3000,
            target_labels=Labeling.random(g, 3, seed=1),
            pattern_labels=Labeling(pattern, [0, 1, 2, 0]),
        )
        assert labeled.runtime_cycles < unlabeled.runtime_cycles

    def test_edge_labels_checked(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        pattern = CSRGraph.from_edges(2, [(0, 1)])
        target_labels = Labeling(
            g, [0, 0, 0], edge_labels={(0, 1): 1, (1, 2): 2, (0, 2): 1}
        )
        pattern_labels = Labeling(pattern, [0, 0], edge_labels={(0, 1): 2})
        run = SisaSession(g, threads=1).run(
            "subgraph_iso",
            pattern=pattern,
            target_labels=target_labels,
            pattern_labels=pattern_labels,
        )
        # Only the edge (1, 2) carries label 2; two ordered embeddings.
        assert run.output == 2
