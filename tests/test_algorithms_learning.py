"""Correctness tests for learning-flavored algorithms: similarity,
clustering, link prediction, degeneracy, BFS."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.algorithms.clustering import clusters_from_edges
from repro.algorithms.degeneracy import kcore_from_eta
from repro.algorithms.link_prediction import candidate_pairs, edge_ids
from repro.algorithms.similarity import similarity_on
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import complete_graph, gnp_random_graph, path_graph
from repro.graphs.orientation import degeneracy_order
from repro.runtime.context import SisaContext
from repro.runtime.setgraph import SetGraph
from repro.session import SisaSession

from conftest import to_networkx


class TestSimilarity:
    @pytest.fixture
    def setup(self, random_graph):
        ctx = SisaContext(threads=1, mode="sisa")
        sg = SetGraph.from_graph(random_graph, ctx)
        return random_graph, ctx, sg

    def test_jaccard_matches_networkx(self, setup):
        g, ctx, sg = setup
        nxg = to_networkx(g)
        for u, v in [(0, 1), (3, 7), (10, 20)]:
            ((__, __, expected),) = nx.jaccard_coefficient(nxg, [(u, v)])
            assert similarity_on(ctx, sg, u, v, measure="jaccard") == pytest.approx(
                expected
            )

    def test_adamic_adar_matches_networkx(self, setup):
        g, ctx, sg = setup
        nxg = to_networkx(g)
        for u, v in [(0, 1), (5, 9)]:
            ((__, __, expected),) = nx.adamic_adar_index(nxg, [(u, v)])
            assert similarity_on(
                ctx, sg, u, v, measure="adamic_adar"
            ) == pytest.approx(expected)

    def test_resource_allocation_matches_networkx(self, setup):
        g, ctx, sg = setup
        nxg = to_networkx(g)
        ((__, __, expected),) = nx.resource_allocation_index(nxg, [(2, 4)])
        assert similarity_on(
            ctx, sg, 2, 4, measure="resource_allocation"
        ) == pytest.approx(expected)

    def test_preferential_attachment(self, setup):
        g, ctx, sg = setup
        expected = g.degree(1) * g.degree(2)
        assert similarity_on(
            ctx, sg, 1, 2, measure="preferential_attachment"
        ) == expected

    def test_common_and_total_neighbors(self, setup):
        g, ctx, sg = setup
        nu = set(map(int, g.neighbors(3)))
        nv = set(map(int, g.neighbors(8)))
        assert similarity_on(ctx, sg, 3, 8, measure="common_neighbors") == len(
            nu & nv
        )
        assert similarity_on(ctx, sg, 3, 8, measure="total_neighbors") == len(
            nu | nv
        )

    def test_overlap(self, setup):
        g, ctx, sg = setup
        nu = set(map(int, g.neighbors(3)))
        nv = set(map(int, g.neighbors(8)))
        expected = len(nu & nv) / min(len(nu), len(nv))
        assert similarity_on(ctx, sg, 3, 8, measure="overlap") == pytest.approx(
            expected
        )

    def test_unknown_measure_rejected(self, setup):
        g, ctx, sg = setup
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            similarity_on(ctx, sg, 0, 1, measure="cosine-ish")

    def test_end_to_end_wrapper(self, random_graph):
        run = SisaSession(random_graph, threads=1).run(
            "similarity", u=0, v=1, measure="jaccard"
        )
        assert 0.0 <= run.output <= 1.0


class TestClustering:
    def test_kept_edges_satisfy_threshold(self, random_graph):
        run = SisaSession(random_graph, threads=4).run("jarvis_patrick", tau=2.0)
        adjacency = [
            set(map(int, random_graph.neighbors(v)))
            for v in range(random_graph.num_vertices)
        ]
        kept = set(run.output["edges"])
        for u, v in random_graph.edge_array():
            common = len(adjacency[int(u)] & adjacency[int(v)])
            assert ((int(u), int(v)) in kept) == (common > 2.0)

    def test_modes_agree(self, random_graph):
        a = SisaSession(random_graph, threads=4, mode="sisa").run(
            "jarvis_patrick", tau=1.0
        )
        b = SisaSession(random_graph, threads=4, mode="cpu-set").run(
            "jarvis_patrick", tau=1.0
        )
        assert a.output["edges"] == b.output["edges"]

    def test_complete_graph_single_cluster(self):
        run = SisaSession(complete_graph(8), threads=2).run("jarvis_patrick", tau=1.0)
        assert len(run.output["clusters"]) == 1
        assert run.output["clusters"][0] == set(range(8))

    def test_union_find_components(self):
        clusters = clusters_from_edges(6, [(0, 1), (1, 2), (4, 5)])
        assert {frozenset(c) for c in clusters} == {
            frozenset({0, 1, 2}),
            frozenset({4, 5}),
        }


class TestLinkPrediction:
    def test_edge_ids_canonical(self):
        edges = np.array([[3, 1], [1, 3], [0, 2]])
        ids = edge_ids(edges, 10)
        assert ids[0] == ids[1] == 13
        assert ids[2] == 2

    def test_candidates_are_two_hop_nonedges(self, random_graph):
        pairs = candidate_pairs(random_graph, limit=200)
        for u, v in pairs:
            assert not random_graph.has_edge(int(u), int(v))
            nu = set(map(int, random_graph.neighbors(int(u))))
            nv = set(map(int, random_graph.neighbors(int(v))))
            assert nu & nv

    def test_effectiveness_bounded(self):
        g = gnp_random_graph(60, 0.2, seed=2)
        run = SisaSession(g, threads=4).run(
            "link_prediction", removal_fraction=0.15, seed=3
        )
        result = run.output
        assert 0 <= result.effectiveness <= result.predicted_edges
        assert 0.0 <= result.precision <= 1.0

    def test_prediction_beats_random_on_clustered_graph(self):
        # On a graph of dense blocks, Jaccard prediction must recover
        # some removed intra-block edges.
        blocks = []
        for b in range(5):
            base = b * 12
            blocks += [
                (base + i, base + j) for i in range(12) for j in range(i + 1, 12)
            ]
        g = CSRGraph.from_edges(60, blocks)
        run = SisaSession(g, threads=4).run(
            "link_prediction", removal_fraction=0.1, seed=5
        )
        assert run.output.effectiveness > 0

    def test_invalid_fraction(self, random_graph):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SisaSession(random_graph).run("link_prediction", removal_fraction=1.5)


class TestApproxDegeneracy:
    def test_eta_assigns_all(self, random_graph):
        run = SisaSession(random_graph, threads=4).run("approx_degeneracy")
        assert np.all(run.output >= 0)

    def test_eta_rounds_logarithmic(self, random_graph):
        run = SisaSession(random_graph, threads=4).run("approx_degeneracy")
        rounds = int(run.output.max()) + 1
        assert rounds <= 4 * int(math.log2(random_graph.num_vertices)) + 4

    def test_matches_pure_graph_version(self, random_graph):
        from repro.graphs.orientation import approx_degeneracy_order

        run = SisaSession(random_graph, threads=1).run("approx_degeneracy", eps=0.5)
        pure = approx_degeneracy_order(random_graph, eps=0.5)
        # Same round structure: vertices stripped together share a round.
        eta = run.output
        rank_round = {int(v): int(eta[v]) for v in range(random_graph.num_vertices)}
        # The pure version's order groups by round; verify monotonicity.
        seen_rounds = [rank_round[int(v)] for v in pure.order]
        assert seen_rounds == sorted(seen_rounds)

    def test_kcore_from_eta(self):
        g = complete_graph(6)
        eta = SisaSession(g, threads=1).run("approx_degeneracy").output
        core = kcore_from_eta(g, eta, 5)
        assert len(core) == 6
        assert len(kcore_from_eta(g, eta, 6)) == 0


class TestBfs:
    @pytest.mark.parametrize("direction", ["top-down", "bottom-up", "auto"])
    def test_parents_form_bfs_tree(self, random_graph, direction):
        run = SisaSession(random_graph, threads=4).run(
            "bfs", root=0, direction=direction
        )
        parent = run.output
        nxg = to_networkx(random_graph)
        expected_depth = nx.single_source_shortest_path_length(nxg, 0)
        # Depth via parent pointers must equal BFS depth.
        def depth(v):
            d = 0
            while parent[v] != v:
                v = parent[v]
                d += 1
                assert d <= random_graph.num_vertices
            return d

        for v in range(random_graph.num_vertices):
            if v in expected_depth:
                assert parent[v] != -1
                assert depth(v) == expected_depth[v]
            else:
                assert parent[v] == -1

    def test_path_graph_parents(self):
        run = SisaSession(path_graph(5), threads=1).run("bfs", root=0)
        assert list(run.output) == [0, 0, 1, 2, 3]

    def test_invalid_root(self, random_graph):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SisaSession(random_graph).run("bfs", root=-1)

    def test_invalid_direction(self, random_graph):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SisaSession(random_graph).run("bfs", root=0, direction="sideways")
