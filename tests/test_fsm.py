"""Tests for frequent subgraph mining."""

import pytest

from repro.algorithms.fsm import canonical_key
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import complete_graph, gnp_random_graph, path_graph
from repro.session import SisaSession


class TestCanonicalKey:
    def test_isomorphic_patterns_share_key(self):
        a = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        b = CSRGraph.from_edges(3, [(2, 1), (0, 1)])
        c = CSRGraph.from_edges(3, [(0, 2), (2, 1)])
        assert canonical_key(a) == canonical_key(b) == canonical_key(c)

    def test_distinct_patterns_differ(self):
        path = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        triangle = complete_graph(3)
        assert canonical_key(path) != canonical_key(triangle)

    def test_size_distinguishes(self):
        assert canonical_key(path_graph(3)) != canonical_key(path_graph(4))


class TestFsm:
    def test_dense_graph_has_frequent_triangle(self):
        g = gnp_random_graph(25, 0.5, seed=1)
        run = SisaSession(g, threads=2).run("fsm", sigma=0.5, max_size=3)
        result = run.output
        assert 2 in result.frequent  # the single edge is frequent
        assert 3 in result.frequent
        keys = {canonical_key(p) for p in result.frequent[3]}
        assert canonical_key(complete_graph(3)) in keys

    def test_sparse_graph_stops_early(self):
        g = path_graph(30)
        run = SisaSession(g, threads=1).run("fsm", sigma=5.0, max_size=3)
        # Threshold sigma*n = 150 embeddings; a 30-path has 58 edge
        # embeddings, so nothing is frequent.
        assert run.output.total_frequent == 0

    def test_supports_recorded(self):
        g = complete_graph(6)
        run = SisaSession(g, threads=1).run("fsm", sigma=0.1, max_size=3)
        edge_key = canonical_key(CSRGraph.from_edges(2, [(0, 1)]))
        assert run.output.supports[edge_key] > 0

    def test_invalid_sigma(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            SisaSession(complete_graph(4)).run("fsm", sigma=0.0)

    def test_modes_agree(self):
        g = gnp_random_graph(16, 0.4, seed=3)
        a = SisaSession(g, threads=2, mode="sisa").run("fsm", sigma=0.3, max_size=3)
        b = SisaSession(g, threads=2, mode="cpu-set").run("fsm", sigma=0.3, max_size=3)
        assert set(a.output.supports) == set(b.output.supports)
        assert a.output.supports == b.output.supports
