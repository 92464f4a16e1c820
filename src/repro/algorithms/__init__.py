"""Set-centric graph mining kernels (paper Section 5).

Each ``*_on`` kernel runs against a caller-owned
:class:`~repro.runtime.context.SisaContext` and SetGraph; the session
API (``SisaSession.run("triangles")`` and friends) is the entry point
that owns both.
"""

from repro.algorithms.bfs import bfs_on
from repro.algorithms.bron_kerbosch import maximal_cliques_on
from repro.algorithms.clique_star import (
    kclique_star_from_k1_on,
    kclique_star_intersect_on,
)
from repro.algorithms.clustering import clusters_from_edges, jarvis_patrick_on
from repro.algorithms.common import PatternBudget
from repro.algorithms.degeneracy import approx_degeneracy_on
from repro.algorithms.fsm import FsmResult, frequent_subgraphs_on
from repro.algorithms.kclique import four_clique_count_on, kclique_count_on
from repro.algorithms.link_prediction import LinkPredictionResult
from repro.algorithms.similarity import (
    MEASURES,
    all_pairs_similarity_on,
    similarity_on,
)
from repro.algorithms.subgraph_iso import star_pattern, subgraph_isomorphism_on
from repro.algorithms.triangles import triangle_count_oriented

__all__ = [
    "bfs_on",
    "maximal_cliques_on",
    "kclique_star_from_k1_on",
    "kclique_star_intersect_on",
    "clusters_from_edges",
    "jarvis_patrick_on",
    "PatternBudget",
    "approx_degeneracy_on",
    "FsmResult",
    "frequent_subgraphs_on",
    "four_clique_count_on",
    "kclique_count_on",
    "LinkPredictionResult",
    "MEASURES",
    "all_pairs_similarity_on",
    "similarity_on",
    "star_pattern",
    "subgraph_isomorphism_on",
    "triangle_count_oriented",
]
