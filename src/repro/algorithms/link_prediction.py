"""Link prediction and accuracy testing (paper Algorithm 10).

Pipeline (Wang et al.): remove a random subset ``E_rndm`` of the edges,
score candidate vertex pairs on the sparsified graph with a vertex
similarity measure, predict the top-scoring pairs, and measure
``eff = |E_predict ∩ E_rndm|``.

Edge sets are SISA sets over the pair universe (edge id = u * n + v for
u < v), stored as sparse arrays.  The final effectiveness computation
is one set intersection — exactly the paper's formulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSRGraph


def edge_ids(edges: np.ndarray, n: int) -> np.ndarray:
    """Canonical pair ids (u < v) over the universe of n*n pairs."""
    lo = np.minimum(edges[:, 0], edges[:, 1]).astype(np.int64)
    hi = np.maximum(edges[:, 0], edges[:, 1]).astype(np.int64)
    return lo * n + hi


@dataclass
class LinkPredictionResult:
    effectiveness: int
    removed_edges: int
    predicted_edges: int
    precision: float


def candidate_pairs(
    graph: CSRGraph, *, limit: int | None = None
) -> np.ndarray:
    """Two-hop non-adjacent vertex pairs: the standard candidate pool
    (any pair with no common neighbor scores zero under neighborhood
    measures, so scoring it is wasted work)."""
    n = graph.num_vertices
    seen: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for w in range(n):
        nbrs = graph.neighbors(w)
        for i in range(nbrs.size):
            for j in range(i + 1, nbrs.size):
                u, v = int(nbrs[i]), int(nbrs[j])
                key = u * n + v
                if key in seen or graph.has_edge(u, v):
                    continue
                seen.add(key)
                pairs.append((u, v))
                if limit is not None and len(pairs) >= limit:
                    return np.asarray(pairs, dtype=np.int64)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)
