"""SetGraph: a graph whose neighborhoods are SISA sets.

Implements the paper's predefined graph structure (Section 6.1): when a
SISA program starts, small neighborhoods are created as sparse arrays
and large ones as dense bitvectors.  Two selection policies are
provided:

* ``policy="fraction"`` — the largest ``t`` fraction of neighborhoods
  become DBs (the evaluation's phrasing: "40% of neighborhoods are
  stored as DBs", and Fig. 7b's x-axis "% of neighborhoods kept as
  DBs");
* ``policy="threshold"`` — ``N(v)`` becomes a DB iff ``|N(v)| >= t*n``
  (Section 6.1's formula).

Either way, DBs are admitted in decreasing degree order while the extra
storage stays within ``budget`` (default 10%) of the all-SA footprint,
matching the paper's storage-budget rule.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.graphs.digraph import DiGraph
from repro.runtime.context import SisaContext
from repro.sets.dense import DenseBitvector
from repro.sets.sparse import SparseArray


class SetGraph:
    """Neighborhood sets registered in a :class:`SisaContext`."""

    def __init__(
        self,
        ctx: SisaContext,
        neighborhoods: list[np.ndarray],
        universe: int,
        *,
        t: float = 0.4,
        budget: float = 0.1,
        policy: str = "fraction",
    ):
        if not 0.0 <= t <= 1.0:
            raise ConfigError("t must be in [0, 1]")
        if budget < 0.0:
            raise ConfigError("budget must be non-negative")
        if policy not in ("fraction", "threshold"):
            raise ConfigError("policy must be 'fraction' or 'threshold'")
        self.ctx = ctx
        self.universe = universe
        self.t = t
        self.budget = budget
        self.policy = policy
        self._set_ids: list[int] = []
        self._dense_mask = self._choose_dense(neighborhoods)
        for v, nbrs in enumerate(neighborhoods):
            if self._dense_mask[v]:
                value = DenseBitvector.from_elements(nbrs, universe)
            else:
                value = SparseArray.from_sorted(
                    np.asarray(nbrs, dtype=np.int64), universe
                )
            # Neighborhood materialization is graph loading, not part of
            # the measured region: register without charging.
            self._set_ids.append(ctx.register(value, charge=False))

    # ------------------------------------------------------------------

    def _choose_dense(self, neighborhoods: list[np.ndarray]) -> np.ndarray:
        degrees = np.asarray([len(nbrs) for nbrs in neighborhoods], dtype=np.int64)
        count = degrees.size
        dense = np.zeros(count, dtype=bool)
        # The dense-bitvector representation is a SISA feature enabled
        # by in-situ PIM; the host `_set-based` baseline stores every
        # neighborhood as a sorted array, as tuned CPU set-centric
        # codes do.
        if count == 0 or self.t == 0.0 or self.ctx.mode == "cpu-set":
            return dense
        word_bits = self.ctx.hw.word_bits
        sa_total_bits = int(word_bits * degrees.sum())
        budget_bits = self.budget * sa_total_bits
        order = np.argsort(-degrees, kind="stable")
        if self.policy == "fraction":
            candidates = order[: int(round(self.t * count))]
        else:
            candidates = order[degrees[order] >= self.t * self.universe]
        extra = 0.0
        for v in candidates:
            delta = max(0, self.universe - word_bits * int(degrees[v]))
            if extra + delta > budget_bits:
                # Budget exhausted: skip DBs that need extra storage
                # (paper: "above a certain number of DBs, SISA starts
                # to use SAs only").  DBs no larger than their SA are
                # always admitted (delta == 0).
                if delta > 0:
                    continue
            dense[v] = True
            extra += delta
        return dense

    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: CSRGraph,
        ctx: SisaContext,
        *,
        t: float = 0.4,
        budget: float = 0.1,
        policy: str = "fraction",
    ) -> "SetGraph":
        neighborhoods = [graph.neighbors(v) for v in range(graph.num_vertices)]
        return cls(
            ctx,
            neighborhoods,
            graph.num_vertices,
            t=t,
            budget=budget,
            policy=policy,
        )

    @classmethod
    def from_digraph(
        cls,
        digraph: DiGraph,
        ctx: SisaContext,
        *,
        t: float = 0.4,
        budget: float = 0.1,
        policy: str = "fraction",
    ) -> "SetGraph":
        neighborhoods = [
            digraph.out_neighbors(v) for v in range(digraph.num_vertices)
        ]
        return cls(
            ctx,
            neighborhoods,
            digraph.num_vertices,
            t=t,
            budget=budget,
            policy=policy,
        )

    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._set_ids)

    def neighborhood(self, v: int) -> int:
        """Set ID of ``N(v)`` (or ``N+(v)`` for oriented SetGraphs)."""
        return self._set_ids[v]

    @property
    def set_ids(self) -> list[int]:
        """Per-vertex neighborhood set IDs (``repro.streaming`` mutates
        the underlying sets through these)."""
        return self._set_ids

    def degree(self, v: int) -> int:
        return self.ctx.sm.meta(self._set_ids[v]).cardinality

    @property
    def dense_mask(self) -> np.ndarray:
        return self._dense_mask

    @property
    def num_dense(self) -> int:
        return int(self._dense_mask.sum())

    @property
    def dense_fraction(self) -> float:
        return self.num_dense / self.num_vertices if self.num_vertices else 0.0

    @property
    def storage_bits(self) -> int:
        return sum(
            self.ctx.value(set_id).storage_bits for set_id in self._set_ids
        )
