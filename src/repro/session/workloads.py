"""Built-in session workloads.

Each workload wraps one of the set-centric algorithm kernels
(``repro.algorithms.*_on``) and pulls its input structures from the
owning session's caches, so repeated runs skip context construction,
neighborhood-set registration and degeneracy orientation.

This module is imported lazily by the registry, on the first lookup.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.bfs import bfs_on
from repro.algorithms.bron_kerbosch import maximal_cliques_on
from repro.algorithms.clique_star import (
    kclique_star_from_k1_on,
    kclique_star_intersect_on,
)
from repro.algorithms.clustering import clusters_from_edges, jarvis_patrick_on
from repro.algorithms.degeneracy import approx_degeneracy_on
from repro.algorithms.fsm import frequent_subgraphs_on
from repro.algorithms.kclique import four_clique_count_on, kclique_count_on
from repro.algorithms.link_prediction import (
    LinkPredictionResult,
    candidate_pairs,
    edge_ids,
)
from repro.algorithms.similarity import (
    all_pairs_similarity_on,
    iter_shared_first_runs,
    score_counts,
    similarity_on,
)
from repro.algorithms.subgraph_iso import subgraph_isomorphism_on
from repro.algorithms.triangles import triangle_count_oriented
from repro.errors import ConfigError
from repro.graphs.csr import CSRGraph
from repro.runtime.setgraph import SetGraph
from repro.session.plan import (
    BurstUnit,
    Fanout,
    PlanStage,
    fanout_stage,
    subrequest_key,
)
from repro.session.registry import workload
from repro.streaming.incremental import degrees_of, local_triangle_counts


# ---------------------------------------------------------------------------
# Stage compilers (plan API)
#
# Each builder decomposes its workload into the declarative stage list a
# WorkloadPlan executes: prep (which cached structure to touch), the
# count-form frontier bursts as schedulable units, and host-side
# finalization.  Executed in order, the stages reproduce the eager
# kernel's instruction stream op for op (asserted bit-identical in
# tests/test_session.py and, machine state included, for the watchlist
# stage by tests/test_plans.py's
# test_similarity_pairs_stage_matches_the_eager_kernel) while exposing
# the bursts for cross-plan fusion and the shared sub-requests (e.g. the
# triangle count inside clustering_coefficient) for dedup.  Finalizers
# read a churned graph's degrees from set metadata, never from a rebuilt
# CSR (test_clustering_coefficient_builds_no_csr_after_churn in
# tests/test_orientation_maintenance.py).  A builder returns None when
# the requested parameters are not decomposable (e.g. a shared-neighbor
# similarity measure); the plan then falls back to one opaque call
# stage.
# ---------------------------------------------------------------------------


def _prep_stage(which: str) -> PlanStage:
    def run(session, state, *, _which=which):
        if _which in ("undirected", "both"):
            session.setgraph
        if _which in ("oriented", "both"):
            session.oriented_setgraph
        return None

    # A prep stage *constructs* the cached structure it names; the bare
    # name in ``writes`` expands to the ``struct:`` tokens (build-once,
    # so concurrent prep of one struct is sharing, not a WAW hazard).
    return PlanStage(
        kind="call",
        label=f"prep:{which}",
        reads=(which,),
        writes=(which,),
        run=run,
    )


def _init_triangles(state, n):
    state["triangles"] = 0


def _fold_triangles(state, vs, sums):
    state["triangles"] += int(sums.sum())


def _triangle_burst_stage() -> PlanStage:
    """The shared triangle-count burst stage (Algorithm 1's oriented
    ``|N+(u) ∩ N+(v)|`` fan-out) — the sub-request both ``triangles``
    and ``clustering_coefficient`` plans schedule, under one dedup key."""
    return fanout_stage(
        "bursts:triangles",
        subrequest_key("triangles", {}),
        Fanout("oriented", "triangles", _init_triangles, _fold_triangles),
    )


def _triangles_stages(session, params):
    return [_prep_stage("oriented"), _triangle_burst_stage()]


def _global_clustering(session, triangles: int) -> float:
    """The global clustering coefficient ``3T / Σ_v d(v)(d(v) - 1) / 2``
    from the triangle count ``T``.  Degrees are the construction
    graph's, or with a stream attached its set metadata (uncharged),
    never a CSR rebuilt for them."""
    stream = session._stream
    degrees = session.graph.degrees if stream is None else degrees_of(stream)
    d = degrees.astype(float)
    wedges = float((d * (d - 1) / 2).sum())
    return 3.0 * triangles / wedges if wedges > 0 else 0.0


def _clustering_coefficient_stages(session, params):
    def finalize(session, state):
        return _global_clustering(session, state["triangles"])

    return [
        _prep_stage("oriented"),
        _triangle_burst_stage(),
        PlanStage(
            kind="call",
            label="finalize:wedges",
            reads=("state:triangles",),
            run=finalize,
        ),
    ]


def _init_local_counts(state, n):
    state["counts"] = np.zeros(n, dtype=np.int64)


def _fold_local_counts(state, vs, sums):
    # Σ_{u∈N(v)} |N(v) ∩ N(u)| counts each triangle at v twice.
    state["counts"][vs] = sums // 2


def _local_clustering_stages(session, params):
    def finalize(session, state):
        counts = state["counts"]
        d = degrees_of(session.setgraph).astype(np.float64)
        denom = d * (d - 1.0)
        return np.divide(
            2.0 * counts.astype(np.float64),
            denom,
            out=np.zeros(counts.size, dtype=np.float64),
            where=denom > 0,
        )

    return [
        _prep_stage("undirected"),
        fanout_stage(
            "bursts:local_triangles",
            subrequest_key("local_triangle_counts", {}),
            Fanout("undirected", "counts", _init_local_counts, _fold_local_counts),
        ),
        PlanStage(
            kind="call",
            label="finalize:coefficients",
            reads=("state:counts",),
            run=finalize,
        ),
    ]


# Count measures whose per-run burst + hoisted cardinality fetches the
# stage compiler can reproduce exactly (shared-neighbor measures batch
# through the materializing fan-out and stay opaque).
_PLANNABLE_MEASURES = ("jaccard", "overlap", "common_neighbors", "total_neighbors")


def _similarity_pairs_stages(session, params):
    measure = params.get("measure", "jaccard")
    if (
        "pairs" not in params  # let the opaque path raise the usual error
        or measure not in _PLANNABLE_MEASURES
    ):
        return None
    pairs = np.asarray(params["pairs"], dtype=np.int64)
    kind = "union" if measure == "total_neighbors" else "intersect"

    def units(session, state):
        sg = session.setgraph
        ctx = session.ctx
        scores = state["scores"] = np.zeros(len(pairs), dtype=np.float64)
        for u, i, j in iter_shared_first_runs(pairs):
            lane = ctx.begin_task()
            vs = [int(p[1]) for p in pairs[i:j]]
            nu = sg.neighborhood(u)
            nvs = [sg.neighborhood(v) for v in vs]

            def sink(counts, *, _i=i, _j=j, _nu=nu, _nvs=nvs):
                scores[_i:_j] = score_counts(ctx, _nu, _nvs, counts, measure)

            yield BurstUnit(
                a=nu,
                bs=nvs,
                kind=kind,
                lane=lane,
                sink=sink,
                writes=("state:scores",),
            )

    return [
        _prep_stage("undirected"),
        PlanStage(
            kind="bursts",
            label=f"bursts:watchlist-{measure}",
            reads=("undirected",),
            key=subrequest_key(
                "similarity_pairs",
                {"pairs": pairs, "measure": measure},
            ),
            units=units,
            result=lambda state: state["scores"],
            seed=lambda state, value: state.__setitem__("scores", value),
            writes=("state:scores",),
            seeds=("state:scores",),
        ),
    ]


# ---------------------------------------------------------------------------
# Pattern matching
# ---------------------------------------------------------------------------


@workload(
    "triangles",
    requires="oriented",
    view_capable=True,
    description="Triangle count (Algorithm 1, oriented count bursts)",
    stages=_triangles_stages,
)
def _triangles(session, *, view=None):
    ctx = session.ctx
    if view is not None:
        # Unoriented full recompute on a snapshot / live view: per-
        # vertex count bursts; each triangle is seen twice per vertex.
        return int(local_triangle_counts(view, ctx).sum()) // 3
    return triangle_count_oriented(session.oriented_setgraph, ctx)


@workload(
    "clustering_coefficient",
    requires="oriented",
    description="Global clustering coefficient 3T / open wedges",
    stages=_clustering_coefficient_stages,
    subrequests=("triangles",),
)
def _clustering_coefficient(session):
    return _global_clustering(
        session, triangle_count_oriented(session.oriented_setgraph, session.ctx)
    )


@workload(
    "local_clustering",
    requires="undirected",
    view_capable=True,
    description="Per-vertex local clustering coefficients",
    stages=_local_clustering_stages,
    subrequests=("local_triangle_counts",),
)
def _local_clustering(session, *, view=None):
    target = view if view is not None else session.setgraph
    counts = local_triangle_counts(target, session.ctx)
    degrees = degrees_of(target)
    d = degrees.astype(np.float64)
    denom = d * (d - 1.0)
    return np.divide(
        2.0 * counts.astype(np.float64),
        denom,
        out=np.zeros(counts.size, dtype=np.float64),
        where=denom > 0,
    )


@workload(
    "kclique",
    requires="oriented",
    effect_writes=("sets:scratch",),
    description="k-clique counting/listing (Algorithm 3)",
)
def _kclique(session, *, k, max_patterns=None, collect=False):
    return kclique_count_on(
        session.ctx,
        session.oriented_setgraph,
        k,
        max_patterns=max_patterns,
        collect=collect,
    )


@workload(
    "four_clique",
    requires="oriented",
    effect_writes=("sets:scratch",),
    description="Specialized 4-clique counting (Table 4)",
)
def _four_clique(session, *, max_patterns=None):
    return four_clique_count_on(
        session.ctx, session.oriented_setgraph, max_patterns=max_patterns
    )


@workload(
    "kclique_star",
    # Algorithm 5 (from_k1) reads only the orientation; Algorithm 4
    # (intersect) also intersects *undirected* neighborhoods.
    requires=lambda params: (
        "both" if params.get("variant") == "intersect" else "oriented"
    ),
    description="k-clique-star listing (Algorithms 4 and 5)",
    effect_writes=("sets:scratch",),
)
def _kclique_star(session, *, k, variant="from_k1", max_patterns=None):
    if variant not in ("intersect", "from_k1"):
        raise ConfigError("variant must be 'intersect' or 'from_k1'")
    ctx = session.ctx
    oriented = session.oriented_setgraph
    if variant == "from_k1":
        return kclique_star_from_k1_on(ctx, oriented, k, max_patterns=max_patterns)
    return kclique_star_intersect_on(
        session.current_graph,
        ctx,
        session.setgraph,
        oriented,
        k,
        max_patterns=max_patterns,
    )


@workload(
    "maximal_cliques",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Bron-Kerbosch maximal clique listing (Algorithm 2)",
)
def _maximal_cliques(session, *, max_patterns=None, max_patterns_per_root=None):
    return maximal_cliques_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        max_patterns=max_patterns,
        max_patterns_per_root=max_patterns_per_root,
        order=session.degeneracy.order,
    )


@workload(
    "subgraph_iso",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="VF2 subgraph isomorphism (Algorithm 7)",
)
def _subgraph_iso(
    session,
    *,
    pattern,
    target_labels=None,
    pattern_labels=None,
    max_matches=None,
    collect=False,
):
    return subgraph_isomorphism_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        pattern,
        target_labels=target_labels,
        pattern_labels=pattern_labels,
        max_matches=max_matches,
        collect=collect,
    )


@workload(
    "fsm",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Apriori frequent subgraph mining (Algorithm 8)",
)
def _fsm(session, *, sigma=0.5, max_size=3, max_matches_per_pattern=2_000):
    return frequent_subgraphs_on(
        session.current_graph,
        session.ctx,
        session.setgraph,
        sigma=sigma,
        max_size=max_size,
        max_matches_per_pattern=max_matches_per_pattern,
    )


# ---------------------------------------------------------------------------
# Learning / similarity
# ---------------------------------------------------------------------------


@workload(
    "similarity",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Vertex-pair neighborhood similarity (Algorithm 9)",
)
def _similarity(session, *, u, v, measure="jaccard"):
    return similarity_on(session.ctx, session.setgraph, u, v, measure=measure)


@workload(
    "similarity_pairs",
    requires="undirected",
    view_capable=True,
    description="Batched similarity scores for a pair list",
    stages=_similarity_pairs_stages,
    normalize=lambda session, params: {
        "pairs": np.asarray(params["pairs"], dtype=np.int64),
        "measure": params.get("measure", "jaccard"),
    }
    if "pairs" in params
    else params,
)
def _similarity_pairs(session, *, pairs, measure="jaccard", view=None):
    target = view if view is not None else session.setgraph
    return all_pairs_similarity_on(
        session.ctx, target, np.asarray(pairs, dtype=np.int64), measure=measure
    )


@workload(
    "jarvis_patrick",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Jarvis-Patrick similarity clustering (Algorithm 11)",
)
def _jarvis_patrick(session, *, tau=2.0, measure="common_neighbors"):
    graph = session.current_graph
    kept = jarvis_patrick_on(
        graph, session.ctx, session.setgraph, tau=tau, measure=measure
    )
    clusters = clusters_from_edges(graph.num_vertices, kept)
    return {"edges": kept, "clusters": clusters}


@workload(
    "link_prediction",
    requires="none",
    effect_writes=("sets:scratch",),
    description="Link prediction + accuracy test (Algorithm 10)",
)
def _link_prediction(
    session,
    *,
    removal_fraction=0.1,
    measure="jaccard",
    top_k=None,
    candidate_limit=20_000,
    seed=7,
):
    """Full Algorithm 10 pipeline on a per-run sparsified graph.

    The sparsification (and thus the candidate SetGraph) is part of the
    workload, not the session: each run removes its own random edge
    subset, so the session's cached sets are not used here and the
    per-run setup is re-registered (uncharged) every time.  The per-run
    sets are released (model-internal, uncharged) before returning, so
    a long-lived session stays bounded under repeated runs.
    """
    if not 0.0 < removal_fraction < 1.0:
        raise ConfigError("removal_fraction must be in (0, 1)")
    ctx = session.ctx
    config = session.config
    graph = session.current_graph
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    edges = graph.edge_array()
    m = edges.shape[0]
    removed_count = max(1, int(removal_fraction * m))
    removed_idx = rng.choice(m, size=removed_count, replace=False)
    removed_mask = np.zeros(m, dtype=bool)
    removed_mask[removed_idx] = True
    sparse_edges = edges[~removed_mask]
    removed_edges = edges[removed_mask]

    sparse_graph = CSRGraph.from_edges(n, sparse_edges)
    sg = SetGraph.from_graph(
        sparse_graph, ctx, t=config.t, budget=config.budget, policy=config.policy
    )

    # E_rndm and (later) E_predict live in the pair-id universe.
    pair_universe = n * n
    e_rndm = ctx.create_set(
        edge_ids(removed_edges, n), universe=pair_universe, dense=False
    )

    pairs = candidate_pairs(sparse_graph, limit=candidate_limit)
    scores = all_pairs_similarity_on(ctx, sg, pairs, measure=measure)
    if top_k is None:
        top_k = removed_count
    top_k = min(top_k, len(pairs))
    top_idx = np.argsort(-scores, kind="stable")[:top_k]
    predicted = pairs[np.sort(top_idx)]
    e_predict = ctx.create_set(
        edge_ids(predicted, n) if len(predicted) else [],
        universe=pair_universe,
        dense=False,
    )
    eff = ctx.intersect_count(e_predict, e_rndm)
    for sid in (*sg.set_ids, e_rndm, e_predict):
        ctx.release(sid)
    return LinkPredictionResult(
        effectiveness=eff,
        removed_edges=removed_count,
        predicted_edges=top_k,
        precision=eff / top_k if top_k else 0.0,
    )


# ---------------------------------------------------------------------------
# Orders / traversal
# ---------------------------------------------------------------------------


@workload(
    "approx_degeneracy",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Streaming approximate degeneracy order (Algorithm 6)",
)
def _approx_degeneracy(session, *, eps=0.5):
    return approx_degeneracy_on(
        session.current_graph, session.ctx, session.setgraph, eps=eps
    )


@workload(
    "bfs",
    requires="undirected",
    effect_writes=("sets:scratch",),
    description="Set-centric direction-optimizing BFS (Algorithm 12)",
)
def _bfs(session, *, root=0, direction="auto"):
    return bfs_on(session.ctx, session.setgraph, root, direction=direction)
