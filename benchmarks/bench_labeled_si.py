"""Section 9.2, "Labels": labeled subgraph isomorphism.

Paper: "Most often, labeled graphs are faster to process.  Despite
more memory accesses, the labels form additional constraints, which
eliminates some recursive calls earlier."  Each vertex receives one of
3 random labels.
"""

import pytest

from repro.algorithms.subgraph_iso import star_pattern
from repro.graphs.generators import chung_lu_graph
from repro.graphs.labels import Labeling
from repro.session import SisaSession

from common import emit

NUM_LABELS = 3


def _collect():
    rows = []
    # Light-tailed targets keep the *full* (uncut) star enumeration
    # tractable in pure Python; the labeled-vs-unlabeled effect does
    # not depend on the tail.
    for name, graph in (
        ("chung-lu-300", chung_lu_graph(300, 1200, gamma=3.0, seed=21)),
        ("chung-lu-400", chung_lu_graph(400, 1500, gamma=3.2, seed=22)),
    ):
        pattern = star_pattern(3)
        unlabeled = SisaSession(graph, threads=32).run("subgraph_iso", pattern=pattern)
        labeled = SisaSession(graph, threads=32).run(
            "subgraph_iso",
            pattern=pattern,
            target_labels=Labeling.random(graph, NUM_LABELS, seed=1),
            pattern_labels=Labeling(pattern, [0, 1, 2, 0]),
        )
        rows.append(
            (
                name,
                unlabeled.output,
                unlabeled.runtime_cycles / 1e6,
                labeled.output,
                labeled.runtime_cycles / 1e6,
            )
        )
    return rows


def _render(rows):
    print("== Labeled subgraph isomorphism (si-3s, 3 random labels) ==")
    print(
        f"{'graph':<16}{'matches':>10}{'Mcyc':>10}"
        f"{'matches-L':>11}{'Mcyc-L':>10}{'speedup':>9}"
    )
    for name, matches, mcycles, matches_l, mcycles_l in rows:
        print(
            f"{name:<16}{matches:>10}{mcycles:>10.3f}"
            f"{matches_l:>11}{mcycles_l:>10.3f}{mcycles / mcycles_l:>9.2f}x"
        )


def test_labeled_si(benchmark):
    rows = _collect()
    emit("labeled_si", lambda: _render(rows))
    for name, matches, mcycles, matches_l, mcycles_l in rows:
        assert matches_l < matches  # labels constrain the matches
        assert mcycles_l < mcycles  # and prune the search
    graph = chung_lu_graph(300, 1200, gamma=3.0, seed=23)
    pattern = star_pattern(3)
    benchmark(
        lambda: SisaSession(graph, threads=32).run(
            "subgraph_iso", pattern=pattern, max_matches=2000
        ).output
    )
