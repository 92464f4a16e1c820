"""Figure 6: the main result — non-set vs. set-based vs. SISA runtimes
across graph mining problems and datasets, with the paper's
speedup-summary lines.

Problems: clustering (cl-jac / cl-ovr / cl-tot), k-clique (kcc-4/5),
k-clique-star (ksc-4), maximal cliques (mc), triangles (tc), subgraph
isomorphism (si-3s, plus the labeled variant in bench_labeled_si).

The set-based and SISA variants run through the session API
(`benchmarks.common.session_cell`): one cold `SisaSession` per cell,
which issues exactly the instruction stream the historical one-shot
entry points issued.

Besides the text render, the bench writes `BENCH_fig6_main.json`: every
cell's exact modeled cycles and output digest, and nothing that varies
between runs (no wall times).  The record is committed, so any change
to a modeled cycle shows up as a diff of that file; CI runs the bench
and fails on `git diff --exit-code` of it.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.algorithms.subgraph_iso import star_pattern
from repro.baselines.nonset import (
    jarvis_patrick_nonset,
    kclique_count_nonset,
    kclique_star_nonset,
    maximal_cliques_nonset,
    subgraph_isomorphism_nonset,
    triangle_count_nonset,
)
from repro.bench.harness import ResultTable, run_three_variants
from repro.datasets import load
from repro.session import ExecutionConfig, SisaSession

from common import CUTOFFS, FIG6_GRAPHS, emit, emit_json, session_cell

THREADS = 32


def _digest_cliques(cliques):
    return (len(cliques), tuple(sorted(cliques)[:5]))


def _fill_table() -> ResultTable:
    table = ResultTable("Fig. 6 main result")
    for name in FIG6_GRAPHS:
        graph = load(name)

        run_three_variants(
            "tc", name, table,
            nonset=lambda: _pair(triangle_count_nonset(graph, threads=THREADS)),
            set_based=lambda: session_cell(
                graph, "triangles", threads=THREADS, mode="cpu-set"
            ),
            sisa=lambda: session_cell(graph, "triangles", threads=THREADS),
        )

        for k in (4, 5):
            cutoff = CUTOFFS["kcc"]
            run_three_variants(
                f"kcc-{k}", name, table,
                nonset=lambda: _pair(
                    kclique_count_nonset(
                        graph, k, threads=THREADS, max_patterns=cutoff
                    )
                ),
                set_based=lambda: session_cell(
                    graph, "kclique", threads=THREADS, mode="cpu-set",
                    k=k, max_patterns=cutoff,
                ),
                sisa=lambda: session_cell(
                    graph, "kclique", threads=THREADS, k=k, max_patterns=cutoff
                ),
            )

        cutoff = CUTOFFS["ksc"]
        run_three_variants(
            "ksc-4", name, table,
            nonset=lambda: _pair(
                kclique_star_nonset(graph, 4, threads=THREADS, max_patterns=cutoff),
                digest=len,
            ),
            set_based=lambda: session_cell(
                graph, "kclique_star", threads=THREADS, mode="cpu-set",
                k=4, max_patterns=cutoff, digest=len,
            ),
            sisa=lambda: session_cell(
                graph, "kclique_star", threads=THREADS,
                k=4, max_patterns=cutoff, digest=len,
            ),
        )

        cutoff = CUTOFFS["mc"]
        run_three_variants(
            "mc", name, table,
            nonset=lambda: _pair(
                maximal_cliques_nonset(
                    graph, threads=THREADS, max_patterns=cutoff
                ),
                digest=_digest_cliques,
            ),
            set_based=lambda: session_cell(
                graph, "maximal_cliques", threads=THREADS, mode="cpu-set",
                max_patterns=cutoff, digest=_digest_cliques,
            ),
            sisa=lambda: session_cell(
                graph, "maximal_cliques", threads=THREADS,
                max_patterns=cutoff, digest=_digest_cliques,
            ),
        )

        for measure, label in (
            ("jaccard", "cl-jac"),
            ("overlap", "cl-ovr"),
            ("total_neighbors", "cl-tot"),
        ):
            tau = {"jaccard": 0.2, "overlap": 0.4, "total_neighbors": 40.0}[measure]
            run_three_variants(
                label, name, table,
                nonset=lambda: _pair(
                    jarvis_patrick_nonset(
                        graph, tau=tau, measure=measure, threads=THREADS
                    )
                ),
                set_based=lambda: session_cell(
                    graph, "jarvis_patrick", threads=THREADS, mode="cpu-set",
                    tau=tau, measure=measure,
                    digest=lambda out: tuple(out["edges"][:20]),
                ),
                sisa=lambda: session_cell(
                    graph, "jarvis_patrick", threads=THREADS,
                    tau=tau, measure=measure,
                    digest=lambda out: tuple(out["edges"][:20]),
                ),
                check_outputs=False,  # digests differ in type across variants
            )

        pattern = star_pattern(3)
        cutoff = CUTOFFS["si"]
        run_three_variants(
            "si-3s", name, table,
            nonset=lambda: _pair(
                subgraph_isomorphism_nonset(
                    graph, pattern, threads=THREADS, max_matches=cutoff
                )
            ),
            set_based=lambda: session_cell(
                graph, "subgraph_iso", threads=THREADS, mode="cpu-set",
                pattern=pattern, max_matches=cutoff,
            ),
            sisa=lambda: session_cell(
                graph, "subgraph_iso", threads=THREADS,
                pattern=pattern, max_matches=cutoff,
            ),
        )
    return table


def _jsonable(value):
    """A digest as JSON-native data (numpy scalars as Python numbers,
    tuples as lists), so the record reads the same under every NumPy."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def _record(table: ResultTable) -> dict:
    """Every cell's exact modeled cycles and the SHA-1 of its output
    digest (as compact JSON), keyed ``problem/graph/variant`` in table
    order."""
    return {
        f"{cell.problem}/{cell.graph}/{cell.variant}": {
            "cycles": cell.runtime_cycles,
            "digest": hashlib.sha1(
                json.dumps(
                    _jsonable(cell.output_digest), separators=(",", ":")
                ).encode()
            ).hexdigest(),
        }
        for cell in table.cells
    }


def _pair(run, digest=None):
    output = run.output
    if digest is not None:
        output = digest(output)
    return output, run.report.runtime_cycles if hasattr(run, "report") else run.runtime_cycles


def test_fig6_main(benchmark):
    table = _fill_table()
    emit("fig6_main", table.print_all)
    emit_json("fig6_main", _record(table))
    # The headline shape: SISA is the fastest variant on average for
    # every pattern-matching problem.
    for problem in table.problems():
        sisa = table.runtimes(problem, "sisa")
        nonset = table.runtimes(problem, "non-set")
        summary = table.summary(problem, "non-set", "sisa")
        assert sum(sisa) < sum(nonset), problem
        assert summary.speedup_of_avgs > 1.0, problem
    graph = load("int-antCol5-d1")
    session = SisaSession(graph, ExecutionConfig(threads=32))
    benchmark(
        lambda: session.run("kclique", k=4, max_patterns=2000).output
    )
