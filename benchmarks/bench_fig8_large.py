"""Figure 8: large graphs — kcc-4/5 and ksc-4/5 relative runtimes on
the (scaled-down) large-graph suite at 8 threads.

Paper: benefits are similar to small graphs, except sc-pwtk and
soc-orkut where SISA and the non-SISA set baseline are comparable
because those networks lack large cliques and dense clusters.
"""

import pytest

from repro.baselines.nonset import kclique_count_nonset, kclique_star_nonset
from repro.bench.harness import ResultTable
from repro.datasets import load
from repro.session import SisaSession

from common import emit

GRAPHS = [
    "bio-humanGene",
    "bio-mouseGene",
    "int-dating",
    "edit-enwiktionary",
    "sc-pwtk",
    "soc-orkut",
]
THREADS = 8
CUTOFF = 20_000


def _fill_table() -> ResultTable:
    table = ResultTable("Fig. 8 large graphs")
    for name in GRAPHS:
        graph = load(name)
        for k in (4, 5):
            nonset = kclique_count_nonset(
                graph, k, threads=THREADS, max_patterns=CUTOFF
            )
            set_based = SisaSession(graph, threads=THREADS, mode="cpu-set").run(
                "kclique", k=k, max_patterns=CUTOFF
            )
            sisa = SisaSession(graph, threads=THREADS).run(
                "kclique", k=k, max_patterns=CUTOFF
            )
            assert nonset.output == set_based.output == sisa.output
            table.add(f"kcc-{k}", name, "non-set", nonset.runtime_cycles)
            table.add(f"kcc-{k}", name, "set-based", set_based.runtime_cycles)
            table.add(f"kcc-{k}", name, "sisa", sisa.runtime_cycles)
        for k in (4,):
            nonset = kclique_star_nonset(
                graph, k, threads=THREADS, max_patterns=5000
            )
            set_based = SisaSession(graph, threads=THREADS, mode="cpu-set").run(
                "kclique_star", k=k, max_patterns=5000
            )
            sisa = SisaSession(graph, threads=THREADS).run(
                "kclique_star", k=k, max_patterns=5000
            )
            table.add(f"ksc-{k}", name, "non-set", nonset.runtime_cycles)
            table.add(f"ksc-{k}", name, "set-based", set_based.runtime_cycles)
            table.add(f"ksc-{k}", name, "sisa", sisa.runtime_cycles)
    return table


def _render(table: ResultTable):
    table.print_all()
    print(
        "\nNote: large graphs are scaled-down stand-ins; scale factors "
        "are recorded in repro/datasets/registry.py."
    )


def test_fig8_large_graphs(benchmark):
    table = _fill_table()
    emit("fig8_large", lambda: _render(table))
    for problem in table.problems():
        # SISA stays ahead of non-set on average.
        summary = table.summary(problem, "non-set", "sisa")
        assert summary.speedup_of_avgs > 1.0
    # The paper's caveat: on the cluster-free graphs, SISA and the
    # set baseline are comparable (within ~2x rather than ~10x).
    kcc4 = {
        cell.graph: cell.runtime_mcycles
        for cell in table.cells
        if cell.problem == "kcc-4" and cell.variant == "sisa"
    }
    setb = {
        cell.graph: cell.runtime_mcycles
        for cell in table.cells
        if cell.problem == "kcc-4" and cell.variant == "set-based"
    }
    for light in ("sc-pwtk",):
        assert setb[light] / kcc4[light] < 3.0
    graph = load("sc-pwtk")
    benchmark(
        lambda: SisaSession(graph, threads=8).run(
            "kclique", k=4, max_patterns=2000
        ).output
    )
