"""Section 9.2, "Scalability": strong and weak scaling on Kronecker
graphs.

Paper: SISA maintains its speedups, but they become less distinctive
when T is small (fewer threads exert less pressure on the memory
subsystem).
"""

import pytest

from repro.baselines.nonset import kclique_count_nonset
from repro.graphs.generators import kronecker_graph
from repro.hw.config import commodity_cpu_config
from repro.session import SisaSession

from common import emit

THREADS = [1, 4, 16, 32]
CUTOFF = 20_000


def _strong_scaling():
    graph = kronecker_graph(10, 16, seed=3)
    rows = []
    for threads in THREADS:
        sisa = SisaSession(graph, threads=threads).run(
            "kclique", k=4, max_patterns=CUTOFF
        )
        nonset = kclique_count_nonset(
            graph,
            4,
            threads=threads,
            cpu=commodity_cpu_config(),
            max_patterns=CUTOFF,
        )
        rows.append(
            (
                threads,
                sisa.runtime_cycles / 1e6,
                nonset.runtime_cycles / 1e6,
                nonset.runtime_cycles / sisa.runtime_cycles,
            )
        )
    return rows


def _weak_scaling():
    rows = []
    for threads, scale in [(4, 9), (8, 10), (16, 11), (32, 12)]:
        graph = kronecker_graph(scale, 12, seed=5)
        sisa = SisaSession(graph, threads=threads).run(
            "kclique", k=4, max_patterns=CUTOFF
        )
        nonset = kclique_count_nonset(
            graph,
            4,
            threads=threads,
            cpu=commodity_cpu_config(),
            max_patterns=CUTOFF,
        )
        rows.append(
            (
                threads,
                graph.num_vertices,
                sisa.runtime_cycles / 1e6,
                nonset.runtime_cycles / sisa.runtime_cycles,
            )
        )
    return rows


def _render(strong, weak):
    print("== Scalability on Kronecker graphs (kcc-4) ==")
    print("\nStrong scaling (scale-10 graph, 16 edges/vertex):")
    print(f"{'T':>4}{'sisa Mcyc':>12}{'nonset Mcyc':>13}{'speedup':>9}")
    for threads, sisa, nonset, speedup in strong:
        print(f"{threads:>4}{sisa:>12.3f}{nonset:>13.3f}{speedup:>9.2f}x")
    print("\nWeak scaling (graph grows with T):")
    print(f"{'T':>4}{'n':>8}{'sisa Mcyc':>12}{'speedup':>9}")
    for threads, n, sisa, speedup in weak:
        print(f"{threads:>4}{n:>8}{sisa:>12.3f}{speedup:>9.2f}x")


def test_scalability(benchmark):
    strong = _strong_scaling()
    weak = _weak_scaling()
    emit("scalability", lambda: _render(strong, weak))
    # SISA keeps winning at every thread count...
    for __, __, __, speedup in strong:
        assert speedup > 1.0
    # ...and the advantage grows with thread pressure (paper: gains are
    # "less distinctive when T is small").
    assert strong[-1][3] > strong[0][3]
    graph = kronecker_graph(9, 8, seed=1)
    benchmark(
        lambda: SisaSession(graph, threads=32).run(
            "kclique", k=4, max_patterns=2000
        ).output
    )
