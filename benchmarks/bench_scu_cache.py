"""Section 9.2, "SCU cache" and "SCU cache: shared vs private".

Paper: disabling the SCU metadata cache costs ~1.5x at T=1 and a few
percent at T=32 (more threads -> lower hit ratio); a shared cache adds
a small (<1%) slowdown from its longer access latency.
"""

import pytest

from repro.datasets import load
from repro.hw.config import HardwareConfig
from repro.session import SisaSession

from common import emit

GRAPH = "intD-antCol4"
CUTOFF = 20_000


def _sweep():
    graph = load(GRAPH)
    rows = []
    for threads in (1, 32):
        with_cache = SisaSession(graph, threads=threads).run(
            "kclique", k=4, max_patterns=CUTOFF
        )
        without = SisaSession(graph, threads=threads, smb_enabled=False).run(
            "kclique", k=4, max_patterns=CUTOFF
        )
        hit_rate = with_cache.context.scu.smb.stats.hit_rate
        rows.append(
            (
                threads,
                with_cache.runtime_cycles / 1e6,
                without.runtime_cycles / 1e6,
                without.runtime_cycles / with_cache.runtime_cycles,
                hit_rate,
            )
        )
    # Shared cache: model as a single SMB with higher hit rate but a
    # 2-cycle higher hit latency (the paper's small slowdown).
    shared_hw = HardwareConfig(sm_hit_cycles=4.0, smb_entries=4096)
    shared = SisaSession(graph, threads=32, hw=shared_hw).run(
        "kclique", k=4, max_patterns=CUTOFF
    )
    return rows, shared.runtime_cycles / 1e6


def _render(rows, shared_mcycles):
    print("== SCU metadata cache sensitivity (kcc-4) ==")
    print(
        f"{'T':>4}{'with SMB':>11}{'no SMB':>11}{'slowdown':>10}{'hit rate':>10}"
    )
    for threads, with_cache, without, slowdown, hits in rows:
        print(
            f"{threads:>4}{with_cache:>11.3f}{without:>11.3f}"
            f"{slowdown:>10.2f}x{hits:>9.0%}"
        )
    t32 = rows[-1][1]
    print(
        f"\nshared SCU cache at T=32: {shared_mcycles:.3f} Mcycles "
        f"({shared_mcycles / t32 - 1:+.1%} vs private)"
    )


def test_scu_cache(benchmark):
    rows, shared = _sweep()
    emit("scu_cache", lambda: _render(rows, shared))
    t1 = rows[0]
    t32 = rows[1]
    assert t1[3] > 1.0  # no-SMB hurts at T=1
    assert t1[4] > 0.5  # decent hit rate single-threaded
    # The paper: the relative penalty shrinks (or at least does not
    # grow) with more threads.
    assert t32[3] <= t1[3] + 0.2
    # Shared cache within a few percent of private.
    assert abs(shared / t32[1] - 1.0) < 0.1
    graph = load(GRAPH)
    benchmark(
        lambda: SisaSession(graph, threads=1).run(
            "kclique", k=4, max_patterns=2000
        ).output
    )
