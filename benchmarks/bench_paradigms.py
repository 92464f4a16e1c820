"""Section 9.2, "Comparison to Other Paradigms": SISA vs. the
neighborhood-expansion (Peregrine/GRAMER) and relational-join
(RStream/TrieJax) paradigms.

Paper: SISA is 10-100x faster than Peregrine (and >1000x for mc, which
Peregrine cannot express natively) and >100x faster than RStream.
"""

import pytest

from repro.baselines.frameworks import (
    peregrine_like_kclique,
    peregrine_like_maximal_cliques,
    rstream_like_kclique,
)
from repro.datasets import load
from repro.session import SisaSession

from common import emit

GRAPHS = ["int-HosWardProx", "bn-flyMedulla", "soc-fbMsg"]


def _collect():
    rows = []
    for name in GRAPHS:
        graph = load(name)
        sisa_kcc = SisaSession(graph, threads=32).run(
            "kclique", k=4, max_patterns=10_000
        )
        peregrine = peregrine_like_kclique(
            graph, 4, threads=32, max_patterns=10_000
        )
        rstream = rstream_like_kclique(graph, 4, threads=32)
        sisa_mc = SisaSession(graph, threads=32).run(
            "maximal_cliques", max_patterns=300
        )
        peregrine_mc = peregrine_like_maximal_cliques(
            graph, threads=32, max_patterns=300, max_size=6
        )
        rows.append(
            {
                "graph": name,
                "kcc_sisa": sisa_kcc.runtime_cycles / 1e6,
                "kcc_peregrine": peregrine.runtime_cycles / 1e6,
                "kcc_rstream": rstream.runtime_cycles / 1e6,
                "mc_sisa": sisa_mc.runtime_cycles / 1e6,
                "mc_peregrine": peregrine_mc.runtime_cycles / 1e6,
            }
        )
    return rows


def _render(rows):
    print("== Paradigm comparison (runtimes, Mcycles) ==")
    print(
        f"{'graph':<18}{'kcc4 sisa':>11}{'peregrine':>11}{'rstream':>11}"
        f"{'mc sisa':>11}{'mc pereg.':>11}"
    )
    for row in rows:
        print(
            f"{row['graph']:<18}{row['kcc_sisa']:>11.3f}"
            f"{row['kcc_peregrine']:>11.1f}{row['kcc_rstream']:>11.1f}"
            f"{row['mc_sisa']:>11.3f}{row['mc_peregrine']:>11.1f}"
        )
        print(
            f"  speedups: vs peregrine {row['kcc_peregrine'] / row['kcc_sisa']:.0f}x "
            f"(kcc), {row['mc_peregrine'] / row['mc_sisa']:.0f}x (mc); "
            f"vs rstream {row['kcc_rstream'] / row['kcc_sisa']:.0f}x"
        )


def test_paradigm_comparison(benchmark):
    rows = _collect()
    emit("paradigms", lambda: _render(rows))
    for row in rows:
        assert row["kcc_peregrine"] / row["kcc_sisa"] > 10
        assert row["kcc_rstream"] / row["kcc_sisa"] > 10
        # mc through size-iteration is the paradigm's worst case.
        assert row["mc_peregrine"] / row["mc_sisa"] > 50
    graph = load(GRAPHS[0])
    benchmark(
        lambda: rstream_like_kclique(graph, 4, threads=32).output
    )
