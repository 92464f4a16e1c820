"""Energy ablation (extension): first-order energy of SISA vs. the host
set-based baseline.

The paper motivates in-situ PIM partly by energy efficiency (Section 1,
Section 8.1); this bench quantifies the model's data-movement savings
for a representative mining workload.
"""

import pytest

from repro.datasets import load
from repro.hw.energy import estimate_energy
from repro.session import SisaSession

from common import emit

GRAPHS = ["bio-SC-GT", "bn-flyMedulla", "econ-beacxc"]


def _collect():
    rows = []
    for name in GRAPHS:
        graph = load(name)
        sisa = SisaSession(graph, threads=32).run("triangles")
        host = SisaSession(graph, threads=32, mode="cpu-set").run("triangles")
        assert sisa.output == host.output
        e_sisa = estimate_energy(sisa.context)
        e_host = estimate_energy(host.context)
        rows.append((name, e_sisa, e_host))
    return rows


def _render(rows):
    print("== Energy ablation: tc, SISA vs host set-based (nJ) ==")
    print(
        f"{'graph':<16}{'sisa move':>11}{'sisa total':>12}"
        f"{'host move':>11}{'host total':>12}{'ratio':>8}"
    )
    for name, e_sisa, e_host in rows:
        print(
            f"{name:<16}{e_sisa.data_movement_nj:>11.0f}"
            f"{e_sisa.total_nj:>12.0f}{e_host.data_movement_nj:>11.0f}"
            f"{e_host.total_nj:>12.0f}"
            f"{e_host.total_nj / e_sisa.total_nj:>8.2f}x"
        )


def test_energy_ablation(benchmark):
    rows = _collect()
    emit("energy", lambda: _render(rows))
    for name, e_sisa, e_host in rows:
        assert e_sisa.total_nj < e_host.total_nj
    graph = load(GRAPHS[0])
    benchmark(
        lambda: estimate_energy(
            SisaSession(graph, threads=32).run("triangles").context
        ).total_nj
    )
