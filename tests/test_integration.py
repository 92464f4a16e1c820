"""End-to-end integration tests: dataset -> SetGraph -> algorithm ->
counts & cycles, determinism, and the paper's qualitative claims."""

import pytest

from repro.algorithms.subgraph_iso import star_pattern
from repro.baselines.nonset import kclique_count_nonset
from repro.datasets import load
from repro.graphs.labels import Labeling
from repro.hw.config import commodity_cpu_config
from repro.isa.opcodes import Opcode
from repro.session import SisaSession


class TestDeterminism:
    def test_same_run_same_cycles(self):
        g = load("int-antCol5-d1")
        a = SisaSession(g, threads=8).run("kclique", k=4, max_patterns=5000)
        b = SisaSession(g, threads=8).run("kclique", k=4, max_patterns=5000)
        assert a.output == b.output
        assert a.runtime_cycles == b.runtime_cycles

    def test_modes_agree_functionally(self):
        g = load("bn-flyMedulla")
        sisa = SisaSession(g, threads=8).run("triangles")
        cpu = SisaSession(g, threads=8, mode="cpu-set").run("triangles")
        assert sisa.output == cpu.output


class TestPaperClaims:
    def test_sisa_uses_both_pum_and_pnm(self):
        """With t = 0.4 on a heavy-tailed dataset, both in-situ and
        near-memory instructions are executed (Section 8.1).  Triangle
        counting intersects neighborhoods pairwise, so heavy hubs
        produce DB∩DB (PUM) work while the tail stays on PNM."""
        g = load("bio-SC-GT")
        run = SisaSession(g, threads=8).run("triangles")
        stats = run.context.scu.stats
        assert stats.pum_ops > 0
        assert stats.pnm_ops > 0

    def test_pure_sa_run_never_uses_pum_for_pairs(self):
        g = load("soc-fbMsg")
        run = SisaSession(g, threads=8, t=0.0).run("kclique", k=4, max_patterns=5000)
        counts = run.output
        opcodes = run.context.opcode_counts()
        assert Opcode.INTERSECT_DB_DB not in opcodes
        assert counts >= 0

    def test_commodity_cpu_flattens(self):
        """The Fig. 1 phenomenon: on the commodity CPU config, going
        from 8 to 32 threads barely helps a memory-bound baseline."""
        g = load("int-antCol6-d2")
        cpu = commodity_cpu_config()
        t8 = kclique_count_nonset(g, 4, threads=8, cpu=cpu, max_patterns=20_000)
        t32 = kclique_count_nonset(g, 4, threads=32, cpu=cpu, max_patterns=20_000)
        speedup = t8.runtime_cycles / t32.runtime_cycles
        assert speedup < 2.5  # nowhere near the 4x thread increase

    def test_stall_fraction_rises_with_threads(self):
        g = load("int-antCol6-d2")
        cpu = commodity_cpu_config()
        t1 = kclique_count_nonset(g, 4, threads=1, cpu=cpu, max_patterns=20_000)
        t32 = kclique_count_nonset(g, 4, threads=32, cpu=cpu, max_patterns=20_000)
        assert t32.report.avg_stall_fraction > t1.report.avg_stall_fraction

    def test_labeled_si_prunes(self):
        """The paper (Section 9.2, 'Labels'): label constraints
        eliminate recursive calls early, so *full* labeled runs are
        usually faster despite the extra label checks."""
        from repro.graphs.generators import gnp_random_graph

        g = gnp_random_graph(60, 0.2, seed=12)
        pattern = star_pattern(3)
        unlabeled = SisaSession(g, threads=8).run("subgraph_iso", pattern=pattern)
        labeled = SisaSession(g, threads=8).run(
            "subgraph_iso",
            pattern=pattern,
            target_labels=Labeling.random(g, 3, seed=0),
            pattern_labels=Labeling(pattern, [0, 1, 2, 0]),
        )
        assert labeled.output < unlabeled.output
        assert labeled.runtime_cycles < unlabeled.runtime_cycles

    def test_smb_cache_helps_single_thread(self):
        """Section 9.2: disabling the SCU cache costs ~1.5x at T=1."""
        g = load("int-antCol4") if False else load("intD-antCol4")
        with_cache = SisaSession(g, threads=1).run("kclique", k=4, max_patterns=5000)
        without = SisaSession(g, threads=1, smb_enabled=False).run(
            "kclique", k=4, max_patterns=5000
        )
        assert without.runtime_cycles > with_cache.runtime_cycles

    def test_dense_fraction_tracks_t(self):
        g = load("bio-CE-PG")
        low = SisaSession(g, threads=4, t=0.1).run("kclique", k=4, max_patterns=1000)
        high = SisaSession(g, threads=4, t=0.8).run("kclique", k=4, max_patterns=1000)
        assert low.output == high.output

    def test_mc_runs_on_dataset(self):
        g = load("int-HosWardProx")
        run = SisaSession(g, threads=8).run("maximal_cliques", max_patterns=2000)
        assert len(run.output) > 0
        assert run.runtime_cycles > 0
