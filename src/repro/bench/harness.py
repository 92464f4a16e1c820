"""Experiment harness: uniform runners for the three Fig. 6 variants
(non-set / set-based / sisa) and table/series printers.

The benchmark scripts in ``benchmarks/`` use this module to produce
the paper's rows: for each (problem, graph) cell they run all three
variants, check that functional outputs agree, and report simulated
runtimes in millions of cycles (the paper's Fig. 6 unit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.summaries import SpeedupSummary, summarize_speedups


@dataclass
class Cell:
    """One (problem, graph, variant) measurement."""

    problem: str
    graph: str
    variant: str
    runtime_cycles: float
    output_digest: Any = None

    @property
    def runtime_mcycles(self) -> float:
        return self.runtime_cycles / 1e6


@dataclass
class ResultTable:
    """Accumulates cells and prints paper-style summaries."""

    title: str
    cells: list[Cell] = field(default_factory=list)

    def add(
        self,
        problem: str,
        graph: str,
        variant: str,
        runtime_cycles: float,
        output_digest: Any = None,
    ) -> None:
        self.cells.append(Cell(problem, graph, variant, runtime_cycles, output_digest))

    def runtimes(self, problem: str, variant: str) -> list[float]:
        ordered_graphs = self.graphs_for(problem)
        lookup = {
            cell.graph: cell.runtime_mcycles
            for cell in self.cells
            if cell.problem == problem and cell.variant == variant
        }
        return [lookup[g] for g in ordered_graphs if g in lookup]

    def graphs_for(self, problem: str) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.problem == problem and cell.graph not in seen:
                seen.append(cell.graph)
        return seen

    def problems(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.problem not in seen:
                seen.append(cell.problem)
        return seen

    def variants(self) -> list[str]:
        seen: list[str] = []
        for cell in self.cells:
            if cell.variant not in seen:
                seen.append(cell.variant)
        return seen

    def summary(
        self, problem: str, baseline: str, improved: str
    ) -> SpeedupSummary:
        return summarize_speedups(
            self.runtimes(problem, baseline), self.runtimes(problem, improved)
        )

    # -- printing ------------------------------------------------------------

    def print_problem(self, problem: str) -> None:
        variants = self.variants()
        graphs = self.graphs_for(problem)
        width = max((len(g) for g in graphs), default=10) + 2
        header = f"{'graph':<{width}}" + "".join(
            f"{v:>14}" for v in variants
        )
        print(f"\n== {self.title} :: {problem} (runtime, Mcycles) ==")
        print(header)
        for graph in graphs:
            row = f"{graph:<{width}}"
            for variant in variants:
                value = next(
                    (
                        cell.runtime_mcycles
                        for cell in self.cells
                        if cell.problem == problem
                        and cell.graph == graph
                        and cell.variant == variant
                    ),
                    None,
                )
                row += f"{value:>14.3f}" if value is not None else f"{'--':>14}"
            print(row)

    def print_speedup_lines(
        self, problem: str, *, target: str = "sisa"
    ) -> None:
        """The paper's four-number summary line per problem plot."""
        for baseline in self.variants():
            if baseline == target:
                continue
            summary = self.summary(problem, baseline, target)
            print(
                f"  {target} over {baseline}: "
                f"avg-of-speedups={summary.avg_of_speedups:.2f}x, "
                f"speedup-of-avgs={summary.speedup_of_avgs:.2f}x"
            )

    def print_all(self) -> None:
        for problem in self.problems():
            self.print_problem(problem)
            self.print_speedup_lines(problem)


def run_three_variants(
    problem: str,
    graph_name: str,
    table: ResultTable,
    *,
    nonset: Callable[[], tuple[Any, float]] | None,
    set_based: Callable[[], tuple[Any, float]],
    sisa: Callable[[], tuple[Any, float]],
    check_outputs: bool = True,
) -> None:
    """Run the three Fig. 6 variants for one cell and record runtimes.

    Each callable returns ``(output_digest, runtime_cycles)``.  When
    ``check_outputs`` is set, all produced digests must agree (the three
    implementations solve the same problem).
    """
    digests = []
    if nonset is not None:
        out, cycles = nonset()
        table.add(problem, graph_name, "non-set", cycles, out)
        digests.append(out)
    out, cycles = set_based()
    table.add(problem, graph_name, "set-based", cycles, out)
    digests.append(out)
    out, cycles = sisa()
    table.add(problem, graph_name, "sisa", cycles, out)
    digests.append(out)
    if check_outputs and len({repr(d) for d in digests}) != 1:
        raise AssertionError(
            f"variant outputs disagree for {problem}/{graph_name}: {digests}"
        )
