"""Set-centric Breadth-First Search (paper Algorithm 12).

BFS is one of the paper's "low-complexity" examples: SISA does not
target it, but the set-centric formulation is still expressible.  The
frontier ``F`` and the unvisited set ``Pi`` are dense bitvectors; the
top-down step visits ``N(u) ∩ Pi`` and the bottom-up step scans
``N(w) ∩ F`` for each unvisited ``w``.  The direction-optimizing
variant switches on frontier size, as in Beamer et al.

Each level's per-vertex tasks run as one chunked array program
(:meth:`~repro.runtime.context.SisaContext.bfs_level`), whose
instruction stream is exactly that of the per-vertex loop.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.runtime.context import BfsProgram, SisaContext
from repro.runtime.setgraph import SetGraph


def bfs_on(
    ctx: SisaContext,
    sg: SetGraph,
    root: int,
    *,
    direction: str = "auto",
) -> np.ndarray:
    """Parent array (root's parent is itself; unreachable is -1)."""
    if direction not in ("top-down", "bottom-up", "auto"):
        raise ConfigError("direction must be top-down, bottom-up, or auto")
    n = sg.num_vertices
    if not 0 <= root < n:
        raise ConfigError("root out of range")
    parent = np.full(n, -1, dtype=np.int64)
    parent[root] = root
    program = BfsProgram(ctx.sm, sg.set_ids, parent)
    unvisited = ctx.create_set(
        np.delete(np.arange(n), root), universe=n, dense=True
    )
    frontier = ctx.create_set([root], universe=n, dense=True)
    while ctx.cardinality(frontier) > 0:
        frontier_size = ctx.cardinality(frontier)
        remaining = ctx.cardinality(unvisited)
        if direction == "top-down":
            bottom_up = False
        elif direction == "bottom-up":
            bottom_up = True
        else:
            # Direction-optimizing heuristic: go bottom-up once the
            # frontier is a sizable fraction of the unvisited set.
            bottom_up = frontier_size * 8 > max(1, remaining)
        new_frontier = ctx.create_set([], universe=n, dense=True)
        if bottom_up:
            tasks, x = ctx.elements(unvisited), frontier
        else:
            tasks, x = ctx.elements(frontier), unvisited
        ctx.bfs_level(program, tasks, x, new_frontier, bottom_up=bottom_up)
        ctx.difference_into(unvisited, new_frontier)
        ctx.free(frontier)
        frontier = new_frontier
    ctx.free(frontier)
    ctx.free(unvisited)
    return parent
