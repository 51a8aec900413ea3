"""Plain label-constrained reachability (LCR) primitives.

LCR queries (``s ⇝_L t``; Jin et al. [6]) are the building block the
LSCR algorithms decompose into: UIS*'s ``LCS`` subroutine is an
incremental LCR search, and the workload generator (Section 6.1.1) uses
LCR closures to pick targets and to classify false queries.  These
functions are straightforward BFS over the masked adjacency.
"""

from __future__ import annotations

from collections import deque

from repro.graph.labeled_graph import KnowledgeGraph

__all__ = [
    "lcr_reachable",
    "lcr_closure",
    "bfs_distance_ring",
]


def lcr_reachable(graph: KnowledgeGraph, source: int, target: int, mask: int) -> bool:
    """True iff ``source ⇝_L target`` where ``mask`` encodes ``L``.

    The trivial path counts: ``lcr_reachable(g, v, v, mask)`` is True.
    """
    if source == target:
        return True
    out_targets = graph.out_targets_masked
    visited = bytearray(graph.num_vertices)
    visited[source] = 1
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for w in out_targets(u, mask):
            if w == target:
                return True
            if not visited[w]:
                visited[w] = 1
                queue.append(w)
    return False


def lcr_closure(graph: KnowledgeGraph, source: int, mask: int) -> set[int]:
    """All vertices ``v`` with ``source ⇝_L v`` (includes ``source``)."""
    out_targets = graph.out_targets_masked
    visited: set[int] = {source}
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for w in out_targets(u, mask):
            if w not in visited:
                visited.add(w)
                queue.append(w)
    return visited


def bfs_distance_ring(
    graph: KnowledgeGraph,
    source: int,
    mask: int,
    rounds: int,
) -> tuple[set[int], list[int]]:
    """BFS from ``source`` stopped after ``rounds`` level expansions.

    Returns ``(explored, frontier)`` where ``frontier`` holds the
    vertices first reached in the final round.  This is the Section
    6.1.1 target-selection primitive: "start a BFS from s, and stop it
    after log |V| iterations, after which t is a BFS-unexplored vertex".
    """
    out_targets = graph.out_targets_masked
    explored: set[int] = {source}
    frontier: list[int] = [source]
    for _ in range(rounds):
        next_frontier: list[int] = []
        for u in frontier:
            for w in out_targets(u, mask):
                if w not in explored:
                    explored.add(w)
                    next_frontier.append(w)
        if not next_frontier:
            return explored, []
        frontier = next_frontier
    return explored, frontier
