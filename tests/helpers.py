"""Shared test utilities: independent oracles and tiny graph builders.

Everything here is deliberately *simple and slow* and shares no code
with the implementations under test, so agreement between the two is
meaningful evidence:

* :func:`ground_truth_cms` enumerates simple paths by DFS (any path's
  label set contains a simple path's label set, so minimal sets are
  preserved) and reduces to the minimal antichain — the oracle for
  Definition 2.3 / Definition 5.1 used against the index builders;
* :func:`graph_from_edges` builds graphs from edge triples concisely;
* :func:`running_server` serves a service or registry over loopback
  HTTP for the duration of a ``with`` block;
* :func:`cache_counters` reads the counters of the two per-epoch caches
  off ``/stats`` — the ones that must never step back;
* :func:`label_blind_reach` is the BFS oracle for the bounds index:
  every vertex reachable from one, labels ignored.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable, Iterator
from contextlib import contextmanager

from repro.graph.labeled_graph import KnowledgeGraph
from repro.service.http import create_server

__all__ = [
    "cache_counters",
    "graph_from_edges",
    "ground_truth_cms",
    "minimal_masks",
    "running_server",
]


@contextmanager
def running_server(service_or_registry, **create_server_kwargs) -> Iterator[str]:
    """Serve over an ephemeral loopback port; yields the base URL.

    ``serve_forever``'s default 0.5 s poll is what ``shutdown()`` waits
    out, once per fixture; a 20 ms poll makes teardown disappear from
    the suite's wall time.  The service itself is the caller's to close.
    """
    server = create_server(
        service_or_registry, "127.0.0.1", 0, **create_server_kwargs
    )
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def cache_counters(service) -> dict[tuple[str, str], int]:
    """``{(cache, counter): value}`` for ``/stats`` ``result_cache`` and
    ``candidate_cache`` — service-lifetime counts, whatever epoch serves."""
    document = service.stats_snapshot()
    return {
        (cache, counter): document[cache][counter]
        for cache in ("result_cache", "candidate_cache")
        for counter in ("hits", "misses", "evictions")
    }


def label_blind_reach(graph, source: int) -> set[int]:
    """Every vertex reachable from ``source`` by a directed path of any
    labels (``source`` included)."""
    seen = {source}
    queue = deque((source,))
    while queue:
        u = queue.popleft()
        for _label, w in graph.out_edges(u):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def graph_from_edges(
    edges: Iterable[tuple[str, str, str]],
    name: str = "test",
    vertices: Iterable[str] = (),
) -> KnowledgeGraph:
    """Build a graph from ``(source, label, target)`` triples."""
    graph = KnowledgeGraph(name)
    for vertex in vertices:
        graph.add_vertex(vertex)
    for source, label, target in edges:
        graph.add_edge(source, label, target)
    return graph


def minimal_masks(masks: Iterable[int]) -> set[int]:
    """Reduce a collection of label masks to its minimal antichain."""
    unique = set(masks)
    return {
        m
        for m in unique
        if not any(other != m and other & ~m == 0 for other in unique)
    }


def ground_truth_cms(
    graph: KnowledgeGraph,
    source: int,
    allowed: set[int] | None = None,
) -> dict[int, set[int]]:
    """CMS from ``source`` to every vertex, by simple-path enumeration.

    ``allowed`` restricts paths to a vertex subset (the region-limited
    ``M(u, v | F(u))`` of Definition 5.1).  The result maps each
    reachable target (including ``source`` with ``{∅}``) to its set of
    minimal label masks.  Exponential — only call on tiny graphs.
    """
    collected: dict[int, set[int]] = {source: {0}}
    on_path = {source}

    def dfs(vertex: int, mask: int) -> None:
        for label_id, target in graph.out_edges(vertex):
            if allowed is not None and target not in allowed:
                continue
            if target in on_path:
                continue
            new_mask = mask | (1 << label_id)
            collected.setdefault(target, set()).add(new_mask)
            on_path.add(target)
            dfs(target, new_mask)
            on_path.remove(target)

    dfs(source, 0)
    return {target: minimal_masks(masks) for target, masks in collected.items()}
