"""Landmark selection and the region partition (Algorithm 3, lines 1–2, 25–34).

Two steps precede the per-landmark indexing:

1. **LandmarkSelect** — Section 5.1.2 argues *against* the
   highest-degree selection of the traditional landmark method [19]: on
   a KG, top-degree vertices are class hubs whose incident edges carry
   RDF vocabulary labels, so indexes rooted there are useless for
   queries whose label constraint contains no vocabulary labels.
   Instead, INS randomly selects a set of RDFS *classes* and evenly
   marks ``k`` of their instances as landmarks, with
   ``k = log₂|V| · √|V|`` (capped; graphs without a usable schema fall
   back to the degree-based choice so the index still works on general
   edge-labeled graphs).

2. **BFSTraverse** — a *fair* multi-source BFS from all landmarks at
   once (a queue of per-landmark queues, one vertex expanded per turn)
   assigns every reached vertex ``w`` to the region ``F(u)`` of the
   landmark ``u`` that reached it first: ``w.AF = u``.  Fairness keeps
   the regions balanced, which is what bounds the per-landmark indexing
   cost.  Every non-landmark vertex of ``F(u)`` is reachable from ``u``
   by construction; vertices no landmark reaches stay unassigned
   (``region == NO_REGION``).
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field

from repro.graph.labeled_graph import KnowledgeGraph
from repro.graph.schema import RDFSchema
from repro.utils.rng import make_rng

__all__ = [
    "NO_REGION",
    "Partition",
    "default_landmark_count",
    "select_landmarks",
    "bfs_traverse",
]

#: Region value of vertices not reached by any landmark.
NO_REGION = -1


def default_landmark_count(num_vertices: int) -> int:
    """The paper's ``|I| = k = log |V| × √|V|`` (log base 2, rounded).

    Clamped to ``[1, |V|]``; tiny graphs get at least one landmark.
    """
    if num_vertices <= 1:
        return num_vertices
    k = round(math.log2(num_vertices) * math.sqrt(num_vertices))
    return max(1, min(k, num_vertices))


@dataclass
class Partition:
    """The bijection ``F: I → G`` materialised as a region assignment."""

    #: Landmark vertex ids, in selection order.
    landmarks: list[int]
    #: ``region[v]`` is the landmark id owning ``v`` (``NO_REGION`` if none).
    region: list[int]
    #: Members of each region, landmark first, in discovery order.
    members: dict[int, list[int]] = field(repr=False)

    @property
    def landmark_set(self) -> set[int]:
        """The landmark ids as a set (membership tests)."""
        return set(self.landmarks)

    def region_of(self, vertex_id: int) -> int:
        """Owning landmark of ``vertex_id`` (``NO_REGION`` when unassigned)."""
        return self.region[vertex_id]

    def assigned_count(self) -> int:
        """Number of vertices covered by some region."""
        return sum(1 for r in self.region if r != NO_REGION)


def select_landmarks(
    graph: KnowledgeGraph,
    k: int | None = None,
    rng: int | random.Random | None = None,
    class_fraction: float = 0.5,
) -> list[int]:
    """Choose ``k`` landmark vertex ids (Algorithm 3, line 1).

    Samples ``class_fraction`` of the schema's instantiated classes,
    then round-robins over them marking instances until ``k`` landmarks
    are collected.  Falls back to (deterministic) highest-degree
    selection when the schema yields too few candidates — the documented
    general-graph fallback, equivalent to the traditional selection.
    """
    rng = make_rng(rng)
    n = graph.num_vertices
    if n == 0:
        return []
    if k is None:
        k = default_landmark_count(n)
    k = max(1, min(k, n))

    chosen: list[int] = []
    chosen_set: set[int] = set()

    schema = graph.schema if isinstance(graph.schema, RDFSchema) else None
    if schema is not None:
        eligible_classes = [c for c in schema.classes() if schema.instances_of(c, False)]
        if eligible_classes:
            sample_size = max(1, round(len(eligible_classes) * class_fraction))
            classes = rng.sample(eligible_classes, min(sample_size, len(eligible_classes)))
            pools: list[list[int]] = []
            for cls in classes:
                ids = [
                    graph.vid(name)
                    for name in schema.instances_of(cls, False)
                    if graph.has_vertex(name)
                ]
                rng.shuffle(ids)
                if ids:
                    pools.append(ids)
            # "Evenly mark k instances of the selected classes": take one
            # instance per class per round until k landmarks are chosen.
            while pools and len(chosen) < k:
                next_pools: list[list[int]] = []
                for pool in pools:
                    if len(chosen) >= k:
                        break
                    vid = pool.pop()
                    if vid not in chosen_set:
                        chosen_set.add(vid)
                        chosen.append(vid)
                    if pool:
                        next_pools.append(pool)
                pools = next_pools

    if len(chosen) < k:
        # Degree-based fallback fill (general graphs / sparse schemas).
        by_degree = sorted(
            graph.vertices(), key=lambda v: (-graph.degree(v), v)
        )
        for vid in by_degree:
            if len(chosen) >= k:
                break
            if vid not in chosen_set:
                chosen_set.add(vid)
                chosen.append(vid)
    return chosen


def bfs_traverse(graph: KnowledgeGraph, landmarks: list[int]) -> Partition:
    """Fair multi-source BFS region assignment (Algorithm 3, lines 25–34).

    One vertex is expanded per landmark per turn, so regions grow at the
    same rate regardless of landmark order; each vertex joins the region
    of whichever landmark's frontier reaches it first.
    """
    n = graph.num_vertices
    region = [NO_REGION] * n
    members: dict[int, list[int]] = {}
    explored = bytearray(n)

    rotation: deque[tuple[int, deque[int]]] = deque()
    for u in landmarks:
        if explored[u]:
            continue  # duplicate landmark: first occurrence wins
        explored[u] = 1
        region[u] = u
        members[u] = [u]
        rotation.append((u, deque((u,))))

    while rotation:                                     # line 27
        u, queue = rotation.popleft()                   # line 28
        v = queue.popleft()                             # line 29
        for _label, w in graph.out_edges(v):            # line 30
            if not explored[w]:                         # line 31
                explored[w] = 1
                region[w] = u                           # line 32
                members[u].append(w)
                queue.append(w)
        if queue:                                       # lines 33-34
            rotation.append((u, queue))

    return Partition(landmarks=list(dict.fromkeys(landmarks)), region=region, members=members)

