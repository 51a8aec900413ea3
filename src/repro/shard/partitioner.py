"""Cutting a graph into per-shard slices.

The paper's local index already partitions the graph into landmark
regions (:func:`~repro.index.landmarks.bfs_traverse`); sharding groups
those regions into ``N`` shards and cuts the
:class:`~repro.graph.csr.FrozenGraph` along the grouping:

* :func:`assign_regions` — greedy, deterministic placement of regions
  onto shards.  With a region-correlation table ``D``
  (:func:`~repro.index.landmarks.structural_correlations`) each region
  goes to the not-yet-full shard it is most
  correlated with, so border crossings — the only thing a scatter-gather
  round pays for — concentrate *inside* shards; without ``D`` the same
  loop degrades to balanced first-fit;
* :class:`ShardPlan` — the resulting vertex → shard ownership map.
  Every vertex is owned by exactly one shard: region members follow
  their region, vertices no landmark reached are dealt round-robin;
* :class:`GraphSlice` — one shard's slice, as a worker holds it: one
  frozen graph with every vertex and label under the deployment's ids
  but only the owned vertices' out-edges, plus the **border table**
  (:func:`border_table`: owned vertex → its out-neighbours owned
  elsewhere).  The worker's expand loop probes the table once per
  vertex to skip per-edge ownership checks on non-border vertices, and
  ``/stats`` reports border sizes and peer shards per slice.  A slice
  is only ever built by loading its document
  (:func:`~repro.shard.slicefile.slice_from_document`); the writer
  reads the owned rows straight from the graph it is given.

The partition invariant the tests enforce: every edge of the source
graph lands in **exactly one** slice — the slice of the shard owning
its *source* vertex — so the union of slice closures is the graph
closure and scatter-gather search is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.graph.csr import FrozenGraph
from repro.graph.labeled_graph import KnowledgeGraph
from repro.index.landmarks import (
    NO_REGION,
    Partition,
    bfs_traverse,
    select_landmarks,
    structural_correlations,
)

__all__ = [
    "ShardPlan",
    "ShardTopology",
    "GraphSlice",
    "assign_regions",
    "border_table",
    "build_shard_plan",
    "derive_shard_plan",
]

#: A shard may exceed the ideal |V|/N load by this factor before the
#: placement loop stops preferring it for correlation reasons.
_LOAD_TOLERANCE = 1.25


def assign_regions(
    partition: Partition,
    num_shards: int,
    correlations: dict[int, dict[int, int]] | None = None,
) -> dict[int, int]:
    """Map each region's landmark to a shard id (deterministic).

    Regions are placed largest-first.  Each placement scores every
    shard by the region's total ``D`` correlation (both directions)
    with the regions already on that shard, skipping shards already
    past :data:`_LOAD_TOLERANCE` × the ideal load; ties break toward
    the lighter shard, then the lower shard id.  With ``correlations``
    None every affinity is zero and the loop is balanced first-fit.
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    sizes = {
        u: len(partition.members.get(u, (u,))) for u in partition.landmarks
    }
    total = sum(sizes.values())
    limit = (total / num_shards) * _LOAD_TOLERANCE if num_shards else 0.0
    order = sorted(partition.landmarks, key=lambda u: (-sizes[u], u))
    loads = [0] * num_shards
    placed: list[list[int]] = [[] for _ in range(num_shards)]
    assignment: dict[int, int] = {}
    for u in order:
        row = correlations.get(u, {}) if correlations else {}
        eligible = [
            shard_id
            for shard_id in range(num_shards)
            if loads[shard_id] + sizes[u] <= limit
        ]
        if not eligible:  # every shard past tolerance: fall back to all
            eligible = list(range(num_shards))
        best_shard = eligible[0]
        best_key: tuple[int, int] | None = None
        for shard_id in eligible:
            affinity = 0
            if correlations:
                for v in placed[shard_id]:
                    affinity += row.get(v, 0)
                    affinity += correlations.get(v, {}).get(u, 0)
            key = (affinity, -loads[shard_id])
            if best_key is None or key > best_key:
                best_key = key
                best_shard = shard_id
        assignment[u] = best_shard
        loads[best_shard] += sizes[u]
        placed[best_shard].append(u)
    return assignment


@dataclass(frozen=True)
class ShardPlan:
    """Vertex and region ownership for one sharded deployment."""

    num_shards: int
    #: ``shard_of[vid]`` — the shard owning each vertex (total: every
    #: vertex is owned somewhere, unassigned ones round-robin).
    shard_of: tuple[int, ...]
    #: Landmark ids grouped per shard, each group sorted.
    regions_by_shard: tuple[tuple[int, ...], ...]
    #: The region → shard map :func:`assign_regions` produced.
    region_shard: dict[int, int]

    @property
    def num_vertices(self) -> int:
        return len(self.shard_of)

    def owned_by(self, shard_id: int) -> list[int]:
        """Vertex ids owned by ``shard_id``, ascending."""
        return [vid for vid, owner in enumerate(self.shard_of) if owner == shard_id]

    def describe(self) -> dict:
        """JSON-ready sizes for ``/stats``."""
        counts = [0] * self.num_shards
        for owner in self.shard_of:
            counts[owner] += 1
        return {
            "num_shards": self.num_shards,
            "vertices_per_shard": counts,
            "regions_per_shard": [len(group) for group in self.regions_by_shard],
        }


class ShardTopology(NamedTuple):
    """How a fleet serves one epoch: :attr:`GraphEpoch.topology
    <repro.service.epoch.GraphEpoch.topology>` on a sharded service."""

    plan: ShardPlan
    #: The slice epoch every worker holding this epoch's content echoes.
    slice_epoch: int


def build_shard_plan(
    graph: KnowledgeGraph,
    partition: Partition,
    num_shards: int,
    correlations: dict[int, dict[int, int]] | None = None,
) -> ShardPlan:
    """Group ``partition``'s regions into ``num_shards`` shards."""
    assignment = assign_regions(partition, num_shards, correlations)
    shard_of: list[int] = []
    for vid in range(graph.num_vertices):
        region = partition.region[vid]
        if region == NO_REGION:
            # Unreached vertices still need an owner: their out-edges
            # must land in exactly one slice.  Round-robin keeps the
            # remainder balanced and deterministic.
            shard_of.append(vid % num_shards)
        else:
            shard_of.append(assignment[region])
    regions_by_shard: list[list[int]] = [[] for _ in range(num_shards)]
    for landmark, shard_id in assignment.items():
        regions_by_shard[shard_id].append(landmark)
    return ShardPlan(
        num_shards=num_shards,
        shard_of=tuple(shard_of),
        regions_by_shard=tuple(tuple(sorted(group)) for group in regions_by_shard),
        region_shard=assignment,
    )


def derive_shard_plan(
    graph: KnowledgeGraph,
    num_shards: int,
    *,
    landmark_count: int | None = None,
    seed: int = 0,
) -> tuple[Partition, dict[int, dict[int, int]], ShardPlan]:
    """Partition → correlations → plan, the one way every deployment cuts.

    ``repro cut`` and the coordinator share it, so a coordinator started
    with the same graph/seed/landmark count handshakes with workers
    booted from cut slice files without a resync: a fresh landmark
    partition (``landmark_count``/``seed``) and its structural
    correlation table.  The partition and correlations are returned
    too: rebalancing re-places regions from them.
    """
    landmarks = select_landmarks(graph, k=landmark_count, rng=seed)
    partition = bfs_traverse(graph, landmarks)
    correlations = structural_correlations(graph, partition)
    plan = build_shard_plan(graph, partition, num_shards, correlations)
    return partition, correlations, plan


def border_table(
    graph: KnowledgeGraph, shard_of: tuple[int, ...], shard_id: int, owned: list[int]
) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...]]:
    """The border table of ``shard_id``'s slice and its peer shards.

    For each owned vertex (ascending, as ``owned`` lists them) with an
    out-neighbour owned elsewhere, those neighbours, ascending; then
    every shard such a neighbour lands in.  Read from whichever graph
    holds the owned rows — the epoch's graph when a slice is written,
    the slice graph when it is loaded — so both sides agree by
    construction.
    """
    border: dict[int, tuple[int, ...]] = {}
    peers: set[int] = set()
    for vid in owned:
        external = sorted(
            {t for _label, t in graph.out_edges(vid) if shard_of[t] != shard_id}
        )
        if external:
            border[vid] = tuple(external)
            peers.update(shard_of[t] for t in external)
    return border, tuple(sorted(peers))


class GraphSlice:
    """One shard's slice: one frozen graph plus its border table.

    :attr:`graph` interns every vertex and label of the deployment under
    the deployment's ids but holds only the owned vertices' out-edges
    (and, as in-rows, their reverse), so the worker's expand walks its
    out-rows by global id and the co-located probe searches the very
    same object.  The border table names, for each owned vertex, its
    out-neighbours owned by other shards: vertices with no entry can
    never leak a frontier, so the expand loop checks the table once per
    vertex and walks non-border adjacency without per-edge ownership
    tests.
    """

    __slots__ = (
        "graph",
        "shard_id",
        "shard_of",
        "regions",
        "num_vertices",
        "num_edges",
        "border_targets",
        "peer_shards",
    )

    def __init__(self, graph: FrozenGraph, plan: ShardPlan, shard_id: int) -> None:
        owned = plan.owned_by(shard_id)
        self.graph = graph
        self.shard_id = shard_id
        self.shard_of = plan.shard_of
        self.regions = plan.regions_by_shard[shard_id]
        #: Owned vertex count.
        self.num_vertices = len(owned)
        self.num_edges = graph.num_edges
        self.border_targets, self.peer_shards = border_table(
            graph, plan.shard_of, shard_id, owned
        )

    def __repr__(self) -> str:
        return (
            f"GraphSlice(shard={self.shard_id}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, borders={len(self.border_targets)})"
        )

    def describe(self) -> dict:
        """JSON-ready sizes for shard-level ``/stats``."""
        return {
            "shard": self.shard_id,
            "regions": len(self.regions),
            "vertices": self.num_vertices,
            "edges": self.num_edges,
            "border_vertices": len(self.border_targets),
            "peer_shards": list(self.peer_shards),
        }
