"""Partitioner invariants: the facts scatter-gather correctness rests on.

The coordinator's exactness proof has two structural premises, enforced
here over randomized graphs:

* **edge partition** — every edge of the source graph lands in exactly
  one slice (the slice of the shard owning its source vertex), so the
  union of slice-local closures is the global closure;
* **border completeness** — each slice's border table names exactly the
  out-neighbours owned elsewhere, so a frontier can never leave a shard
  without the coordinator hearing about it.

Plus the placement properties: total deterministic vertex ownership,
balanced region assignment without correlations, and ``D``-guided
assignment keeping correlated regions together when balance allows.
"""

from __future__ import annotations

import pytest

from repro.datasets.synthetic import random_labeled_graph
from repro.index.landmarks import (
    NO_REGION,
    Partition,
    bfs_traverse,
    select_landmarks,
    structural_correlations,
)
from repro.shard.partitioner import assign_regions, build_shard_plan
from repro.shard.slicefile import slice_document, slice_from_document

SEEDS = list(range(10))


def make_parts(seed, num_vertices=24, density=2.2, num_labels=4, shards=3):
    graph = random_labeled_graph(
        num_vertices, density, num_labels, rng=seed, name=f"part-{seed}"
    ).freeze()
    landmarks = select_landmarks(graph, k=5, rng=seed)
    partition = bfs_traverse(graph, landmarks)
    correlations = structural_correlations(graph, partition)
    plan = build_shard_plan(graph, partition, shards, correlations)
    slices = [
        slice_from_document(
            slice_document(graph, plan, shard_id, epoch=0, fingerprint="")
        ).slice
        for shard_id in range(shards)
    ]
    return graph, partition, plan, slices


class TestEdgePartition:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_edge_lands_in_exactly_one_slice(self, seed):
        graph, _partition, _plan, slices = make_parts(seed)
        collected: list[tuple[int, int, int]] = []
        for graph_slice in slices:
            collected.extend(graph_slice.graph.edges())
        assert len(collected) == graph.num_edges  # no duplicates across slices
        assert set(collected) == set(graph.edges())
        assert sum(s.num_edges for s in slices) == graph.num_edges

    @pytest.mark.parametrize("seed", SEEDS)
    def test_vertex_ownership_is_total_and_consistent(self, seed):
        graph, partition, plan, slices = make_parts(seed)
        assert len(plan.shard_of) == graph.num_vertices
        assert all(0 <= owner < plan.num_shards for owner in plan.shard_of)
        # Slices partition the vertex set.
        owned = [vid for s in slices for vid in plan.owned_by(s.shard_id)]
        assert sorted(owned) == list(range(graph.num_vertices))
        assert sum(s.num_vertices for s in slices) == graph.num_vertices
        # Region members stay together on their region's shard.
        for vid in range(graph.num_vertices):
            region = partition.region[vid]
            if region != NO_REGION:
                assert plan.shard_of[vid] == plan.region_shard[region]

    @pytest.mark.parametrize("seed", SEEDS[:5])
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_shard_count_variants_partition_edges(self, seed, shards):
        graph, _partition, _plan, slices = make_parts(seed, shards=shards)
        assert len(slices) == shards
        assert sum(s.num_edges for s in slices) == graph.num_edges


class TestBorderTables:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_border_tables_complete_and_exact(self, seed):
        graph, _partition, plan, slices = make_parts(seed)
        for graph_slice in slices:
            sid = graph_slice.shard_id
            for vid in plan.owned_by(sid):
                external = sorted(
                    {
                        target
                        for _label, target in graph.out_edges(vid)
                        if plan.shard_of[target] != sid
                    }
                )
                recorded = list(graph_slice.border_targets.get(vid, ()))
                assert recorded == external, (seed, sid, vid)
            # Keys ascend: the slice document lists them in this order.
            assert list(graph_slice.border_targets) == sorted(
                graph_slice.border_targets
            )
            # peer_shards covers every shard any border target lands in.
            peers = {
                plan.shard_of[t]
                for targets in graph_slice.border_targets.values()
                for t in targets
            }
            assert set(graph_slice.peer_shards) == peers

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_slice_graph_roundtrip(self, seed):
        graph, _partition, plan, slices = make_parts(seed)
        for graph_slice in slices:
            sliced = graph_slice.graph
            assert sliced.num_edges == graph_slice.num_edges
            # Every vertex and label keeps the deployment's id and name,
            # isolated and unowned vertices included.
            assert list(sliced.vertex_names()) == list(graph.vertex_names())
            assert list(sliced.labels.names()) == list(graph.labels.names())
            # Its edges are exactly the owned vertices' out-edges.
            expected = {
                (graph.name_of(s), graph.label_name(l), graph.name_of(t))
                for s in plan.owned_by(graph_slice.shard_id)
                for l, t in graph.out_edges(s)
            }
            assert set(sliced.edges_named()) == expected


class TestRegionAssignment:
    def test_deterministic(self):
        graph, partition, _plan, _slices = make_parts(0)
        correlations = structural_correlations(graph, partition)
        first = assign_regions(partition, 3, correlations)
        second = assign_regions(partition, 3, correlations)
        assert first == second

    def test_balanced_without_correlations(self):
        graph, partition, _plan, _slices = make_parts(1)
        assignment = assign_regions(partition, 3, None)
        loads = [0, 0, 0]
        sizes = {u: len(partition.members[u]) for u in partition.landmarks}
        for u, sid in assignment.items():
            loads[sid] += sizes[u]
        # First-fit-decreasing: no shard exceeds the ideal load by more
        # than the largest single region.
        ideal = sum(sizes.values()) / 3
        assert max(loads) <= ideal + max(sizes.values())

    def test_correlated_regions_prefer_one_shard(self):
        # Two region pairs with strong mutual correlation and no
        # cross-pair correlation: each pair should land on one shard.
        partition = Partition(
            landmarks=[0, 1, 2, 3],
            region=[0, 1, 2, 3],
            members={0: [0], 1: [1], 2: [2], 3: [3]},
        )
        correlations = {0: {1: 10}, 1: {0: 10}, 2: {3: 10}, 3: {2: 10}}
        assignment = assign_regions(partition, 2, correlations)
        assert assignment[0] == assignment[1]
        assert assignment[2] == assignment[3]
        assert assignment[0] != assignment[2]

    def test_invalid_shard_count_rejected(self):
        partition = Partition(landmarks=[0], region=[0], members={0: [0]})
        with pytest.raises(ValueError):
            assign_regions(partition, 0)


class TestStructuralCorrelations:
    def test_counts_distinct_cross_region_targets(self):
        from tests.helpers import graph_from_edges

        # Region 0 = {a, b}, region 1 = {c, d}; two edges into c count
        # once (distinct targets), the edge into d separately.
        graph = graph_from_edges(
            [
                ("a", "l", "b"),
                ("a", "x", "c"),
                ("b", "y", "c"),
                ("b", "z", "d"),
                ("c", "l", "d"),
            ]
        )
        a, b, c, d = (graph.vid(n) for n in "abcd")
        partition = Partition(
            landmarks=[a, c],
            region=[a, a, c, c],
            members={a: [a, b], c: [c, d]},
        )
        correlations = structural_correlations(graph, partition)
        assert correlations == {a: {c: 2}}
