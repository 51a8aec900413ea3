"""Coordinator closures vs the single-graph BFS oracle.

The distributed closure is the primitive everything sharded rests on;
these tests pin it to :func:`repro.core.lcr.lcr_closure` (plain BFS,
shares no code with the shard stack) over randomized graphs, masks and
shard counts, plus the early-stop contract and round telemetry.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.context import RequestContext, activate

from repro.core.lcr import lcr_closure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import ShardUnavailableError
from repro.index.landmarks import bfs_traverse, select_landmarks
from repro.resilience.deadline import Deadline
from repro.shard.coordinator import ShardCoordinator
from repro.shard.partitioner import ShardTopology, build_shard_plan
from repro.shard.slicefile import slice_document, slice_from_document
from repro.shard.worker import ShardWorker
from tests.helpers import sharded_fleet

SEEDS = list(range(12))


def make_coordinator(seed, shards, *, num_vertices=20, **options):
    graph = random_labeled_graph(
        num_vertices, 2.0, 4, rng=seed, name=f"coord-{seed}"
    ).freeze()
    landmarks = select_landmarks(graph, k=4, rng=seed)
    partition = bfs_traverse(graph, landmarks)
    plan = build_shard_plan(graph, partition, shards)
    workers = [
        ShardWorker(
            slice_from_document(
                slice_document(graph, plan, shard_id, epoch=0, fingerprint="")
            )
        )
        for shard_id in range(shards)
    ]
    # The coordinator keeps nothing graph-bound: closures take the
    # topology they run under.
    return (
        graph,
        ShardCoordinator(workers, **options),
        ShardTopology(plan, 0),
    )


class TestClosure:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_bfs_closure(self, seed):
        shards = 1 + seed % 4
        graph, coordinator, topology = make_coordinator(seed, shards)
        rng = random.Random(seed * 31 + 7)
        try:
            for _ in range(6):
                source = rng.randrange(graph.num_vertices)
                mask = rng.randrange(1, 1 << graph.num_labels)
                reached, telemetry = coordinator.closure({source}, mask, topology)
                assert reached == lcr_closure(graph, source, mask), (
                    seed,
                    shards,
                    source,
                    mask,
                )
                assert telemetry["rounds"] >= 1
        finally:
            coordinator.close()

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_multi_seed_closure_is_union(self, seed):
        graph, coordinator, topology = make_coordinator(seed, 3)
        rng = random.Random(seed * 17 + 3)
        try:
            seeds = {rng.randrange(graph.num_vertices) for _ in range(3)}
            mask = (1 << graph.num_labels) - 1
            reached, _ = coordinator.closure(seeds, mask, topology)
            expected = set()
            for s in seeds:
                expected |= lcr_closure(graph, s, mask)
            assert reached == expected
        finally:
            coordinator.close()

    @pytest.mark.parametrize("seed", SEEDS[:6])
    def test_early_stop_contains_target(self, seed):
        graph, coordinator, topology = make_coordinator(seed, 3)
        mask = (1 << graph.num_labels) - 1
        try:
            full = lcr_closure(graph, 0, mask)
            for target in sorted(full):
                reached, _ = coordinator.closure({0}, mask, topology, stop=target)
                assert target in reached
                assert reached <= full  # never over-approximates
        finally:
            coordinator.close()

    def test_single_shard_is_one_expand_round(self):
        graph, coordinator, topology = make_coordinator(0, 1)
        try:
            mask = (1 << graph.num_labels) - 1
            reached, telemetry = coordinator.closure({0}, mask, topology)
            assert reached == lcr_closure(graph, 0, mask)
            # One shard owns everything: no crossings, a single round.
            assert telemetry["rounds"] == 1
            assert telemetry["crossings"] == 0
        finally:
            coordinator.close()

    @pytest.mark.parametrize("seed", SEEDS[:4])
    def test_pooled_scatter_agrees_with_inline(self, seed):
        # A bound sends every call to the pool; without one, a round's
        # only call runs inline.
        graph, inline, topology = make_coordinator(seed, 4)
        _graph, pooled, _topology = make_coordinator(seed, 4, scatter_timeout=30.0)
        mask = (1 << graph.num_labels) - 1
        try:
            for source in range(0, graph.num_vertices, 3):
                left, _ = inline.closure({source}, mask, topology)
                right, _ = pooled.closure({source}, mask, topology)
                assert left == right
        finally:
            inline.close()
            pooled.close()

    def test_scatter_after_close_gets_a_fresh_pool(self):
        # The registry contract: a straggler query on a removed service
        # still finishes — closing the pool mid-flight must not crash.
        graph, coordinator, topology = make_coordinator(0, 4, scatter_timeout=30.0)
        mask = (1 << graph.num_labels) - 1
        expected, _ = coordinator.closure({0}, mask, topology)
        coordinator.close()
        after_close, _ = coordinator.closure({0}, mask, topology)
        assert after_close == expected

    def test_epoch_without_a_topology_for_the_fleet_is_refused(self):
        # Unreachable through ShardedQueryService; a direct caller gets
        # a structured 503, not an AttributeError — for a missing
        # topology and for a plan the fleet is the wrong size for.
        graph = random_labeled_graph(20, 2.0, 4, rng=0, name="refused")
        with sharded_fleet(graph, shards=2) as service:
            short = ShardCoordinator(service.workers[:1])
            try:
                query = LSCRQuery.create(
                    "n0", "n1", ["l0"], "SELECT ?x WHERE { ?x <l0> ?y . }"
                )
                with pytest.raises(ShardUnavailableError) as refusal:
                    short.answer(query, service.epoch)
                assert refusal.value.status == 503
                service.epoch.topology = None
                with pytest.raises(ShardUnavailableError):
                    service.coordinator.answer(query, service.epoch)
            finally:
                short.close()


class TestDispatchRule:
    """One rule decides where every worker call runs (``_dispatch``)."""

    @pytest.mark.parametrize(
        ("calls", "scatter_timeout", "deadline_ms", "inline"),
        [
            (1, None, None, True),
            (1, 30.0, None, False),
            (1, None, 60_000, False),
            (3, None, None, False),
        ],
        ids=["only-unbounded", "only-timeout", "only-deadline", "round-of-three"],
    )
    def test_inline_only_for_a_lone_unbounded_call(
        self, calls, scatter_timeout, deadline_ms, inline
    ):
        coordinator = ShardCoordinator(
            [object()] * 3, scatter_timeout=scatter_timeout
        )
        deadline = Deadline(deadline_ms) if deadline_ms is not None else None
        try:
            with activate(RequestContext(deadline=deadline)):
                gathers = coordinator._dispatch(
                    [
                        (shard, threading.current_thread, {"abandoned": False})
                        for shard in range(calls)
                    ],
                    "test",
                )
                ran_on = [gather() for gather in gathers]
            caller = threading.current_thread()
            assert [thread is caller for thread in ran_on] == [inline] * calls
        finally:
            coordinator.close()

    @pytest.mark.parametrize(("workers", "threads"), [(1, 1), (3, 3), (12, 8)])
    def test_one_pool_thread_per_worker_at_most_eight(self, workers, threads):
        coordinator = ShardCoordinator([object()] * workers)
        try:
            assert coordinator._executor.max_workers == threads
        finally:
            coordinator.close()

    def test_a_hung_call_is_abandoned_with_one_breaker_failure(self):
        coordinator = ShardCoordinator([object()], scatter_timeout=0.05)
        release = threading.Event()
        flag = {"abandoned": False}
        try:
            (gather,) = coordinator._dispatch(
                [(0, lambda: release.wait(5.0), flag)], "test"
            )
            with pytest.raises(TimeoutError):
                gather()
            assert flag["abandoned"] is True
            assert coordinator.breakers[0].stats()["failures"] == 1
        finally:
            release.set()
            coordinator.close()
