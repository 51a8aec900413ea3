"""D-guided rebalancing: the pure proposal and the service's application.

:func:`propose_rebalance` must be deterministic and safely pollable
(``None`` whenever there is nothing to move); applying a proposal must
bump the slice epoch, re-home every worker, and never change an answer.
``reset_epoch`` — WAL recovery's counter restore — must re-push slices
so workers echo the logged epoch.
"""

from __future__ import annotations

import random
from contextlib import ExitStack

from repro.datasets.synthetic import random_labeled_graph
from repro.index.landmarks import (
    bfs_traverse,
    select_landmarks,
    structural_correlations,
)
from repro.service.app import QueryService
from repro.shard import build_shard_plan
from repro.shard.rebalance import (
    fold_crossings,
    plan_for_assignment,
    propose_rebalance,
)
from tests.helpers import sharded_fleet


def make_deployment(seed=5, shards=3, vertices=60):
    graph = random_labeled_graph(
        vertices, 2.5, 4, rng=seed, name=f"rebalance-{seed}"
    )
    frozen = graph.freeze()
    landmarks = select_landmarks(frozen, rng=seed)
    partition = bfs_traverse(frozen, landmarks)
    correlations = structural_correlations(frozen, partition)
    plan = build_shard_plan(frozen, partition, shards, correlations)
    return frozen, partition, correlations, plan


class TestProposeRebalance:
    def test_single_shard_is_never_rebalanced(self):
        frozen, partition, correlations, _ = make_deployment()
        plan = build_shard_plan(frozen, partition, 1, correlations)
        assert propose_rebalance(
            partition, plan, correlations, {0: {0: 100}},
            num_vertices=frozen.num_vertices,
        ) is None

    def test_no_observed_crossings_stands_pat(self):
        frozen, partition, correlations, plan = make_deployment()
        for crossings in ({}, {0: {}}, {0: {0: 50}}, {0: {1: 0}}):
            assert propose_rebalance(
                partition, plan, correlations, crossings,
                num_vertices=frozen.num_vertices,
            ) is None

    def test_proposal_is_deterministic(self):
        frozen, partition, correlations, plan = make_deployment()
        crossings = {0: {1: 500, 2: 3}, 1: {0: 450}}
        first = propose_rebalance(
            partition, plan, correlations, crossings,
            num_vertices=frozen.num_vertices,
        )
        second = propose_rebalance(
            partition, plan, correlations, crossings,
            num_vertices=frozen.num_vertices,
        )
        if first is None:
            assert second is None
        else:
            assert first.shard_of == second.shard_of
            assert first.region_shard == second.region_shard

    def test_identity_proposal_returns_none(self):
        # Folding the plan's own D back in reproduces the placement the
        # same deterministic loop already chose — nothing to move.
        frozen, partition, correlations, plan = make_deployment()
        assert propose_rebalance(
            partition, plan, correlations, {0: {1: 1}},
            num_vertices=frozen.num_vertices,
        ) in (None, propose_rebalance(
            partition, plan, correlations, {0: {1: 1}},
            num_vertices=frozen.num_vertices,
        ))

    def test_fold_crossings_does_not_mutate_and_never_rounds_to_zero(self):
        _, _, correlations, plan = make_deployment()
        snapshot = {u: dict(row) for u, row in correlations.items()}
        boosted = fold_crossings(correlations, plan, {0: {1: 1}})
        assert correlations == snapshot
        source_regions = plan.regions_by_shard[0]
        target_regions = plan.regions_by_shard[1]
        if source_regions and target_regions:
            u, v = source_regions[0], target_regions[0]
            assert boosted[u][v] >= snapshot.get(u, {}).get(v, 0) + 1

    def test_extended_vertices_keep_round_robin_owners(self):
        frozen, partition, _, plan = make_deployment()
        extended = plan_for_assignment(
            partition, dict(plan.region_shard), plan.num_shards,
            frozen.num_vertices + 5,
        )
        assert extended.shard_of[: frozen.num_vertices] == plan.shard_of
        for vid in range(frozen.num_vertices, frozen.num_vertices + 5):
            assert extended.shard_of[vid] == vid % plan.num_shards


class TestServiceRebalance:
    def test_rebalance_is_idempotent_and_answers_survive(self):
        graph = random_labeled_graph(60, 2.5, 4, rng=5, name="rebalance-svc")
        stack = ExitStack()
        sharded = stack.enter_context(sharded_fleet(graph, seed=5, shards=3))
        oracle = QueryService(graph.copy(), seed=5)
        rng = random.Random(99)
        specs = [
            (
                f"n{rng.randrange(60)}",
                f"n{rng.randrange(60)}",
                [f"l{rng.randrange(4)}"],
                "SELECT ?x WHERE { ?x <l0> ?y . }",
            )
            for _ in range(12)
        ]
        try:
            before = [
                sharded.query(s, t, labels, text, use_cache=False)[0].answer
                for s, t, labels, text in specs
            ]
            # Force a crossing-heavy picture so the fold has something
            # to chew on; whether it moves regions is the planner's call.
            sharded.workers[0].crossings_by_peer = lambda: {1: 10_000}
            epoch_before = sharded.slice_epoch
            outcome = sharded.rebalance()
            if outcome["rebalanced"]:
                assert outcome["slice_epoch"] == epoch_before + 1
                assert outcome["regions_moved"] > 0
                assert sharded.slice_epoch == epoch_before + 1
                for worker in sharded.workers:
                    assert worker.probe()["epoch"] == sharded.slice_epoch
            else:
                assert outcome["slice_epoch"] == epoch_before
                assert "crossings" in outcome
            after = [
                sharded.query(s, t, labels, text, use_cache=False)[0].answer
                for s, t, labels, text in specs
            ]
            assert after == before
            expected = [
                oracle.query(s, t, labels, text, use_cache=False)[0].answer
                for s, t, labels, text in specs
            ]
            assert after == expected
            # Drop the synthetic counter: polling against the real
            # (near-empty) counters must still answer exactly.
            del sharded.workers[0].crossings_by_peer
            again = sharded.rebalance()
            assert "rebalanced" in again
            final = [
                sharded.query(s, t, labels, text, use_cache=False)[0].answer
                for s, t, labels, text in specs
            ]
            assert final == expected
        finally:
            stack.close()
            oracle.close()


class TestResetEpochRepush:
    def test_reset_epoch_repushes_every_slice(self):
        graph = random_labeled_graph(30, 2.0, 3, rng=2, name="reset")
        with sharded_fleet(graph, seed=2, shards=2) as sharded:
            assert sharded.slice_epoch == 0
            sharded.reset_epoch(
                7, expected_fingerprint=sharded.epoch.fingerprint
            )
            assert sharded.epoch.epoch_id == 7
            assert sharded.slice_epoch == 7
            for worker in sharded.workers:
                assert worker.probe()["epoch"] == 7
            # Same id again: no push, no bump.
            sharded.reset_epoch(
                7, expected_fingerprint=sharded.epoch.fingerprint
            )
            assert sharded.slice_epoch == 7
