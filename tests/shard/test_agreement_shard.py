"""Randomized agreement: sharded serving vs the unsharded path vs naive.

The acceptance bar for the shard subsystem: over ≥ 50 seeded random
graphs, :class:`~repro.shard.ShardedQueryService` must return the same
Boolean answer as (a) the naive two-procedure oracle (correctness) and
(b) a plain :class:`~repro.service.app.QueryService` on the same graph
(the production property: turning sharding on never changes an answer).
Shard counts rotate 1–4 per seed, index-backed and index-free services
alternate (mirroring ``tests/service/test_agreement_service.py``), the
second pass of every query must come off the result cache, and the
batch path is held to the same standard.  Every sharded service reaches
its workers over HTTP (an in-thread server hosts them); a final group
drives the same workers from a second coordinator.
"""

from __future__ import annotations

import random
from contextlib import ExitStack, closing

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.shard import ShardCoordinator
from tests.helpers import graph_from_edges, sharded_fleet

#: ≥ 50 generated graphs, every seed fixed for reproducibility.
SEEDS = list(range(50))
QUERIES_PER_GRAPH = 8
NUM_LABELS = 3
NUM_VERTICES = 9


def make_graph(seed):
    return random_labeled_graph(
        NUM_VERTICES, 1.8, NUM_LABELS, rng=seed, name=f"shard-agree-{seed}"
    )


def shard_count(seed):
    """Rotate 1-4 shards across seeds (1 = degenerate single shard)."""
    return 1 + seed % 4


def make_sharded(graph, seed):
    """Alternate indexed and index-free sharded services by seed.

    Even seeds shard along the loaded index's own partition (and its
    ``D`` table guides placement); odd seeds build a fresh landmark
    partition with structural correlations — both construction paths
    stay under agreement test.
    """
    index = build_local_index(graph, k=3, rng=seed) if seed % 2 == 0 else None
    return sharded_fleet(graph, index, seed=seed, shards=shard_count(seed))


def constraint_pool(rng):
    label = f"l{rng.randrange(NUM_LABELS)}"
    anchor = f"n{rng.randrange(NUM_VERTICES)}"
    pool = [
        f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}",
        f"SELECT ?x WHERE {{ ?x <{label}> {anchor} . }}",
        f"SELECT ?x WHERE {{ {anchor} <{label}> ?x . }}",
        f"SELECT ?x WHERE {{ ?x <{label}> ?y . ?y <l0> ?z . }}",
    ]
    return rng.choice(pool)


def random_specs(rng, count=QUERIES_PER_GRAPH):
    vertices = [f"n{i}" for i in range(NUM_VERTICES)]
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    return [
        (
            rng.choice(vertices),
            rng.choice(vertices),
            rng.sample(labels, rng.randint(1, NUM_LABELS)),
            constraint_pool(rng),
        )
        for _ in range(count)
    ]


def naive_answer(graph, source, target, labels, constraint_text, cache):
    if constraint_text not in cache:
        cache[constraint_text] = SubstructureConstraint.from_sparql(constraint_text)
    query = LSCRQuery(
        source=source,
        target=target,
        labels=LabelConstraint(labels),
        constraint=cache[constraint_text],
    )
    return NaiveTwoProcedure(graph).decide(query)


class TestShardedAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_sharded_agrees_with_naive_and_unsharded(self, seed):
        graph = make_graph(seed)
        plain = QueryService(graph, seed=seed)
        rng = random.Random(seed * 7919 + 1)
        parsed = {}
        with make_sharded(graph, seed) as sharded, closing(plain):
            for source, target, labels, text in random_specs(rng):
                expected = naive_answer(graph, source, target, labels, text, parsed)
                single, _ = plain.query(source, target, labels, text)
                assert single.answer == expected
                first, meta1 = sharded.query(source, target, labels, text)
                assert first.answer == expected, (
                    f"seed={seed} shards={shard_count(seed)} "
                    f"{source}->{target} L={labels} S={text!r}: "
                    f"sharded={first.answer} naive={expected} ({meta1['reason']})"
                )
                # Executed answers carry the coordinator's stamp —
                # unless the approx tier soundly short-circuited before
                # anything scattered ("bounds"/"witness").
                if not meta1["trivial"]:
                    assert first.algorithm in ("sharded", "bounds", "witness")
                # Second pass: identical answer off the cache (or the
                # re-planned trivial path).
                second, meta2 = sharded.query(source, target, labels, text)
                assert second.answer == expected
                if meta1["trivial"]:
                    assert meta2["trivial"]
                else:
                    assert meta2["cached"]

    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_batch_path_agrees(self, seed):
        graph = make_graph(seed)
        rng = random.Random(seed * 104729 + 3)
        parsed = {}
        raw = random_specs(rng, count=12)
        expected = [
            naive_answer(graph, s, t, labels, text, parsed)
            for s, t, labels, text in raw
        ]
        specs = [
            {"source": s, "target": t, "labels": labels, "constraint": text}
            for s, t, labels, text in raw
        ]
        with make_sharded(graph, seed) as sharded:
            answered = sharded.query_batch(specs)
            assert [result.answer for result, _ in answered] == expected
            again = sharded.query_batch(specs)
            assert [result.answer for result, _ in again] == expected
            assert all(meta["cached"] or meta["trivial"] for _, meta in again)

    @pytest.mark.parametrize("seed", SEEDS[::10])
    def test_forced_algorithm_bypasses_sharding_and_agrees(self, seed):
        # plan.forced routes around the coordinator; answers still match.
        graph = make_graph(seed)
        rng = random.Random(seed * 13 + 5)
        parsed = {}
        with make_sharded(graph, seed) as sharded:
            for source, target, labels, text in random_specs(rng, count=4):
                expected = naive_answer(graph, source, target, labels, text, parsed)
                result, meta = sharded.query(
                    source, target, labels, text, algorithm="uis", use_cache=False
                )
                assert result.answer == expected
                if not meta["trivial"]:
                    assert result.algorithm == "UIS"


class TestEarlyExits:
    def test_unreachable_target_skips_phase_two(self):
        # s reaches a satisfying vertex but never the target: the
        # answer is decided after phase one (no second closure).
        graph = graph_from_edges(
            [("s", "go", "v"), ("v", "mark", "v"), ("x", "go", "t")]
        )
        with sharded_fleet(
            graph, seed=0, shards=2, local_fast_path=False
        ) as service:
            # Straight to the coordinator: the router's bounds would
            # answer this definite-No before it runs, and phase one is
            # what's under test here.
            plan = service.planner.plan(
                "s", "t", ["go"], "SELECT ?x WHERE { ?x <mark> ?y . }"
            )
            result = service.coordinator.answer(plan.query, service.epoch)
            assert result.answer is False
            # passed_vertices counts phase one only: {s, v}.
            assert result.passed_vertices == 2

    def test_empty_candidate_set_skips_both_phases(self):
        # 'mark' label exists (so the planner doesn't trivialise the
        # constraint structurally) but nothing satisfies the anchored
        # pattern below: V(S, G) is empty at evaluation time.
        graph = graph_from_edges(
            [("s", "go", "t"), ("a", "mark", "b")]
        )
        with sharded_fleet(
            graph, seed=0, shards=2, local_fast_path=False
        ) as service:
            result, meta = service.query(
                "s", "t", ["go"], "SELECT ?x WHERE { ?x <mark> s . }"
            )
            assert result.answer is False
            if not meta["trivial"]:
                assert result.passed_vertices == 0  # no closure ran


class TestRemoteWorkerAgreement:
    """A second coordinator over the same worker stubs answers exactly."""

    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_remote_coordinator_agrees_with_oracle(self, seed):
        graph = random_labeled_graph(
            24, 2.0, 4, rng=seed, name=f"remote-{seed}"
        )
        with ExitStack() as stack:
            sharded = stack.enter_context(
                sharded_fleet(graph, seed=seed, shards=3)
            )
            remote = ShardCoordinator(sharded.workers)
            stack.callback(remote.close)
            oracle = NaiveTwoProcedure(sharded.graph)
            rng = random.Random(seed * 37 + 11)
            for _ in range(8):
                source = f"n{rng.randrange(24)}"
                target = f"n{rng.randrange(24)}"
                labels = rng.sample([f"l{i}" for i in range(4)], rng.randint(1, 3))
                query = LSCRQuery.create(
                    source, target, labels, constraint_pool(rng)
                )
                answer = remote.answer(query, sharded.epoch).answer
                assert answer == oracle.decide(query), (
                    seed,
                    source,
                    target,
                    labels,
                )
