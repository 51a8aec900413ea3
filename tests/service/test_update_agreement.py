"""Randomized agreement for live updates: epoch swaps vs a naive oracle.

The epoch-swap subsystem layers graph copying, re-freezing,
per-epoch caches and atomic publication on top of the
paper's algorithms — none of which may change a single Boolean answer.
This suite interleaves random edge batches and query workloads on ~30
seeded graphs: after every ``apply_updates`` the service's answers must
equal :class:`NaiveTwoProcedure` run on an independently mutated mirror
graph (the oracle shares no code with the update path — it rebuilds
nothing, it just owns a second copy of the data).

The concurrency group runs readers *during* the swaps: every response
carries the epoch it was answered on, and each recorded
``(answer, epoch)`` pair must match the oracle for exactly that epoch —
the precise statement of "queries running during apply_updates all
return answers valid for some published epoch".
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.service.app import QueryService
from tests.helpers import graph_from_edges

SEEDS = list(range(30))
UPDATE_ROUNDS = 3
QUERIES_PER_ROUND = 6
NUM_LABELS = 3
NUM_VERTICES = 9


def make_graph(seed):
    return random_labeled_graph(
        NUM_VERTICES, 1.6, NUM_LABELS, rng=seed, name=f"live-{seed}"
    )


def make_service(graph, seed):
    return QueryService(graph, seed=seed)


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


def random_batch(rng, round_number, oracle):
    """2-5 random edge additions: existing vertices, fresh vertices and
    the occasional deliberate duplicate of an existing edge."""
    known = [f"n{i}" for i in range(NUM_VERTICES)]
    fresh = [f"u{round_number}_{i}" for i in range(2)]
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    batch = []
    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.15 and oracle.num_edges:
            edge = rng.choice(sorted(oracle.edges()))
            batch.append(
                (
                    oracle.name_of(edge[0]),
                    oracle.label_name(edge[1]),
                    oracle.name_of(edge[2]),
                )
            )
        else:
            source = rng.choice(known if roll < 0.8 else known + fresh)
            target = rng.choice(known if rng.random() < 0.8 else known + fresh)
            batch.append((source, rng.choice(labels), target))
    return batch


def random_mixed_batch(rng, round_number, oracle):
    """Like :func:`random_batch` but with explicit ops: additions mixed
    with removals of real edges and removals of absent ones."""
    known = [str(name) for name in oracle.vertex_names()]
    fresh = [f"m{round_number}_{i}" for i in range(2)]
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    batch = []
    for _ in range(rng.randint(2, 5)):
        roll = rng.random()
        if roll < 0.35 and oracle.num_edges:
            edge = rng.choice(sorted(oracle.edges()))
            batch.append(
                (
                    oracle.name_of(edge[0]),
                    oracle.label_name(edge[1]),
                    oracle.name_of(edge[2]),
                    "remove",
                )
            )
        elif roll < 0.45:
            batch.append(
                (rng.choice(known), rng.choice(labels), "never-added", "remove")
            )
        else:
            source = rng.choice(known if roll < 0.85 else known + fresh)
            target = rng.choice(known if rng.random() < 0.85 else known + fresh)
            batch.append((source, rng.choice(labels), target, "add"))
    return batch


def apply_mixed_to_oracle(oracle, batch):
    """Mutate the mirror; returns (added, removed, missing) counts."""
    added = removed = missing = 0
    for source, label, target, op in batch:
        if op == "add":
            added += bool(oracle.add_edge(source, label, target))
        elif oracle.remove_edge(source, label, target):
            removed += 1
        else:
            missing += 1
    return added, removed, missing


def random_specs(rng, oracle, count=QUERIES_PER_ROUND):
    """Random specs over every vertex the mutated graph currently has."""
    vertices = [str(name) for name in oracle.vertex_names()]
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
    if not graph.has_vertex(source) or not graph.has_vertex(target):
        return False  # the planner's trivial verdict, mirrored
    if constraint_text not in cache:
        cache[constraint_text] = SubstructureConstraint.from_sparql(constraint_text)
    query = LSCRQuery(
        source=source,
        target=target,
        labels=LabelConstraint(labels),
        constraint=cache[constraint_text],
    )
    return NaiveTwoProcedure(graph).decide(query)


class TestUpdateAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_answers_after_each_swap_match_the_mutated_oracle(self, seed):
        graph = make_graph(seed)
        oracle = graph.copy()  # mutated in lockstep, queried by the oracle
        service = make_service(graph, seed)
        rng = random.Random(seed * 52361 + 7)
        parsed = {}
        expected_epoch = 0
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_batch(rng, round_number, oracle)
                summary = service.apply_updates(batch)
                applied = sum(oracle.add_edge(s, l, t) for s, l, t in batch)
                if applied:  # an all-duplicate batch publishes nothing
                    expected_epoch += 1
                assert summary["epoch"] == expected_epoch
                assert summary["edges_added"] == applied
                assert summary["edges_duplicate"] == len(batch) - applied
                assert service.graph.num_edges == oracle.num_edges
                assert service.graph.num_vertices == oracle.num_vertices
                for source, target, labels, text in random_specs(rng, oracle):
                    expected = naive_answer(
                        oracle, source, target, labels, text, parsed
                    )
                    result, meta = service.query(source, target, labels, text)
                    assert result.answer == expected, (
                        f"seed={seed} round={round_number} {source}->{target} "
                        f"L={labels} S={text!r}: service={result.answer} "
                        f"naive={expected} ({meta['reason']})"
                    )
                    assert meta["epoch"] == expected_epoch
                    # Second pass: the epoch's own cache must serve the
                    # same answer (and executed ones must actually hit).
                    second, meta2 = service.query(source, target, labels, text)
                    assert second.answer == expected
                    if not meta["trivial"]:
                        assert meta2["cached"]
        finally:
            service.close()

    @pytest.mark.parametrize("seed", SEEDS[::6])
    def test_fresh_service_on_mutated_graph_agrees(self, seed):
        # The acceptance criterion verbatim: after updates, the serving
        # service must be indistinguishable from one freshly built on
        # the mutated graph.
        graph = make_graph(seed)
        oracle = graph.copy()
        service = make_service(graph, seed)
        rng = random.Random(seed * 7 + 3)
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_batch(rng, round_number, oracle)
                service.apply_updates(batch)
                for s, l, t in batch:
                    oracle.add_edge(s, l, t)
            reference = make_service(oracle.copy(), seed)
            try:
                for source, target, labels, text in random_specs(
                    rng, oracle, count=10
                ):
                    live, _ = service.query(source, target, labels, text)
                    fresh, _ = reference.query(source, target, labels, text)
                    assert live.answer == fresh.answer, (
                        f"seed={seed} {source}->{target} L={labels} S={text!r}"
                    )
            finally:
                reference.close()
        finally:
            service.close()


class TestMixedUpdateAgreement:
    """Insertions *and* retractions through the same epoch machinery.

    The regression this guards: ``op: "remove"`` batches used to
    validate and then silently vanish — ``apply_updates`` only routed
    additions, so acknowledged retractions never left the graph.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_answers_after_mixed_batches_match_the_oracle(self, seed):
        graph = make_graph(seed)
        oracle = graph.copy()
        service = make_service(graph, seed)
        rng = random.Random(seed * 8191 + 13)
        parsed = {}
        expected_epoch = 0
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_mixed_batch(rng, round_number, oracle)
                summary = service.apply_updates(batch)
                added, removed, missing = apply_mixed_to_oracle(oracle, batch)
                if added or removed:
                    expected_epoch += 1
                assert summary["epoch"] == expected_epoch
                assert summary["edges_added"] == added
                assert summary["edges_removed"] == removed
                assert summary["edges_missing"] == missing
                assert service.graph.num_edges == oracle.num_edges
                for source, target, labels, text in random_specs(rng, oracle):
                    expected = naive_answer(
                        oracle, source, target, labels, text, parsed
                    )
                    result, meta = service.query(source, target, labels, text)
                    assert result.answer == expected, (
                        f"seed={seed} round={round_number} {source}->{target} "
                        f"L={labels} S={text!r}: service={result.answer} "
                        f"naive={expected} ({meta['reason']})"
                    )
                    assert meta["epoch"] == expected_epoch
        finally:
            service.close()

    @pytest.mark.parametrize("seed", SEEDS[::6])
    def test_fresh_service_on_retracted_graph_agrees(self, seed):
        graph = make_graph(seed)
        oracle = graph.copy()
        service = make_service(graph, seed)
        rng = random.Random(seed * 131 + 1)
        try:
            for round_number in range(1, UPDATE_ROUNDS + 1):
                batch = random_mixed_batch(rng, round_number, oracle)
                service.apply_updates(batch)
                apply_mixed_to_oracle(oracle, batch)
            reference = make_service(oracle.copy(), seed)
            try:
                for source, target, labels, text in random_specs(
                    rng, oracle, count=10
                ):
                    live, _ = service.query(source, target, labels, text)
                    fresh, _ = reference.query(source, target, labels, text)
                    assert live.answer == fresh.answer, (
                        f"seed={seed} {source}->{target} L={labels} S={text!r}"
                    )
            finally:
                reference.close()
        finally:
            service.close()


class TestConcurrentReadersDuringSwaps:
    def test_every_answer_is_valid_for_its_reported_epoch(self):
        # A chain that grows one link per update: s -> c0 -> c1 -> ...
        # The probe "s reaches ck" flips from False to True exactly when
        # epoch k is published, so any mixed-version answer is caught.
        chain_length = 6
        base = graph_from_edges(
            [("s", "go", "c0"), ("s", "mark", "s")], name="concurrent"
        )
        oracles = [base.copy()]
        for k in range(chain_length):
            mutated = oracles[-1].copy()
            mutated.add_edge(f"c{k}", "go", f"c{k + 1}")
            oracles.append(mutated)
        probes = [
            ("s", f"c{k + 1}", ["go"], "SELECT ?x WHERE { ?x <mark> ?y . }")
            for k in range(chain_length)
        ]
        parsed = {}
        expected = [
            [naive_answer(oracle, *probe, parsed) for probe in probes]
            for oracle in oracles
        ]
        # Sanity: each probe flips exactly at its epoch.
        for k in range(chain_length):
            assert expected[k][k] is False and expected[k + 1][k] is True

        service = QueryService(base, seed=0)
        records = []
        failures = []
        stop = threading.Event()

        def reader(reader_seed):
            rng = random.Random(reader_seed)
            while not stop.is_set():
                probe = rng.choice(probes)
                try:
                    result, meta = service.query(
                        *probe, use_cache=rng.random() < 0.5
                    )
                except Exception as error:  # noqa: BLE001 — reported below
                    failures.append(repr(error))
                    return
                records.append((probes.index(probe), result.answer,
                                meta["epoch"]))

        threads = [
            threading.Thread(target=reader, args=(i,), daemon=True)
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            for k in range(chain_length):
                service.apply_updates([(f"c{k}", "go", f"c{k + 1}")])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            service.close()

        assert not failures, failures
        assert records
        published = set(range(chain_length + 1))
        for probe_index, answer, epoch in records:
            assert epoch in published
            assert answer == expected[epoch][probe_index], (
                f"probe {probe_index} answered {answer} on epoch {epoch}, "
                f"oracle says {expected[epoch][probe_index]}"
            )
        # After the last swap every probe must answer with the final
        # graph (a straggler service would still be on an older epoch).
        for probe_index, probe in enumerate(probes):
            result, meta = service.query(*probe)
            assert meta["epoch"] == chain_length
            assert result.answer is expected[chain_length][probe_index]
