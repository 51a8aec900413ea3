"""Randomized agreement for the one serving path, door by door.

One process serves each graph whole: every request, whichever door it
comes in by, is planned, looked up in the result cache and evaluated by
one :class:`~repro.service.app.QueryService` path.  This suite holds
each door of that path to :class:`NaiveTwoProcedure` (correct by
Theorem 2.1, sharing no code with the planner, the caches or the
router) on 50 seeded random graphs:

* **every named evaluator** — a request naming ``naive``, ``uis``,
  ``uis*``, ``meet`` or ``ins`` bypasses the router and runs exactly
  that evaluator; its reply names it, and its repeat comes off the
  cache;
* **every HTTP door** — ``/query`` and ``/batch`` on one keep-alive
  connection, bare, under ``?deadline_ms=``, under ``?trace=1`` and
  behind admission control (``max_concurrent`` / ``max_queue``): the
  deadline, trace and admission branches wrap the same call and may not
  change a single answer;
* **every evaluator after a swap** — after mixed add/remove batches
  publish new epochs, each named evaluator answers for the mutated
  graph (INS on the index rebuilt for that epoch).
"""

from __future__ import annotations

import http.client
import json
import random
from contextlib import closing
from urllib.parse import urlsplit

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from tests.helpers import running_server

#: 50 generated graphs, every seed fixed for reproducibility.
SEEDS = list(range(50))
QUERIES_PER_GRAPH = 6
NUM_LABELS = 3
NUM_VERTICES = 9

#: Request spelling → the name the reply reports for that evaluator.
EVALUATORS = {
    "naive": "Naive",
    "uis": "UIS",
    "uis*": "UIS*",
    "meet": "Meet",
    "ins": "INS",
}

#: HTTP door → (service keywords, query string on every request).
DOORS = {
    "bare": ({}, ""),
    "deadline": ({}, "?deadline_ms=60000"),
    "trace": ({}, "?trace=1"),
    "admission": ({"max_concurrent": 2, "max_queue": 8}, ""),
}


def make_graph(seed):
    return random_labeled_graph(
        NUM_VERTICES, 1.8, NUM_LABELS, rng=seed, name=f"one-path-{seed}"
    )


def make_indexed_service(graph, seed, **keywords):
    """A service with a loaded index, so ``ins`` is a valid name."""
    index = build_local_index(graph, k=3, rng=seed)
    return QueryService(graph, index, seed=seed, **keywords)


def constraint_pool(rng, vertices):
    label = f"l{rng.randrange(NUM_LABELS)}"
    anchor = rng.choice(vertices)
    pool = [
        f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}",
        f"SELECT ?x WHERE {{ ?x <{label}> {anchor} . }}",
        f"SELECT ?x WHERE {{ {anchor} <{label}> ?x . }}",
        f"SELECT ?x WHERE {{ ?x <{label}> ?y . ?y <l0> ?z . }}",
    ]
    return rng.choice(pool)


def random_specs(rng, vertices, count=QUERIES_PER_GRAPH):
    """``count`` random (source, target, labels, constraint) specs."""
    labels = [f"l{i}" for i in range(NUM_LABELS)]
    return [
        (
            rng.choice(vertices),
            rng.choice(vertices),
            rng.sample(labels, rng.randint(1, NUM_LABELS)),
            constraint_pool(rng, vertices),
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


def post(connection, path, payload):
    """POST ``payload`` on a kept-alive connection; ``(status, document)``."""
    connection.request(
        "POST",
        path,
        body=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


class TestEveryNamedEvaluator:
    @pytest.mark.parametrize("algorithm", sorted(EVALUATORS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_named_evaluator_agrees_with_the_oracle(self, seed, algorithm):
        graph = make_graph(seed)
        rng = random.Random(seed * 6151 + 17)
        parsed = {}
        vertices = [f"n{i}" for i in range(NUM_VERTICES)]
        with closing(make_indexed_service(graph, seed)) as service:
            for source, target, labels, text in random_specs(rng, vertices):
                expected = naive_answer(graph, source, target, labels, text, parsed)
                first, meta1 = service.query(
                    source, target, labels, text, algorithm=algorithm
                )
                assert first.answer == expected, (
                    f"seed={seed} {algorithm} {source}->{target} L={labels} "
                    f"S={text!r}: service={first.answer} naive={expected}"
                )
                if meta1["trivial"]:
                    continue
                # The named evaluator ran: no router tier settled it.
                assert first.algorithm == EVALUATORS[algorithm]
                assert "tier" not in meta1
                second, meta2 = service.query(
                    source, target, labels, text, algorithm=algorithm
                )
                assert second.answer == expected
                assert meta2["cached"]


class TestEveryHttpDoor:
    @pytest.mark.parametrize("door", sorted(DOORS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_query_and_batch_agree_with_the_oracle(self, seed, door):
        keywords, suffix = DOORS[door]
        graph = make_graph(seed)
        rng = random.Random(seed * 7723 + 29)
        parsed = {}
        vertices = [f"n{i}" for i in range(NUM_VERTICES)]
        raw = random_specs(rng, vertices)
        expected = [
            naive_answer(graph, s, t, labels, text, parsed)
            for s, t, labels, text in raw
        ]
        specs = [
            {"source": s, "target": t, "labels": labels, "constraint": text}
            for s, t, labels, text in raw
        ]
        with closing(make_indexed_service(graph, seed, **keywords)) as service:
            with running_server(service) as url:
                connection = http.client.HTTPConnection(
                    urlsplit(url).netloc, timeout=10
                )
                with closing(connection):
                    for item, answer in zip(specs, expected):
                        status, document = post(connection, f"/query{suffix}", item)
                        assert status == 200, document
                        assert document["answer"] == answer, (seed, door, item)
                        assert ("trace" in document) == (door == "trace")
                    # The batch repeats every spec: same answers, and
                    # each executed one now comes off the cache.
                    status, document = post(
                        connection, f"/batch{suffix}", {"queries": specs}
                    )
                    assert status == 200, document
                    assert [r["answer"] for r in document["results"]] == expected
                    assert all(r["cached"] or r["trivial"] for r in document["results"])
            if door == "admission":
                counters = service.admission.stats()
                assert counters["admitted"] == len(specs) + 1
                assert counters["shed"] == 0
                assert counters["active"] == counters["queued"] == 0


class TestEveryEvaluatorAfterASwap:
    @pytest.mark.parametrize("algorithm", sorted(EVALUATORS))
    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_a_named_evaluator_answers_for_the_published_epoch(
        self, seed, algorithm
    ):
        graph = make_graph(seed)
        oracle = graph.copy()  # mutated in lockstep, queried by the oracle
        rng = random.Random(seed * 3571 + 41)
        parsed = {}
        with closing(make_indexed_service(graph, seed)) as service:
            for round_number in range(1, 3):
                known = [str(name) for name in oracle.vertex_names()]
                batch = []
                for position in range(4):
                    if position == 0 and oracle.num_edges:
                        edge = rng.choice(sorted(oracle.edges()))
                        batch.append(
                            (
                                oracle.name_of(edge[0]),
                                oracle.label_name(edge[1]),
                                oracle.name_of(edge[2]),
                                "remove",
                            )
                        )
                    else:
                        target = rng.choice(known + [f"w{round_number}"])
                        label = f"l{rng.randrange(NUM_LABELS)}"
                        batch.append((rng.choice(known), label, target, "add"))
                summary = service.apply_updates(batch)
                for source, label, target, op in batch:
                    if op == "add":
                        oracle.add_edge(source, label, target)
                    else:
                        oracle.remove_edge(source, label, target)
                assert service.graph.num_edges == oracle.num_edges
                vertices = [str(name) for name in oracle.vertex_names()]
                for source, target, labels, text in random_specs(rng, vertices):
                    expected = naive_answer(
                        oracle, source, target, labels, text, parsed
                    )
                    result, meta = service.query(
                        source, target, labels, text, algorithm=algorithm
                    )
                    assert result.answer == expected, (
                        f"seed={seed} round={round_number} {algorithm} "
                        f"{source}->{target} L={labels} S={text!r}: "
                        f"service={result.answer} naive={expected}"
                    )
                    assert meta["epoch"] == summary["epoch"]
                    if not meta["trivial"]:
                        assert result.algorithm == EVALUATORS[algorithm]
