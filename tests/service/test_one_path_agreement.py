"""Randomized agreement for the one serving path, door by door.

One process serves each graph whole: every request, whichever door it
comes in by, is planned, looked up in the result cache and evaluated by
one :class:`~repro.service.app.QueryService` path.  This suite holds
each door of that path to :class:`NaiveTwoProcedure` (correct by
Theorem 2.1, sharing no code with the planner, the caches or the
router) on 50 seeded random graphs:

* **every named evaluator** — a request naming ``naive``, ``uis``,
  ``uis*`` or ``meet`` bypasses the router and runs exactly that
  evaluator; its reply names it, and its repeat comes off the cache.
  A request naming ``ins`` is refused with the planner's structured
  error for every spec, trivial ones included, and caches and counts
  nothing;
* **every HTTP door** — ``/query`` and ``/batch`` on one keep-alive
  connection, bare, under ``?deadline_ms=``, under ``?trace=1`` and
  behind admission control (``max_concurrent`` / ``max_queue``): the
  deadline, trace and admission branches wrap the same call and may not
  change a single answer, and each answers a request naming ``ins`` with
  the same structured 400 and caches nothing for it;
* **every evaluator after a swap** — after mixed add/remove batches
  publish new epochs, each named evaluator answers for the mutated
  graph, and ``ins`` is refused on every published epoch.

INS is not served: it runs through the library
(:func:`~repro.core.algorithms.make_algorithm`) on an index built for
each of the same graphs, before and after the same batches.
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
from repro.core.algorithms import make_algorithm
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import BadRequestError
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
}

#: How the planner refuses a request naming INS, at every door.
INS_REFUSED = (
    "algorithm 'ins' is not served; run it with "
    "`repro query --algorithm ins` or drop the override"
)

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


def assert_ins_refused(service, source, target, labels, text):
    """A request naming ``ins`` gets the structured refusal and leaves
    the caches and the query counters as they were."""
    before = (len(service.results), service.stats.snapshot()["queries"])
    with pytest.raises(BadRequestError) as refused:
        service.query(source, target, labels, text, algorithm="ins")
    assert str(refused.value) == INS_REFUSED
    assert (len(service.results), service.stats.snapshot()["queries"]) == before


def make_service(graph, seed, **keywords):
    return QueryService(graph, seed=seed, **keywords)


def library_ins(graph, seed):
    """INS as ``repro query --algorithm ins`` runs it: on an index built
    for ``graph``."""
    index = build_local_index(graph, k=3, rng=seed)
    return make_algorithm("ins", graph, seed=seed, index=index)


def make_query(source, target, labels, constraint_text, cache):
    if constraint_text not in cache:
        cache[constraint_text] = SubstructureConstraint.from_sparql(constraint_text)
    return LSCRQuery(
        source=source,
        target=target,
        labels=LabelConstraint(labels),
        constraint=cache[constraint_text],
    )


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
    query = make_query(source, target, labels, constraint_text, cache)
    return NaiveTwoProcedure(graph).decide(query)


def random_batch(graph, rng, round_number):
    """One mixed batch over ``graph``: a removal of a present edge, then
    additions, one of them possibly to a new vertex."""
    known = [str(name) for name in graph.vertex_names()]
    batch = []
    for position in range(4):
        if position == 0 and graph.num_edges:
            edge = rng.choice(sorted(graph.edges()))
            batch.append(
                (
                    graph.name_of(edge[0]),
                    graph.label_name(edge[1]),
                    graph.name_of(edge[2]),
                    "remove",
                )
            )
        else:
            target = rng.choice(known + [f"w{round_number}"])
            label = f"l{rng.randrange(NUM_LABELS)}"
            batch.append((rng.choice(known), label, target, "add"))
    return batch


def apply_batch(graph, batch):
    for source, label, target, op in batch:
        if op == "add":
            graph.add_edge(source, label, target)
        else:
            graph.remove_edge(source, label, target)


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
    @pytest.mark.parametrize("algorithm", sorted([*EVALUATORS, "ins"]))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_a_named_evaluator_agrees_with_the_oracle(self, seed, algorithm):
        graph = make_graph(seed)
        rng = random.Random(seed * 6151 + 17)
        parsed = {}
        vertices = [f"n{i}" for i in range(NUM_VERTICES)]
        with closing(make_service(graph, seed)) as service:
            for source, target, labels, text in random_specs(rng, vertices):
                if algorithm == "ins":
                    assert_ins_refused(service, source, target, labels, text)
                    continue
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
        with closing(make_service(graph, seed, **keywords)) as service:
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
                    # INS is refused before any cache sees it.
                    cached = service.epoch.results.stats().as_dict()
                    named = [{**item, "algorithm": "ins"} for item in specs]
                    for path, body in (
                        (f"/query{suffix}", named[0]),
                        (f"/batch{suffix}", {"queries": specs[:1] + named}),
                    ):
                        status, document = post(connection, path, body)
                        assert status == 400, document
                        assert document["error"] == {
                            "type": "bad-request", "message": INS_REFUSED,
                        }
                    assert service.epoch.results.stats().as_dict() == cached
                    status, document = post(connection, f"/query{suffix}", specs[0])
                    assert (status, document["answer"]) == (200, expected[0])
            if door == "admission":
                counters = service.admission.stats()
                assert counters["admitted"] == len(specs) + 4
                assert counters["shed"] == 0
                assert counters["active"] == counters["queued"] == 0


class TestEveryEvaluatorAfterASwap:
    @pytest.mark.parametrize("algorithm", sorted([*EVALUATORS, "ins"]))
    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_a_named_evaluator_answers_for_the_published_epoch(
        self, seed, algorithm
    ):
        graph = make_graph(seed)
        oracle = graph.copy()  # mutated in lockstep, queried by the oracle
        rng = random.Random(seed * 3571 + 41)
        parsed = {}
        with closing(make_service(graph, seed)) as service:
            for round_number in range(1, 3):
                batch = random_batch(oracle, rng, round_number)
                summary = service.apply_updates(batch)
                apply_batch(oracle, batch)
                assert service.graph.num_edges == oracle.num_edges
                vertices = [str(name) for name in oracle.vertex_names()]
                for source, target, labels, text in random_specs(rng, vertices):
                    if algorithm == "ins":
                        assert_ins_refused(service, source, target, labels, text)
                        assert service.epoch.epoch_id == summary["epoch"]
                        continue
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


class TestInsThroughTheLibrary:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ins_agrees_with_the_oracle(self, seed):
        graph = make_graph(seed)
        rng = random.Random(seed * 6151 + 17)
        parsed = {}
        vertices = [f"n{i}" for i in range(NUM_VERTICES)]
        ins = library_ins(graph, seed)
        for source, target, labels, text in random_specs(rng, vertices):
            expected = naive_answer(graph, source, target, labels, text, parsed)
            if not graph.has_vertex(source) or not graph.has_vertex(target):
                continue
            result = ins.answer(make_query(source, target, labels, text, parsed))
            assert result.answer == expected, (
                f"seed={seed} ins {source}->{target} L={labels} S={text!r}: "
                f"ins={result.answer} naive={expected}"
            )
            assert result.algorithm == "INS"

    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_ins_agrees_after_the_swap_batches(self, seed):
        """The graphs the swap suite publishes, each with its own index."""
        graph = make_graph(seed)
        rng = random.Random(seed * 3571 + 41)
        parsed = {}
        for round_number in range(1, 3):
            apply_batch(graph, random_batch(graph, rng, round_number))
            ins = library_ins(graph, seed)
            vertices = [str(name) for name in graph.vertex_names()]
            for source, target, labels, text in random_specs(rng, vertices):
                expected = naive_answer(graph, source, target, labels, text, parsed)
                query = make_query(source, target, labels, text, parsed)
                assert ins.answer(query).answer == expected, (
                    f"seed={seed} round={round_number} ins {source}->{target} "
                    f"L={labels} S={text!r}"
                )
