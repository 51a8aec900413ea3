"""Randomized agreement: the full service path vs. the naive oracle.

The service stack adds planning, canonical cache keys, result caching,
``V(S, G)`` candidate caching, frozen CSR graph snapshots, session
pooling and batch fan-out on top of the paper's algorithms — none of
which may change a single Boolean answer.  QueryService freezes its
graph at construction, so every run of this suite exercises the
frozen-graph serving path (asserted in ``make_service``), including the
two-tenant interleaved group.  This suite generates
many random small graphs and query workloads from fixed seeds and
answers every query twice through the full service path (planner →
cache → session; the second pass exercises the cache-hit path) and once
with :class:`NaiveTwoProcedure`, whose correctness is immediate from
Theorem 2.1 and which shares no code with the planner or caches.

A second group runs the same property with *two* tenants sharing one
process behind a :class:`TenantRegistry` — different graphs, different
label alphabets — interleaving their queries to prove the per-tenant
caches, stats and session pools don't bleed into each other.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.graph import FrozenGraph
from repro.service.app import QueryService
from repro.service.registry import TenantRegistry

#: ~50 generated graphs, every seed fixed for reproducibility.
SEEDS = list(range(50))
QUERIES_PER_GRAPH = 8


def make_graph(seed, num_labels=3, num_vertices=9, density=1.8):
    return random_labeled_graph(
        num_vertices, density, num_labels, rng=seed, name=f"agree-{seed}"
    )


def make_service(graph, seed):
    service = QueryService(graph, seed=seed)
    assert isinstance(service.graph, FrozenGraph)  # the suite runs frozen
    return service


def constraint_pool(rng, num_labels, num_vertices):
    """Random anchored SPARQL texts over the graph's l0..l{k-1} alphabet."""
    label = f"l{rng.randrange(num_labels)}"
    anchor = f"n{rng.randrange(num_vertices)}"
    pool = [
        f"SELECT ?x WHERE {{ ?x <{label}> ?y . }}",
        f"SELECT ?x WHERE {{ ?x <{label}> {anchor} . }}",
        f"SELECT ?x WHERE {{ {anchor} <{label}> ?x . }}",
        f"SELECT ?x WHERE {{ ?x <{label}> ?y . ?y <l0> ?z . }}",
    ]
    return rng.choice(pool)


def random_specs(rng, num_labels, num_vertices, count=QUERIES_PER_GRAPH):
    """``count`` random (source, target, labels, constraint) specs."""
    vertices = [f"n{i}" for i in range(num_vertices)]
    labels = [f"l{i}" for i in range(num_labels)]
    specs = []
    for _ in range(count):
        specs.append(
            (
                rng.choice(vertices),
                rng.choice(vertices),
                rng.sample(labels, rng.randint(1, num_labels)),
                constraint_pool(rng, num_labels, num_vertices),
            )
        )
    return specs


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


class TestServicePathAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_service_agrees_with_naive_oracle(self, seed):
        graph = make_graph(seed)
        service = make_service(graph, seed)
        rng = random.Random(seed * 7919 + 1)
        parsed = {}
        for source, target, labels, text in random_specs(rng, 3, 9):
            expected = naive_answer(graph, source, target, labels, text, parsed)
            first, meta1 = service.query(source, target, labels, text)
            assert first.answer == expected, (
                f"seed={seed} {source}->{target} L={labels} S={text!r}: "
                f"service={first.answer} naive={expected} ({meta1['reason']})"
            )
            # Second pass: same answer off the cache-hit (or re-planned
            # trivial) path.  Executed answers must be served from cache.
            second, meta2 = service.query(source, target, labels, text)
            assert second.answer == expected
            if meta1["trivial"]:
                assert meta2["trivial"]
            else:
                assert meta2["cached"]

    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_batch_path_agrees_with_naive_oracle(self, seed):
        graph = make_graph(seed)
        service = make_service(graph, seed)
        rng = random.Random(seed * 104729 + 3)
        parsed = {}
        raw = random_specs(rng, 3, 9, count=12)
        expected = [
            naive_answer(graph, s, t, labels, text, parsed)
            for s, t, labels, text in raw
        ]
        specs = [
            {"source": s, "target": t, "labels": labels, "constraint": text}
            for s, t, labels, text in raw
        ]
        answered = service.query_batch(specs)
        assert [result.answer for result, _ in answered] == expected
        # Once more: every non-trivial answer now comes from the cache.
        again = service.query_batch(specs)
        assert [result.answer for result, _ in again] == expected
        assert all(meta["cached"] or meta["trivial"] for _, meta in again)


class TestTwoTenantAgreement:
    """Two graphs, one process: answers correct and non-interfering."""

    @pytest.mark.parametrize("seed", SEEDS[::5])
    def test_interleaved_tenants_agree_with_their_oracles(self, seed):
        graph_a = make_graph(seed, num_labels=3, num_vertices=9)
        graph_b = make_graph(seed + 1000, num_labels=4, num_vertices=11)
        registry = TenantRegistry(default_tenant="a")
        registry.add("a", make_service(graph_a, seed))
        registry.add("b", QueryService(graph_b, seed=seed))

        rng = random.Random(seed * 31337 + 5)
        specs_a = random_specs(rng, 3, 9)
        specs_b = random_specs(rng, 4, 11)
        parsed_a, parsed_b = {}, {}
        # Interleave: a, b, a, b, ... each answered twice via the JSON
        # API, checked against the oracle for its *own* graph.
        for (sa, ta, la, ca), (sb, tb, lb, cb) in zip(specs_a, specs_b):
            expected_a = naive_answer(graph_a, sa, ta, la, ca, parsed_a)
            expected_b = naive_answer(graph_b, sb, tb, lb, cb, parsed_b)
            for tenant, spec, expected in (
                ("a", {"source": sa, "target": ta, "labels": la, "constraint": ca},
                 expected_a),
                ("b", {"source": sb, "target": tb, "labels": lb, "constraint": cb},
                 expected_b),
            ):
                document = json.loads(registry.get(tenant).handle_query(spec))
                assert document["answer"] == expected, (
                    f"seed={seed} tenant={tenant} {spec}: "
                    f"service={document['answer']} naive={expected}"
                )
                repeat = json.loads(registry.get(tenant).handle_query(spec))
                assert repeat["answer"] == expected
                assert repeat["cached"] or repeat["trivial"]

        # Isolation: each tenant cached only its own results and counted
        # only its own traffic.
        service_a, service_b = registry.get("a"), registry.get("b")
        assert service_a.results is not service_b.results
        assert service_a.constraints is not service_b.constraints
        total = QUERIES_PER_GRAPH * 2
        assert service_a.stats.snapshot()["queries"]["total"] == total
        assert service_b.stats.snapshot()["queries"]["total"] == total

    def test_same_query_text_different_graphs_different_answers(self):
        # The sharpest cross-tenant check: one identical spec, two graphs
        # engineered so the answers differ; the shared process must not
        # leak one tenant's cached answer to the other.
        from tests.helpers import graph_from_edges

        graph_yes = graph_from_edges(
            [("s", "go", "m"), ("m", "go", "t"), ("m", "mark", "m")], name="yes"
        )
        graph_no = graph_from_edges(
            [("s", "go", "t"), ("x", "mark", "x")], name="no", vertices=["m"]
        )
        registry = TenantRegistry(default_tenant="yes")
        registry.add("yes", QueryService(graph_yes, seed=0))
        registry.add("no", QueryService(graph_no, seed=0))
        spec = {
            "source": "s", "target": "t", "labels": ["go"],
            "constraint": "SELECT ?x WHERE { ?x <mark> ?y . }",
        }
        assert json.loads(registry.get("yes").handle_query(spec))["answer"] is True
        assert json.loads(registry.get("no").handle_query(spec))["answer"] is False
        # Repeat in the opposite order, now against warm caches.
        assert json.loads(registry.get("no").handle_query(spec))["answer"] is False
        assert json.loads(registry.get("yes").handle_query(spec))["answer"] is True
