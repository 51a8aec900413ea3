"""Algorithm answers on frozen snapshots match the dict-backed graph.

The CSR rewrite changed the expansion order inside every search hot
loop (label-ascending slices instead of dict insertion order), which
must never change a Boolean answer.  Each algorithm runs the same
randomized workload on both representations — with the naive
two-procedure oracle on the dict graph as ground truth — and with the
service's ``V(S, G)`` candidate cache both absent and present.

Also covers the two hot-loop satellites: `_LazyPriorityQueue` heap
compaction and the CandidateCache's reuse semantics.
"""

from __future__ import annotations

import random

import pytest

from repro.constraints.label_constraint import LabelConstraint
from repro.constraints.substructure import SubstructureConstraint
from repro.core.ins import _COMPACT_MIN_HEAP, _LazyPriorityQueue, INS
from repro.core.meet import MeetSearch
from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.core.uis import UIS
from repro.core.uis_star import UISStar
from repro.datasets.synthetic import random_labeled_graph
from repro.index.local_index import build_local_index
from repro.service.cache import CandidateCache

SEEDS = list(range(20))


def make_workload(seed, num_vertices=10, num_labels=3, density=1.9, count=10):
    graph = random_labeled_graph(
        num_vertices, density, num_labels, rng=seed, name=f"fa-{seed}"
    )
    rng = random.Random(seed * 6151 + 7)
    vertices = [f"n{i}" for i in range(num_vertices)]
    labels = [f"l{i}" for i in range(num_labels)]
    anchor = rng.choice(vertices)
    texts = [
        f"SELECT ?x WHERE {{ ?x <l0> ?y . }}",
        f"SELECT ?x WHERE {{ ?x <l0> {anchor} . }}",
        f"SELECT ?x WHERE {{ ?x <l1> ?y . ?y <l0> ?z . }}",
    ]
    queries = []
    for _ in range(count):
        queries.append(
            LSCRQuery(
                source=rng.choice(vertices),
                target=rng.choice(vertices),
                labels=LabelConstraint(rng.sample(labels, rng.randint(1, num_labels))),
                constraint=SubstructureConstraint.from_sparql(rng.choice(texts)),
            )
        )
    return graph, queries


class TestFrozenAlgorithmAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_algorithms_agree_on_frozen(self, seed):
        graph, queries = make_workload(seed)
        frozen = graph.freeze()
        index = build_local_index(graph, k=3, rng=seed)
        oracle = NaiveTwoProcedure(graph)
        algorithms = [
            UIS(frozen),
            UISStar(frozen),
            UISStar(frozen, candidate_cache=CandidateCache()),
            # The index was built on the dict graph; the snapshot shares
            # its interning, so INS must accept it.
            INS(frozen, index),
            INS(frozen, index, candidate_cache=CandidateCache()),
            MeetSearch(frozen),
            MeetSearch(frozen, candidate_cache=CandidateCache()),
            NaiveTwoProcedure(frozen),
        ]
        for query in queries:
            expected = oracle.decide(query)
            for algorithm in algorithms:
                got = algorithm.decide(query)
                assert got == expected, (
                    f"seed={seed} {algorithm.name} on frozen: {got} != "
                    f"{expected} for {query.source}->{query.target} "
                    f"L={sorted(query.labels.labels)} "
                    f"S={query.constraint.to_sparql()!r}"
                )

    @pytest.mark.parametrize("seed", SEEDS[::4])
    def test_index_built_on_frozen_serves_dict_graph(self, seed):
        graph, queries = make_workload(seed)
        frozen = graph.freeze()
        index = build_local_index(frozen, k=3, rng=seed)
        oracle = NaiveTwoProcedure(graph)
        algorithm = INS(graph, index)
        for query in queries:
            assert algorithm.decide(query) == oracle.decide(query)


class TestCandidateCache:
    def test_candidates_computed_once_per_constraint(self):
        graph, queries = make_workload(3)
        cache = CandidateCache()
        constraint = queries[0].constraint
        first = cache.get(constraint, graph)
        second = cache.get(constraint, graph)
        assert first is second
        assert first == tuple(constraint.satisfying_vertices(graph))
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert constraint.to_sparql() in cache

    def test_an_entry_carries_its_membership_view(self):
        graph, queries = make_workload(3)
        cache = CandidateCache()
        constraint = queries[0].constraint
        first = cache.get(constraint, graph)
        assert first.members == frozenset(first)
        # Built with the entry, not per lookup.
        assert cache.get(constraint, graph).members is first.members

    @pytest.mark.parametrize("cached", [False, True])
    def test_trivial_path_is_one_probe_for_uis_star_and_ins(self, cached):
        # s == t and s satisfies S: both evaluators answer from one probe
        # (of the cache's membership view, or of the engine's list).
        graph, _ = make_workload(3)
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <l0> ?y . }"
        )
        inside = graph.name_of(constraint.satisfying_vertices(graph)[-1])
        query = LSCRQuery.create(inside, inside, ["l1"], constraint)
        index = build_local_index(graph, k=3, rng=0)
        for make in (UISStar, lambda g, **kw: INS(g, index, **kw)):
            cache = CandidateCache() if cached else None
            result = make(graph, candidate_cache=cache).answer(query)
            assert result.answer is True and result.passed_vertices <= 1

    def test_equivalent_spellings_share_an_entry(self):
        graph, _ = make_workload(4)
        cache = CandidateCache()
        a = SubstructureConstraint.from_sparql("SELECT ?x WHERE { ?x <l0> ?y . }")
        b = SubstructureConstraint.from_sparql(
            "SELECT  ?x  WHERE  {  ?x  <l0>  ?y  .  }"
        )
        assert cache.get(a, graph) is cache.get(b, graph)
        assert len(cache) == 1

    def test_size_zero_disables_storage(self):
        # Mirrors ResultCache: cache_size=0 must yield a genuinely
        # uncached service, candidate memoisation included.
        graph, _ = make_workload(6)
        cache = CandidateCache(max_size=0)
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <l0> ?y . }"
        )
        expected = tuple(constraint.satisfying_vertices(graph))
        assert cache.get(constraint, graph) == expected
        assert cache.get(constraint, graph) == expected
        assert len(cache) == 0
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 2

    def test_concurrent_misses_compute_once(self):
        import threading

        graph, _ = make_workload(7)
        cache = CandidateCache()
        constraint = SubstructureConstraint.from_sparql(
            "SELECT ?x WHERE { ?x <l0> ?y . }"
        )
        results = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            results.append(cache.get(constraint, graph))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        expected = tuple(constraint.satisfying_vertices(graph))
        assert all(result == expected for result in results)
        # Every requester saw the same published tuple object.
        assert all(result is results[0] for result in results)
        assert len(cache) == 1

    def test_lru_eviction(self):
        graph, _ = make_workload(5)
        cache = CandidateCache(max_size=2)
        texts = [
            "SELECT ?x WHERE { ?x <l0> ?y . }",
            "SELECT ?x WHERE { ?x <l1> ?y . }",
            "SELECT ?x WHERE { ?x <l2> ?y . }",
        ]
        for text in texts:
            cache.get(SubstructureConstraint.from_sparql(text), graph)
        assert len(cache) == 2
        assert cache.stats().evictions == 1


class TestLazyQueueCompaction:
    def test_repushes_do_not_accrete_garbage(self):
        queue = _LazyPriorityQueue()
        # Re-push a small set of vertices far more times than the
        # compaction threshold: without compaction the heap would hold
        # every stale entry (~40x the live count).
        for round_number in range(200):
            for vertex in range(20):
                queue.push(vertex, (round_number, vertex))
        assert len(queue._live) == 20
        assert len(queue._heap) <= max(_COMPACT_MIN_HEAP, 2 * len(queue._live)) + 1
        popped = []
        while queue:
            popped.append(queue.pop())
        assert sorted(popped) == list(range(20))

    def test_small_heaps_never_compact(self):
        queue = _LazyPriorityQueue()
        for round_number in range(10):
            for vertex in range(3):
                queue.push(vertex, (round_number,))
        # 30 entries, 3 live — under the floor, stale entries remain
        # until popped (compaction overhead would exceed the drain).
        assert len(queue._heap) == 30
        assert queue.pop() in (0, 1, 2)

    def test_ordering_respected_after_compaction(self):
        queue = _LazyPriorityQueue()
        for vertex in range(100):
            queue.push(vertex, (vertex,))
        for _ in range(5):
            for vertex in range(100):
                queue.push(vertex, (100 - vertex,))  # invert priorities
        order = []
        while queue:
            order.append(queue.pop())
        assert order == list(reversed(range(100)))
