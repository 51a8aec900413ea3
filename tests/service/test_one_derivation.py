"""One derivation: what follows the graph is derived from it, not named
after it.

The result cache used to be one service-wide cache whose keys carried
the epoch *id*, purged at every publish of whatever bore another id.  An
id is a name, not content: ``replace_graph(g2, <the serving id>)`` kept
answering from the old graph's entries — ``source: "result-cache"``,
wrong — and ``reset_epoch``, which changes nothing but the name, threw a
warm cache away.  The per-epoch ``V(S, G)`` cache had the opposite
problem: it followed the content and took its counters along, so
``/stats`` ``candidate_cache`` restarted from zero at every swap.

Now every structure of an epoch is derived from its parent's by
``GraphEpoch.derive``: the parent's own snapshot shares everything,
cached answers included; any other graph inherits no cached answer,
only the counters, and ``V(S, G)`` only as its exact delta carries it.
The first two tests fail on the commit before.
"""

from __future__ import annotations

import sys
import threading
from contextlib import contextmanager


from repro.index.local_index import build_local_index
from repro.service.app import QueryService
from repro.service.cache import CandidateCache, ResultCache
from tests.helpers import cache_counters, graph_from_edges

NAMES = ["a", "b", "c", "d"]
PATH = [("a", "go", "b"), ("b", "mark", "b"), ("b", "go", "c"), ("c", "go", "d")]
S = "SELECT ?x WHERE { ?x <mark> ?y . }"
QUERY = ("a", "c", ["go"], S)


def graph(edges=PATH):
    """Four vertices under fixed ids (a replacement keeps the ids)."""
    return graph_from_edges(edges, name="derivation", vertices=NAMES)


@contextmanager
def serving(**options):
    source = graph()
    index = build_local_index(source, k=2, rng=0)
    service = QueryService(source, index, seed=0, **options)
    try:
        yield service
    finally:
        service.close()


def test_replacing_the_graph_under_the_serving_id_drops_its_answers():
    with serving() as service:
        result, _ = service.query(*QUERY)
        assert result.answer is True
        _, meta = service.query(*QUERY)
        assert meta["source"] == "result-cache"
        # Same id, same vertices, no path: b -go-> c is gone.
        service.replace_graph(graph([e for e in PATH if e[2] != "c"]), 0)
        assert service.epoch.epoch_id == 0
        result, meta = service.query(*QUERY)
        assert result.answer is False, meta
        assert meta["source"] != "result-cache" and meta["epoch"] == 0


def test_renumbering_keeps_the_warmed_answers():
    with serving() as service:
        warmed, _ = service.query(*QUERY)
        before = service.epoch
        service.reset_epoch(5)
        after = service.epoch
        assert after is not before and after.epoch_id == 5
        result, meta = service.query(*QUERY)
        assert meta["source"] == "result-cache" and meta["epoch"] == 5
        assert result is warmed
        # Same snapshot, same everything derived from it.
        for structure in ("graph", "index", "bounds", "planner", "candidates",
                          "results"):
            assert getattr(after, structure) is getattr(before, structure)


def test_an_update_inherits_the_counters_and_no_answer():
    with serving() as service:
        for target in ("c", "d", "d"):  # each cache misses, then hits
            service.query("a", target, ["go"], S)
        before, old = cache_counters(service), service.epoch
        assert before["result_cache", "hits"] >= 1
        assert before["candidate_cache", "hits"] >= 1
        held = len(old.results)
        summary = service.apply_updates([("d", "go", "a"), ("c", "mark", "c")])
        after, new = cache_counters(service), service.epoch
        assert new.results is not old.results and len(new.results) == 0
        # V(S, G) is carried by its delta, not dropped: c joins it.
        assert new.candidates is not old.candidates
        assert [
            (constraint, set(candidates))
            for constraint, candidates in new.candidates.entries()
        ] == [(service.constraints.get(S), {new.graph.vid("b"), new.graph.vid("c")})]
        assert (summary["candidates_carried"], summary["scck_rechecks"]) == (1, 1)
        # What the swap left behind counts as evicted, as the purge did.
        assert after["result_cache", "evictions"] == (
            before["result_cache", "evictions"] + held
        )
        assert after["candidate_cache", "evictions"] == (
            before["candidate_cache", "evictions"]
        )
        assert all(after[key] >= before[key] for key in before), (before, after)
        assert after["result_cache", "hits"] == before["result_cache", "hits"]
        carry = service.stats_snapshot()["candidate_cache"]
        assert (carry["candidates_carried"], carry["scck_rechecks"]) == (1, 1)


def test_an_in_flight_query_writes_to_the_epoch_it_read():
    """A request that read epoch N at entry and finishes after N+1 was
    published stores its answer in N's cache — where no new request
    looks — and never in N+1's."""
    with serving() as service:
        old = service.epoch
        plan = old.planner.plan(*QUERY)
        service.apply_updates([("b", "go", "c", "remove")])
        new = service.epoch
        stale, meta = service._finish(plan, old, use_cache=True, batch=False)
        assert stale.answer is True and meta["epoch"] == old.epoch_id
        assert plan.key in old.results and plan.key not in new.results
        result, meta = service.query(*QUERY)
        assert result.answer is False and meta["source"] != "result-cache"


class TestHeir:
    """``heir()``: the next graph version's cache — no entries, the same
    counters."""

    def test_result_cache(self):
        parent = ResultCache(max_size=2)
        parent.put("a", 1)
        parent.put("b", 2)
        parent.put("c", 3)  # evicts "a"
        assert parent.get("a") is None and parent.get("b") == 2
        heir = parent.heir()
        assert heir.max_size == 2
        assert len(heir) == 0 and heir.get("b") is None
        stats = heir.stats()
        # 1 LRU eviction + the 2 entries the parent keeps to itself.
        assert (stats.hits, stats.misses, stats.evictions) == (1, 2, 3)
        assert stats.size == 0 and parent.stats().size == 2
        # The parent still answers whoever holds it, on the same ledger…
        assert parent.get("c") == 3 and heir.stats().hits == 2

    def test_candidate_cache_leaves_in_flight_computations_behind(self, g0, s0):
        parent = CandidateCache(max_size=4)
        expected = parent.get(s0, g0)
        parent._pending["held"] = (threading.Event(), [None])
        heir = parent.heir()
        key = s0.to_sparql()
        assert heir._pending == {} and key not in heir and key in parent
        assert heir.get(s0, g0) == expected
        stats = heir.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 2, 1)

    def test_disabled_caches_have_disabled_heirs(self):
        assert ResultCache(max_size=0).heir().max_size == 0
        assert CandidateCache(max_size=0).heir().max_size == 0

    def test_a_cache_and_its_heir_lose_no_count_between_them(self):
        """Old-epoch stragglers and new-epoch requests count on one
        ledger at once; one lock serves both, so no update is lost."""
        parent = ResultCache(max_size=8)
        parent.put("hit", 1)
        heir = parent.heir()
        heir.put("hit", 1)
        rounds, threads = 2000, 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(
                    target=lambda cache=cache: [
                        (cache.get("hit"), cache.get("miss"))
                        for _ in range(rounds)
                    ]
                )
                for cache in [parent, heir] * (threads // 2)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
        finally:
            sys.setswitchinterval(interval)
        stats = heir.stats()
        assert (stats.hits, stats.misses) == (rounds * threads, rounds * threads)
