"""The cached-answer path, by counts rather than by a timer.

A repeat of an answered query should cost a lookup.  These tests count
what the path between the JSON door and the result cache *does* — how
many patterns it compiles, constraints it renders, pool tasks it
submits, cache lookups it makes — and pin the behaviour around it that
must not move while those counts go to zero: order, stats, reply
fields, the span tree, and every 400.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.label_constraint import LabelConstraint
from repro.core.base import LSCRAlgorithm
from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError, ConstraintError, SparqlError
from repro.service.app import QueryService
from repro.service.cache import ResultCache
from repro.service.stats import ServiceStats
from repro.sparql.ast import SelectQuery
from repro.sparql.evaluator import CompiledPattern
from tests.helpers import graph_from_edges

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S1 = "SELECT ?x WHERE { ?x <likes> ?y . }"
MIXED_ROLES = "SELECT ?x WHERE { ?x <likes> ?y . ?a ?y ?b . }"
LABELS = ["likes", "follows", "friendOf"]


def spec(source: str, target: str, constraint: str = S0, **extra) -> dict:
    return {"source": source, "target": target, "labels": LABELS,
            "constraint": constraint, **extra}


#: Eight distinct queries no planner rule answers.
POOL = [
    spec("v0", "v4"), spec("v0", "v3"), spec("v1", "v4"), spec("v2", "v4"),
    spec("v0", "v4", S1), spec("v0", "v1", S1), spec("v3", "v1", S1),
    spec("v4", "v3", S1),
]


@pytest.fixture()
def service():
    service = QueryService(figure3_graph(), seed=0)
    yield service
    service.close()


@pytest.fixture()
def counts(monkeypatch) -> Counter:
    """How often each step of the slow path runs, process-wide."""
    tally: Counter = Counter()

    def count(owner: type, name: str) -> None:
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            tally[f"{owner.__name__}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(CompiledPattern, "__init__")
    count(SelectQuery, "__str__")
    count(ThreadPoolExecutor, "submit")
    count(ResultCache, "get")
    count(json.JSONEncoder, "encode")
    count(LabelConstraint, "_mask_in")
    count(LSCRAlgorithm, "answer")
    return tally


def section(service: QueryService) -> dict:
    """The /stats sections a request may move."""
    document = service.stats_snapshot()
    cache = document["result_cache"]
    return {
        "hits": cache["hits"],
        "misses": cache["misses"],
        "queries": document["service"]["queries"],
        "batches": document["service"]["batches"],
    }


class TestAHitCostsALookup:
    @pytest.fixture()
    def warm(self, service, counts):
        replies = json.loads(service.handle_batch({"queries": POOL}))["results"]
        assert not any(reply["cached"] or reply["trivial"] for reply in replies)
        counts.clear()
        return service

    def hit_everything(self, service) -> list[dict]:
        replies = [json.loads(service.handle_query(POOL[0]))]
        replies += json.loads(service.handle_batch({"queries": POOL}))["results"]
        assert all(reply["cached"] for reply in replies)
        return replies

    @pytest.mark.parametrize(
        "step",
        [
            "CompiledPattern.__init__",
            "SelectQuery.__str__",
            "ThreadPoolExecutor.submit",
            "JSONEncoder.encode",
        ],
    )
    def test_a_hit_does_none_of_the_slow_steps(self, warm, counts, step):
        self.hit_everything(warm)
        assert counts[step] == 0

    def test_one_cache_lookup_per_member(self, warm, counts):
        self.hit_everything(warm)
        assert counts["ResultCache.get"] == 1 + len(POOL)

    def test_a_miss_is_looked_up_once_too(self, service, counts):
        # Settled in the request thread (a miss), evaluated on the pool:
        # the second half must not consult the cache again.
        service.handle_batch({"queries": POOL})
        assert counts["ResultCache.get"] == len(POOL)
        assert service.results.stats().misses == len(POOL)

    def test_a_hit_lasts_until_the_epoch_changes(self, warm, counts):
        # A cached answer belongs to its epoch: it keeps hitting however
        # often it is asked, and an update batch drops it with the epoch.
        for _ in range(3):
            self.hit_everything(warm)
        warm.apply_updates([("v0", "likes", "v9")])
        replies = json.loads(warm.handle_batch({"queries": POOL}))["results"]
        assert not any(reply["cached"] for reply in replies)
        self.hit_everything(warm)
        assert warm.results.stats().misses == 2 * len(POOL)


class TestTheLabelMaskIsComputedOnce:
    def test_one_mask_per_evaluated_query(self, service, counts):
        # The planner's trivial test, the approximate router and the
        # evaluator all read the mask; the first computes it.
        service.handle_batch({"queries": POOL})
        assert section(service)["queries"]["executed"] == len(POOL)
        assert 0 < counts["LSCRAlgorithm.answer"] <= len(POOL)
        assert counts["LabelConstraint._mask_in"] == len(POOL)

    def test_a_label_interned_by_an_update_is_in_the_next_mask(self, service):
        member = spec("v0", "v9", S1, labels=["likes", "brandNew"])
        assert json.loads(service.handle_query(member))["answer"] is False
        service.apply_updates([("v0", "brandNew", "v9")])
        assert json.loads(service.handle_query(member))["answer"] is True


class TestMixedBatch:
    """Three hits, two misses, one planner answer, one ``use_cache:
    false`` — interleaved, so a split by kind that forgot the order
    would show."""

    HITS = [POOL[0], POOL[4], POOL[7]]
    MIXED = [
        HITS[0],                            # hit
        POOL[1],                            # miss
        spec("v0", "ghost"),                # planner: no such vertex
        HITS[1],                            # hit
        {**HITS[0], "use_cache": False},    # evaluated, cache untouched
        POOL[6],                            # miss
        HITS[2],                            # hit
    ]
    KINDS = ["hit", "miss", "trivial", "hit", "uncached", "miss", "hit"]

    @pytest.fixture()
    def warm(self, service):
        service.handle_batch({"queries": self.HITS})
        return service

    def test_results_in_input_order_with_the_same_fields(self, warm):
        reference = QueryService(figure3_graph(), seed=0, cache_size=0)
        try:
            expected = [
                json.loads(reference.handle_query(member))["answer"]
                for member in self.MIXED
            ]
        finally:
            reference.close()
        assert expected == [True, True, False, True, True, False, False]
        replies = json.loads(warm.handle_batch({"queries": self.MIXED}))["results"]
        assert [reply["answer"] for reply in replies] == expected
        assert [reply["cached"] for reply in replies] == [
            kind == "hit" for kind in self.KINDS
        ]
        assert [reply["trivial"] for reply in replies] == [
            kind == "trivial" for kind in self.KINDS
        ]
        assert [reply["source"] for reply in replies] == [
            {"hit": "result-cache", "trivial": "planner"}.get(kind, "evaluated")
            for kind in self.KINDS
        ]

    def test_stats_move_as_they_always_did(self, warm, counts):
        before = section(warm)
        stored = len(warm.results)
        warm.handle_batch({"queries": self.MIXED})
        after = section(warm)
        assert after["hits"] - before["hits"] == 3
        assert after["misses"] - before["misses"] == 2
        assert counts["ResultCache.get"] == 5
        moved = {
            key: after["queries"][key] - before["queries"][key]
            for key in ("total", "executed", "cached", "trivial")
        }
        assert moved == {"total": 7, "executed": 3, "cached": 3, "trivial": 1}
        assert after["batches"]["requests"] - before["batches"]["requests"] == 1
        assert after["batches"]["queries"] - before["batches"]["queries"] == 7
        # The two misses were stored; the uncached member was not.
        assert len(warm.results) == stored + 2

    def test_one_query_span_per_member(self, warm):
        body = warm.handle_batch({"queries": self.MIXED}, trace=True)
        trace = json.loads(body)["trace"]
        assert trace["name"] == "batch"
        names = [child["name"] for child in trace["children"]]
        assert names[0] == "plan-batch"
        assert len(trace["children"][0]["children"]) == len(self.MIXED)
        members = sorted(
            (child for child in trace["children"] if child["name"] == "query"),
            key=lambda child: child["attrs"]["index"],
        )
        assert [member["attrs"]["index"] for member in members] == list(range(7))
        children = {
            "hit": ["result-cache"],
            "miss": ["result-cache", "execute"],
            "trivial": [],
            "uncached": ["execute"],
        }
        for member, kind in zip(members, self.KINDS):
            assert [c["name"] for c in member["children"]] == children[kind], kind
            if "result-cache" in children[kind]:
                assert member["children"][0]["attrs"] == {"hit": kind == "hit"}
            if kind in ("miss", "uncached"):
                # Opened in the request thread, closed on the pool: the
                # span covers the evaluation it is the parent of.
                execute = member["children"][-1]
                assert (
                    member["started"] + member["seconds"]
                    >= execute["started"] + execute["seconds"]
                )
        # Only the members that needed an evaluator went to the pool.
        executor = [c for c in trace["children"] if c["name"] == "executor"]
        assert [span["attrs"]["items"] for span in executor] == [3]
        assert names.count("query") == 7

    def test_a_repeat_inside_a_cold_batch_finds_the_answer_stored(self, service, counts):
        # Member 2 asks what member 0 asks and nothing is cached yet: it
        # is looked up once member 0's answer is in — one evaluation, one
        # lookup each, and the reply a client always got for the repeat.
        replies = json.loads(service.handle_batch(
            {"queries": [POOL[0], POOL[1], POOL[0], {**POOL[0], "use_cache": False}]}
        ))["results"]
        assert [reply["cached"] for reply in replies] == [False, False, True, False]
        assert [reply["source"] for reply in replies] == [
            "evaluated", "evaluated", "result-cache", "evaluated",
        ]
        assert len({reply["answer"] for reply in replies[::2]}) == 1
        assert counts["ResultCache.get"] == 3
        stats = service.results.stats()
        assert (stats.hits, stats.misses) == (1, 2)
        assert service.stats.snapshot()["queries"]["executed"] == 3

    def test_an_all_hit_batch_never_reaches_the_executor(self, warm):
        body = warm.handle_batch({"queries": self.HITS}, trace=True)
        trace = json.loads(body)["trace"]
        assert [child["name"] for child in trace["children"]] == [
            "plan-batch", "query", "query", "query",
        ]

    def test_one_bad_member_answers_and_caches_nothing(self, warm, counts):
        before = section(warm)
        stored = len(warm.results)
        payload = {"queries": [*self.HITS, spec("v0", "v4", "SELECT garbage ?!")]}
        with pytest.raises(BadRequestError, match="invalid query in batch"):
            warm.handle_batch(payload)
        assert section(warm) == before
        assert len(warm.results) == stored
        assert counts["ResultCache.get"] == 0
        assert "SELECT garbage ?!" not in warm.constraints


class TestOneStatsLockPerQuery:
    """A query's latency rides its ``record_query`` call, so answering
    one takes the stats lock once; only a batch's own latency and an
    update's are folded in apart."""

    @pytest.fixture()
    def latencies(self, monkeypatch) -> list[str]:
        endpoints: list[str] = []
        original = ServiceStats.record_latency

        def counted(stats, endpoint, seconds):
            endpoints.append(endpoint)
            return original(stats, endpoint, seconds)

        monkeypatch.setattr(ServiceStats, "record_latency", counted)
        return endpoints

    def test_record_latency_once_per_batch_and_never_per_query(self, service, latencies):
        service.handle_query(POOL[0])
        service.handle_query(POOL[0])
        assert latencies == []
        service.handle_batch({"queries": POOL})
        service.handle_batch({"queries": POOL[:2]})
        assert latencies == ["batch", "batch"]

    def test_the_query_histogram_counts_every_answer(self, service):
        service.handle_query(POOL[0])                       # miss
        service.handle_query(POOL[0])                       # hit
        service.handle_query(spec("v0", "ghost"))           # trivial
        service.handle_query({**POOL[1], "use_cache": False})
        service.handle_batch({"queries": TestMixedBatch.MIXED})
        document = service.stats_snapshot()["service"]
        answered = document["queries"]["total"]
        assert answered == 4 + len(TestMixedBatch.MIXED)
        assert document["latency"]["query"]["count"] == answered
        assert document["latency"]["batch"]["count"] == 1


class TestMixedRoleVariable:
    def test_a_400_on_every_request_that_sends_it(self, service):
        bad = spec("v0", "v4", MIXED_ROLES)
        for _ in range(3):
            with pytest.raises(BadRequestError, match="both as a vertex and as a label"):
                service.handle_query(bad)
        with pytest.raises(BadRequestError, match="both as a vertex and as a label"):
            service.handle_batch({"queries": [POOL[0], bad]})
        assert service.stats.snapshot()["queries"]["total"] == 0
        assert len(service.results) == 0

    def test_rule_order_is_unchanged(self, service):
        # An endpoint the graph does not have is decided first, as ever.
        reply = json.loads(service.handle_query(spec("v0", "ghost", MIXED_ROLES)))
        assert reply["trivial"] and reply["answer"] is False


def test_eight_threads_planning_one_new_constraint(service):
    """The per-constraint values are fixed before the constraint cache
    publishes the object, so there is nothing to race on: one parse, one
    object, eight equal plans."""
    text = "SELECT ?x WHERE { ?x <follows> ?y . ?y <hates> ?z . }"
    threads_count = 8
    barrier = threading.Barrier(threads_count)
    plans: list = [None] * threads_count
    failures: list[BaseException] = []

    def plan(slot: int) -> None:
        try:
            barrier.wait(timeout=10)
            plans[slot] = service.planner.plan("v0", "v4", LABELS, text)
        except BaseException as error:  # noqa: BLE001 — reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=plan, args=(slot,)) for slot in range(threads_count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert len({plan.key for plan in plans}) == 1
    assert len({id(plan.query.constraint) for plan in plans}) == 1
    assert service.constraints.stats().misses == 1
    constraint = plans[0].query.constraint
    assert plans[0].key[3] == constraint.to_sparql()
    assert not constraint.empty_on(service.graph)


# ---------------------------------------------------------------------------
# hit/miss equivalence, as a property
# ---------------------------------------------------------------------------

#: Vertex names a drawn graph may hold: ``1`` and ``'1'`` are two vertices.
NAMES = [1, 2, "1", "2", "a"]
#: Names no drawn graph starts with (an update may add them).
ABSENT = [3, "3"]
#: One constraint per planner outcome: satisfiable, satisfiable through a
#: constant, unsatisfiable by a missing constant or label, and the three
#: 400s (mixed roles — decided after the endpoints — blank, unparsable).
CONSTRAINTS = [
    "SELECT ?x WHERE { ?x <p> ?y . }",
    "SELECT ?x WHERE { ?y <q> ?x . }",
    "SELECT ?x WHERE { ?x <p> a . }",
    "SELECT ?x WHERE { ?x <p> nowhere . }",
    "SELECT ?x WHERE { ?x <zz> ?y . }",
    "SELECT ?x WHERE { ?x <p> ?y . ?a ?y ?b . }",
    "   ",
    "SELECT garbage ?!",
]
#: Label sets, in both forms; ``zz`` is in no drawn graph, ``[]`` and
#: ``","`` are refused.
LABEL_SETS = [["p"], ["q"], ["q", "p"], "p,q", ["zz"], "p,zz", [], ","]
#: ``None`` twice so the default route is drawn most; ``ins`` is not
#: served and ``bogus`` no evaluator, both 400s.
CHOICES = [None, None, "meet", "uis*", "naive", "ins", "bogus"]

_names = st.sampled_from(NAMES)
#: Weighted toward what a search answers, so that a key repeats often
#: enough to hit: the rest are the planner's rules and the 400s.
_entry = st.tuples(
    st.sampled_from(NAMES * 3 + ABSENT),
    st.sampled_from(NAMES * 3 + ABSENT),
    st.sampled_from(LABEL_SETS[:4] * 3 + LABEL_SETS[4:]),
    st.sampled_from(CONSTRAINTS[:2] * 4 + CONSTRAINTS[2:]),
)
#: ``(entry index, mirrored, algorithm, use_cache)``: entries repeat
#: across requests with other algorithms and cache modes, and
#: ``mirrored`` asks the same thing of the int/str twin endpoints.
_request = st.tuples(
    st.integers(0, 1), st.booleans(), st.sampled_from(CHOICES),
    st.sampled_from([True, True, True, False]),
)
_op = st.one_of(
    st.tuples(st.just("query"), _request),
    st.tuples(
        st.just("batch"),
        st.tuples(st.lists(_request, min_size=1, max_size=3), st.integers(0, 2)),
    ),
    st.tuples(
        st.just("update"),
        st.tuples(
            st.sampled_from(NAMES + ABSENT), st.sampled_from(["p", "q", "zz"]),
            st.sampled_from(NAMES + ABSENT), st.sampled_from(["add", "remove"]),
        ),
    ),
)


def _mirror(name):
    """``1`` ↔ ``'1'``; a name with no twin stays itself."""
    if isinstance(name, int):
        return str(name)
    return int(name) if name.isdigit() else name


def _outcome(call):
    try:
        return True, call()
    except (BadRequestError, ConstraintError, SparqlError) as error:
        return False, (type(error).__name__, str(error))


@settings(deadline=None)
@given(
    edges=st.lists(
        st.tuples(_names, st.sampled_from(["p", "q"]), _names),
        min_size=3, max_size=10,
    ),
    entries=st.lists(_entry, min_size=2, max_size=2),
    ops=st.lists(_op, min_size=4, max_size=24),
)
def test_a_hit_answers_what_a_miss_would(edges, entries, ops):
    """Every answer, trivial flag, reason and 400 equals an uncached
    twin's; ``cached`` is true exactly for a repeated non-trivial key of
    the epoch; and every non-trivial cached-mode member is one counted
    lookup, hit or miss."""
    service = QueryService(graph_from_edges(edges), seed=0)
    twin = QueryService(graph_from_edges(edges), seed=0, cache_size=0)
    stored: set = set()
    lookups = 0

    def spec_of(request) -> dict:
        index, mirrored, algorithm, use_cache = request
        source, target, labels, constraint = entries[index]
        if mirrored:
            source, target = _mirror(source), _mirror(target)
        return {"source": source, "target": target, "labels": labels,
                "constraint": constraint, "algorithm": algorithm,
                "use_cache": use_cache}

    def key_of(spec: dict) -> tuple:
        labels = spec["labels"]
        names = labels.split(",") if isinstance(labels, str) else labels
        return (spec["source"], spec["target"], frozenset(names), spec["constraint"])

    try:
        for kind, argument in ops:
            if kind == "update":
                epoch = service.epoch.epoch_id
                service.apply_updates([argument])
                twin.apply_updates([argument])
                if service.epoch.epoch_id != epoch:
                    stored.clear()
                continue
            if kind == "query":
                specs = [spec_of(argument)]

                def ask(on, specs=specs):
                    return [on.query(**specs[0])]
            else:
                members, repeats = argument
                specs = [spec_of(request) for request in members]
                specs += specs[:repeats]

                def ask(on, specs=specs):
                    return on.query_batch(specs)

            ok, got = _outcome(lambda: ask(service))
            twin_ok, expected = _outcome(lambda: ask(twin))
            assert ok == twin_ok
            if not ok:
                assert got == expected
                continue
            assert [(r.answer, m["trivial"], m["reason"]) for r, m in got] == [
                (r.answer, m["trivial"], m["reason"]) for r, m in expected
            ]
            for spec, (_, meta) in zip(specs, got):
                key = key_of(spec)
                assert meta["cached"] == (spec["use_cache"] and key in stored)
                if spec["use_cache"] and not meta["trivial"]:
                    stored.add(key)
                    lookups += 1
            counts = service.results.stats()
            assert counts.hits + counts.misses == lookups
    finally:
        service.close()
        twin.close()
