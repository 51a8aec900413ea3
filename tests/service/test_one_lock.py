"""A cached answer takes no cache lock and one stats lock.

Counted, not timed: every lock the hit path could take is swapped for a
proxy that counts its acquisitions.  A warmed hit — a ``/query`` body or
a ``/batch`` member — takes one stats lock (``record_query``) and no
cache lock: its constraint-cache hit, its result-cache probe and its
counted :meth:`ResultCache.get` are each a dict read and a lock-free
count, and so is a warm ``V(S, G)`` lookup.  Under eight threads the
lock-free counts of the constraint, result and candidate caches still
add up to one per call.  And ``/batch`` refuses an over-long batch
before it reads any member.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.datasets.toy import figure3_graph
from repro.exceptions import BadRequestError
from repro.service import app as app_module
from repro.service.app import QueryService
from repro.service.cache import CandidateCache, ConstraintCache, ResultCache

S0 = "SELECT ?x WHERE { ?x <friendOf> v3 . v3 <likes> ?y . }"
S1 = "SELECT ?x WHERE { ?x <likes> ?y . }"
LABELS = ["likes", "follows", "friendOf"]


def spec(source: str, target: str, constraint: str = S0) -> dict:
    return {"source": source, "target": target, "labels": LABELS,
            "constraint": constraint}


#: Four queries no planner rule answers, so each is stored once answered.
POOL = [spec("v0", "v4"), spec("v1", "v4"), spec("v0", "v4", S1), spec("v0", "v1", S1)]


class CountingLock:
    """A lock that counts how often it is taken."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.taken = 0

    def acquire(self, *args, **kwargs) -> bool:
        self.taken += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


@pytest.fixture()
def service():
    service = QueryService(figure3_graph(), seed=0)
    yield service
    service.close()


@pytest.fixture()
def locks(service) -> dict[str, CountingLock]:
    """Counting proxies on every lock a query could take, once warmed."""
    service.handle_batch({"queries": POOL})
    epoch = service.epoch
    owners = {
        "result cache": epoch.results,
        "candidate cache": epoch.candidates,
        "constraint cache": service.constraints,
        "stats": service.stats,
        "flight recorder": service.flight,
    }
    counting = {}
    for name, owner in owners.items():
        counting[name] = owner._lock = CountingLock(owner._lock)
    return counting


def taken(locks: dict[str, CountingLock]) -> dict[str, int]:
    return {name: lock.taken for name, lock in locks.items() if lock.taken}


class TestAHitTakesNoCacheLock:
    def test_a_single_query(self, service, locks):
        for body in POOL:
            assert json.loads(service.handle_query(body))["cached"]
        assert taken(locks) == {"stats": len(POOL)}

    def test_a_batch_member(self, service, locks):
        replies = json.loads(service.handle_batch({"queries": POOL + POOL}))["results"]
        assert all(reply["cached"] for reply in replies)
        # One per member; the batch itself adds two stats locks: its
        # count and its own latency.
        assert taken(locks) == {"stats": 2 * len(POOL) + 2}

    def test_a_warm_candidate_lookup(self, service, locks):
        body = {**POOL[0], "algorithm": "uis*", "use_cache": False}
        service.handle_query(body)  # V(S, G) of S0 is held from here on
        before = service.epoch.candidates.stats()
        held = locks["candidate cache"].taken
        assert json.loads(service.handle_query(body))["answer"] is True
        assert locks["candidate cache"].taken == held
        after = service.epoch.candidates.stats()
        assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)

    def test_the_constraint_cache_still_counts_its_hits(self, service, locks):
        before = service.constraints.stats()
        service.handle_query(POOL[0])
        service.handle_batch({"queries": POOL})
        after = service.constraints.stats()
        assert (after.hits - before.hits, after.misses - before.misses) == (
            1 + len(POOL), 0,
        )


def calls_of_get(monkeypatch, cls) -> list:
    """One entry per call of ``cls.get`` from here on."""
    calls: list = []
    get = cls.get

    def counted(cache, *args):
        calls.append(None)
        return get(cache, *args)

    monkeypatch.setattr(cls, "get", counted)
    return calls


def test_eight_threads_count_every_constraint_lookup(service, monkeypatch):
    """Hits are counted without the lock: each call of the constraint,
    result or candidate cache still counts one hit or one miss, however
    the threads interleave — new texts included, whose parse or
    ``V(S, G)`` a second thread may wait for."""
    lookups = {
        "result_cache": calls_of_get(monkeypatch, ResultCache),
        "candidate_cache": calls_of_get(monkeypatch, CandidateCache),
    }
    threads_count, rounds = 8, 40
    texts = [S0, S1] + [
        f"SELECT ?x WHERE {{ ?x <likes> ?y{n} . }}" for n in range(6)
    ]
    barrier = threading.Barrier(threads_count)
    failures: list[BaseException] = []

    def ask(slot: int) -> None:
        try:
            barrier.wait(timeout=10)
            for round_ in range(rounds):
                text = texts[(slot + round_) % len(texts)]
                if round_ % 4 == 3:
                    service.handle_batch({"queries": [spec("v0", "v4", text)] * 2})
                else:
                    service.handle_query(spec("v0", "v4", text))
        except BaseException as error:  # noqa: BLE001 — reported below
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(slot,)) for slot in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    calls = threads_count * (rounds // 4 * 3 + rounds // 4 * 2)
    document = service.stats_snapshot()["constraint_cache"]
    assert document["hits"] + document["misses"] == calls
    assert document["misses"] == len(texts)
    snapshot = service.stats_snapshot()
    assert snapshot["service"]["queries"]["total"] == calls
    for name, calls_made in lookups.items():
        assert calls_made, name
        counted = snapshot[name]["hits"] + snapshot[name]["misses"]
        assert counted == len(calls_made), name


class TestTheBatchLimitComesFirst:
    def test_an_over_long_batch_of_bad_members_is_refused_unread(
        self, service, monkeypatch
    ):
        read: list = []
        original = app_module.validate_spec

        def counted(payload, *, where):
            read.append(where)
            return original(payload, where=where)

        monkeypatch.setattr(app_module, "validate_spec", counted)
        limit = service.options.max_batch
        malformed = [{"source": 1}] * (limit + 1)
        with pytest.raises(BadRequestError) as refused:
            service.handle_batch({"queries": malformed})
        assert refused.value.status == 400
        assert str(refused.value) == (
            f"batch of {limit + 1} queries exceeds the limit of {limit}"
        )
        assert read == []
        # At the limit the members are read, and the first bad one named.
        with pytest.raises(BadRequestError, match=r"^queries\[0\]: missing field"):
            service.handle_batch({"queries": malformed[:limit]})
        assert read == ["queries[0]"]


def test_a_constraint_cache_hit_does_not_promote():
    """Without a lock a hit cannot reorder the entries, so the bound
    evicts in insertion order: the text parsed first goes first, however
    often it was read since."""
    cache = ConstraintCache(max_size=4)
    # Canonical spellings: each text is one entry.
    texts = [f"SELECT DISTINCT ?x WHERE {{ ?x <p{n}> ?y . }}" for n in range(5)]
    for text in texts[:4]:
        cache.get(text)
    for _ in range(3):
        cache.get(texts[0])
    cache.get(texts[4])
    assert texts[0] not in cache
    assert all(text in cache for text in texts[1:])
