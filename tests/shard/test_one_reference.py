"""One serving reference: four wrong answers that reading found.

Each test is a repro from the issue that made ``self._epoch`` the only
reference a sharded answer is computed from; each answered wrongly —
``tier: "exact"`` — before it, because a second "current version"
(the coordinator's own ``V(S, G)`` cache, a worker's slice epoch that
named no particular content, a ``replace_graph`` that never reached the
workers) had drifted from the epoch the request read.  The agreement
suites missed all four for one reason: they draw a fresh constraint per
query, so nothing repeats a constraint across a batch that changes its
``V(S, G)``.  Here the constraint is fixed and the graph is a chain.

The rule the assertions encode is the service's contract: the sharded
answer equals the exact single-process one (a forced ``uis*`` on the
same service), or the query is refused with a structured 503 — never
wrong.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.naive import NaiveTwoProcedure
from repro.core.query import LSCRQuery
from repro.exceptions import ShardUnavailableError
from repro.graph.labeled_graph import KnowledgeGraph
from repro.resilience.retry import RetryPolicy
from tests.helpers import sharded_fleet

S = "SELECT ?x WHERE { ?x <likes> p . }"
LENGTH = 12

def chain(likes, *, parallel=False) -> KnowledgeGraph:
    """``v0 -next-> … -> v11`` (plus a parallel ``other`` chain), with
    ``v{i} -likes-> p`` for each ``i`` in ``likes``."""
    graph = KnowledgeGraph("chain")
    for i in range(LENGTH - 1):
        graph.add_edge(f"v{i}", "next", f"v{i + 1}")
        if parallel:
            graph.add_edge(f"v{i}", "other", f"v{i + 1}")
    for i in likes:
        graph.add_edge(f"v{i}", "likes", "p")
    return graph


def fleet(graph, **options):
    return sharded_fleet(graph, shards=2, landmark_count=3, **options)


def ask(service, source, target, **keywords):
    return service.query(
        source, target, ["next"], S, use_cache=False, **keywords
    )


def assert_exact(service, source, target, *, epoch):
    """The default (sharded) route agrees with the forced exact one."""
    expected, _ = ask(service, source, target, algorithm="uis*")
    result, meta = ask(service, source, target)
    assert result.algorithm == "sharded" and meta["tier"] == "exact"
    assert meta["epoch"] == epoch
    assert result.answer is expected.answer, (source, target, meta)
    return result.answer


def span_through(service, lo, hi):
    """``(source, target, shard)``: two co-located chain vertices whose
    ``next`` path runs ``… v{lo} -> v{hi} …`` inside one shard's slice."""
    plan, graph = service.shard_plan, service.graph

    def owner(i):
        return plan.shard_of[graph.vid(f"v{i}")]

    shard = owner(lo)
    assert owner(hi) == shard, "the removed edge must not cross shards"
    while lo > 0 and owner(lo - 1) == shard:
        lo -= 1
    while hi < LENGTH - 1 and owner(hi + 1) == shard:
        hi += 1
    return f"v{lo}", f"v{hi}", shard


def elsewhere(service, shard):
    """A chain vertex owned by a shard other than ``shard``."""
    plan, graph = service.shard_plan, service.graph
    return next(
        f"v{i}"
        for i in range(LENGTH)
        if plan.shard_of[graph.vid(f"v{i}")] != shard
    )


class TestCandidatesFollowTheEpoch:
    """(A) ``V(S, G)`` is the answering epoch's, not epoch 0's."""

    def test_retracting_the_only_candidate(self):
        with fleet(chain([3])) as service:
            assert assert_exact(service, "v0", "v9", epoch=0) is True
            service.apply_updates([("v3", "likes", "p", "remove")])
            assert assert_exact(service, "v0", "v9", epoch=1) is False

    def test_inserting_a_candidate(self):
        with fleet(chain([3]), local_fast_path=False) as service:
            assert assert_exact(service, "v4", "v9", epoch=0) is False
            service.apply_updates([("v5", "likes", "p")])
            assert assert_exact(service, "v4", "v9", epoch=1) is True


class TestEveryExpandNamesItsSliceEpoch:
    """A reply that does not say which slice it searched cannot be
    checked for skew: it is a shard failure, never part of an answer."""

    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("epoch", ["missing", None, "1"])
    def test_a_reply_without_an_integer_epoch_is_a_failure(
        self, epoch, degraded, monkeypatch
    ):
        with fleet(
            chain([3]),
            local_fast_path=False,
            degraded_answers=degraded,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=1),
        ) as service:
            for stub in service.workers:
                handle = stub.served.handle_expand

                def unnamed(payload, handle=handle):
                    document = handle(payload)
                    if epoch == "missing":
                        del document["epoch"]
                    else:
                        document["epoch"] = epoch
                    return document

                monkeypatch.setattr(stub.served, "handle_expand", unnamed)
            if degraded:
                result, meta = ask(service, "v0", "v9")
                assert result.degraded is not None and meta["degraded"]
            else:
                with pytest.raises(ShardUnavailableError) as refusal:
                    ask(service, "v0", "v9")
                assert refusal.value.status == 503
            resilience = service.coordinator.stats()["resilience"]
            assert resilience["worker_failures"] >= 1


class TestSliceEpochNamesContent:
    """(B), (C) a worker that lost a publish is never believed."""

    def straggle(self, service):
        """Remove ``v6 -next-> v7`` while its owner loses the publish."""
        source, target, shard = span_through(service, 6, 7)
        assert assert_exact(service, source, target, epoch=0) is True
        service.workers[shard].lose_publishes = 1
        summary = service.apply_updates([("v6", "next", "v7", "remove")])
        assert [entry["shard"] for entry in summary["shards_unpublished"]] == [
            shard
        ]
        return source, target, shard

    def test_stale_fast_path_is_a_miss(self):
        # (B): the probe echoes its slice epoch like expand does, so the
        # stale slice's True is not believed; the scatter that follows
        # meets the skew rule and refuses.
        graph = chain(range(LENGTH), parallel=True)
        with fleet(graph) as service:
            source, target, _shard = self.straggle(service)
            hits = service.coordinator.stats()["fast_path_hits"]
            with pytest.raises(ShardUnavailableError) as refusal:
                ask(service, source, target)
            assert refusal.value.status == 503
            assert service.coordinator.stats()["fast_path_hits"] == hits
            # The next prepare — any batch — makes the straggler whole.
            service.apply_updates([("v0", "likes", "q")])
            assert assert_exact(service, source, target, epoch=2) is False

    def test_bare_bump_does_not_launder_a_stale_slice(self):
        # (C): a batch on the *other* shard sends the straggler a
        # slice-less prepare; it is not serving the epoch that bump
        # extends, refuses, and is shipped its slice in the same swap.
        graph = chain(range(LENGTH), parallel=True)
        with fleet(graph, local_fast_path=False) as service:
            source, target, shard = self.straggle(service)
            summary = service.apply_updates(
                [(elsewhere(service, shard), "likes", "q")]
            )
            assert assert_exact(service, source, target, epoch=2) is False
            assert shard in summary["shards_updated"]
            assert "shards_unpublished" not in summary


class TestReplaceGraphReachesTheFleet:
    """(D) a replaced graph is served by slices of *that* graph."""

    def test_replacement_is_pushed_like_any_epoch(self):
        graph = chain(range(LENGTH), parallel=True)
        replacement = graph.copy()
        replacement.remove_edge("v6", "next", "v7")
        with fleet(graph, local_fast_path=False) as service:
            source, target, _shard = span_through(service, 6, 7)
            assert assert_exact(service, source, target, epoch=0) is True
            service.replace_graph(replacement, 5)
            assert assert_exact(service, source, target, epoch=5) is False
            assert service.slice_epoch == 5


class TestReadersDuringSwaps:
    """The skew re-run under real concurrency: readers hammer the
    service while a writer swaps epochs and re-places regions.  Every
    answer must be the exact one for an epoch that was current while
    the request ran — the re-run computes on the service's current
    epoch, so it may be the later one — or a structured 503."""

    QUERIES = [("v2", "v11"), ("v0", "v5"), ("v7", "v11"), ("v0", "v11")]
    READERS = 6
    SWAPS = 24

    def test_every_answer_is_exact_for_an_epoch_it_overlapped(self):
        graph = chain(range(LENGTH), parallel=True)
        mirror = graph.copy()
        #: epoch id -> the exact answer of each query at that epoch;
        #: filled in *before* the epoch can be observed.
        expected = {0: self.truth(mirror)}
        records: list[tuple] = []
        failures: list[BaseException] = []
        stop = threading.Event()

        def reader(service, use_cache):
            try:
                while not stop.is_set():
                    for position, (source, target) in enumerate(self.QUERIES):
                        low = service.epoch.epoch_id
                        try:
                            result, meta = service.query(
                                source, target, ["next"], S, use_cache=use_cache
                            )
                        except ShardUnavailableError as refusal:
                            assert refusal.status == 503
                            continue
                        high = service.epoch.epoch_id
                        records.append(
                            (position, result.answer, meta["epoch"], low, high)
                        )
            except BaseException as error:  # surfaced by the main thread
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with fleet(graph) as service:
                threads = [
                    threading.Thread(
                        target=reader, args=(service, bool(i % 2)), daemon=True
                    )
                    for i in range(self.READERS)
                ]
                for thread in threads:
                    thread.start()
                try:
                    for swap in range(1, self.SWAPS + 1):
                        op = "remove" if swap % 2 else "add"
                        batch = [("v6", "next", "v7", op), ("v3", "likes", "p", op)]
                        for source, label, target, _op in batch:
                            (mirror.remove_edge if swap % 2 else mirror.add_edge)(
                                source, label, target
                            )
                        expected[swap] = self.truth(mirror)
                        assert service.apply_updates(batch)["epoch"] == swap
                        if swap % 4 == 0:
                            service.rebalance()
                finally:
                    stop.set()
                    for thread in threads:
                        thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert records
        for position, answer, stamped, low, high in records:
            assert low <= stamped <= high
            assert answer in {
                expected[epoch][position] for epoch in range(low, high + 1)
            }, (self.QUERIES[position], answer, stamped, low, high)

    def truth(self, graph):
        oracle = NaiveTwoProcedure(graph)
        return [
            oracle.decide(LSCRQuery.create(source, target, ["next"], S))
            for source, target in self.QUERIES
        ]
