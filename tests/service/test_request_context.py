"""The request context: what the far side of every hop observes.

One matrix — hops {batch pool member, scatter expand, co-located probe,
HTTP worker ``expand``, HTTP worker ``query``} ×
armings {neither, trace only, deadline only, both} — asserts the far
side sees exactly what the near side armed.  Around it: the activation
primitive's own contract (arm, restore, mask, cursor reset, threads),
the wire codec's validation, and the regression tests for the fast-path
drift the one context closes (the co-located probe under a deadline).
"""

from __future__ import annotations

import json
import math
import threading
from time import perf_counter, sleep

import pytest

from repro.context import RequestContext, activate, current_context, rearm
from repro.core.query import LSCRQuery
from repro.datasets.synthetic import random_labeled_graph
from repro.exceptions import BadRequestError, DeadlineExceededError
from repro.obs.trace import (
    _NOOP,
    Trace,
    current_span,
    current_trace,
    span,
)
from repro.resilience.deadline import Deadline, check_deadline, current_deadline
from repro.service.app import QueryService
from repro.session import LSCRSession
from repro.shard.worker import HttpShardWorker
from tests.helpers import sharded_fleet

LABELS = ["l0", "l1", "l2"]
CONSTRAINT = "SELECT ?x WHERE { ?x <l0> ?y . }"

ARMINGS = {
    "neither": (False, False),
    "trace": (True, False),
    "deadline": (False, True),
    "both": (True, True),
}


def expired_deadline(budget_ms: float = 5.0) -> Deadline:
    """A deadline whose budget ran out one second ago."""
    return Deadline(budget_ms, started=perf_counter() - 1.0)


def make_context(traced: bool, bounded: bool) -> RequestContext | None:
    if not (traced or bounded):
        return None
    return RequestContext(
        Trace("request") if traced else None,
        Deadline.after_ms(60_000) if bounded else None,
    )


def spy(monkeypatch, owner, name: str, seen: list) -> None:
    """Record what ``owner.name`` observes each time it is called."""
    original = getattr(owner, name)

    def observed(*args, **kwargs):
        seen.append(
            (current_trace(), current_deadline(), threading.get_ident())
        )
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, observed)


@pytest.fixture(scope="module")
def sharded():
    graph = random_labeled_graph(24, 2.0, 4, rng=3, name="context")
    with sharded_fleet(graph, seed=3, shards=2, max_workers=2) as service:
        yield service


@pytest.fixture(scope="module")
def remote(sharded):
    """Base URL of the server hosting ``sharded``'s workers."""
    return sharded.workers[0].base_url


def owned_by(sharded, shard: int) -> list[int]:
    return [
        vid
        for vid in range(sharded.graph.num_vertices)
        if sharded.shard_plan.shard_of[vid] == shard
    ]


def co_located_query(sharded, shard: int = 0) -> LSCRQuery:
    first, second = owned_by(sharded, shard)[:2]
    graph = sharded.graph
    return LSCRQuery.create(
        graph.name_of(first), graph.name_of(second), LABELS, CONSTRAINT
    )


# ----------------------------------------------------------------------
# the hops: each runs under the armed context and returns what the far
# side recorded
# ----------------------------------------------------------------------


def hop_batch_member(sharded, remote, monkeypatch) -> list:
    seen: list = []
    spy(monkeypatch, sharded, "_finish", seen)
    names = [sharded.graph.name_of(vid) for vid in range(4)]
    sharded.query_batch(
        [
            {"source": source, "target": target, "labels": LABELS,
             "constraint": CONSTRAINT}
            for source, target in zip(names, reversed(names))
        ],
        use_cache=False,
    )
    assert {ident for *_, ident in seen} != {threading.get_ident()}
    return seen


def hop_scatter_expand(sharded, remote, monkeypatch) -> list:
    seen: list = []
    for worker in sharded.workers:
        spy(monkeypatch, worker, "expand", seen)
    seeds = {owned_by(sharded, 0)[0], owned_by(sharded, 1)[0]}
    mask = (1 << sharded.graph.num_labels) - 1
    sharded.coordinator.closure(seeds, mask, sharded.epoch.topology)
    assert threading.get_ident() not in {ident for *_, ident in seen}
    return seen


def hop_co_located_probe(sharded, remote, monkeypatch) -> list:
    seen: list = []
    spy(monkeypatch, sharded.workers[0], "local_query", seen)
    sharded.coordinator.answer(co_located_query(sharded), sharded.epoch)
    return seen


def hop_http_expand(sharded, remote, monkeypatch) -> list:
    seen: list = []
    spy(monkeypatch, sharded.workers[0].served, "expand", seen)
    stub = HttpShardWorker(remote, 0)
    try:
        mask = (1 << sharded.graph.num_labels) - 1
        stub.expand(owned_by(sharded, 0)[:2], mask)
    finally:
        stub.close()
    return seen


def hop_http_query(sharded, remote, monkeypatch) -> list:
    seen: list = []
    spy(monkeypatch, sharded.workers[0].served, "local_query", seen)
    stub = HttpShardWorker(remote, 0)
    try:
        stub.local_query(co_located_query(sharded))
    finally:
        stub.close()
    return seen


#: hop → (driver, crosses a process boundary)
HOPS = {
    "batch-member": (hop_batch_member, False),
    "scatter-expand": (hop_scatter_expand, False),
    "co-located-probe": (hop_co_located_probe, False),
    "http-expand": (hop_http_expand, True),
    "http-query": (hop_http_query, True),
}


@pytest.mark.parametrize("arming", ARMINGS)
@pytest.mark.parametrize("hop", HOPS)
def test_far_side_observes_what_the_near_side_armed(
    hop, arming, sharded, remote, monkeypatch
):
    driver, over_the_wire = HOPS[hop]
    traced, bounded = ARMINGS[arming]
    context = make_context(traced, bounded)
    with activate(context):
        seen = driver(sharded, remote, monkeypatch)
        # The near side is as it was: nothing leaks back out of the hop.
        assert current_trace() is (context.trace if context else None)
        assert current_deadline() is (context.deadline if context else None)
        assert current_span() is None
    assert seen, "the hop never reached its far side"
    near = context if context is not None else RequestContext()
    for trace, deadline, _ in seen:
        if not over_the_wire:
            assert trace is near.trace
            assert deadline is near.deadline
            continue
        # Another process shares no objects: the trace continues under
        # the same id, the deadline restarts from the budget left.
        assert (trace is None) == (near.trace is None)
        if trace is not None:
            assert trace.trace_id == near.trace.trace_id
        assert (deadline is None) == (near.deadline is None)
        if deadline is not None:
            assert 0 < deadline.budget_ms <= near.deadline.budget_ms


# ----------------------------------------------------------------------
# the activation primitive
# ----------------------------------------------------------------------


class TestActivate:
    def test_nothing_armed_by_default(self):
        assert current_trace() is None
        assert current_deadline() is None
        assert current_context().to_wire() == {}
        check_deadline("anywhere")  # must not raise
        assert span("anything") is _NOOP

    def test_arms_and_restores(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        with activate(context) as armed:
            assert armed is context
            assert current_context() is context
            assert current_trace() is context.trace
            assert current_deadline() is context.deadline
        assert current_trace() is None
        assert current_deadline() is None

    def test_none_masks_the_outer_request(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        with activate(context):
            with span("outer"):
                with activate(None):
                    assert current_trace() is None
                    assert current_deadline() is None
                    assert current_span() is None
                    assert span("invisible") is _NOOP
                    check_deadline("inner")
                assert current_trace() is context.trace
                assert current_deadline() is context.deadline
        outer = context.trace.root.children[0]
        assert outer.children == []

    def test_expired_ambient_deadline_raises(self):
        with activate(RequestContext(deadline=expired_deadline())):
            with pytest.raises(DeadlineExceededError):
                check_deadline("ambient")

    def test_arming_resets_the_span_cursor(self):
        # A context armed inside an open span starts at the trace root,
        # never inside whatever span the arming code had open.
        context = RequestContext(Trace("request"))
        with activate(context):
            with span("outer"):
                with activate(context):
                    assert current_span() is None
                    with span("re-entered"):
                        pass
        names = [child.name for child in context.trace.root.children]
        assert names == ["outer", "re-entered"]

    def test_thread_does_not_inherit_but_can_adopt(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        observed: list[object] = []

        def worker() -> None:
            observed.append((current_trace(), current_deadline()))
            with activate(context):
                with span("adopted"):
                    pass
                observed.append((current_trace(), current_deadline()))

        with activate(context):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert observed == [
            (None, None), (context.trace, context.deadline)
        ]
        names = [child.name for child in context.trace.root.children]
        assert names == ["adopted"]

    def test_rearm_carries_the_open_span_across_threads(self):
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))

        def child() -> object:
            with span("child"):
                return current_deadline()

        with activate(context):
            with span("parent"):
                carried = rearm(child)
        result: list[object] = []
        thread = threading.Thread(target=lambda: result.append(carried()))
        thread.start()
        thread.join()
        assert result == [context.deadline]
        parent = context.trace.root.children[0]
        assert [node.name for node in parent.children] == ["child"]

    def test_rearm_with_nothing_armed_is_the_function_itself(self):
        def fn() -> None:
            return None

        assert rearm(fn) is fn


# ----------------------------------------------------------------------
# the wire codec
# ----------------------------------------------------------------------


class TestWireCodec:
    def test_round_trip(self):
        near = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        wire = near.to_wire()
        assert set(wire) == {"trace", "deadline_ms"}
        far = RequestContext.from_wire(json.loads(json.dumps(wire)), "hop")
        assert far.trace.trace_id == near.trace.trace_id
        assert far.trace.root.name == "hop"
        assert 0 < far.deadline.budget_ms <= 60_000

    def test_empty_context_ships_nothing(self):
        assert RequestContext().to_wire() == {}
        far = RequestContext.from_wire({"seeds": []}, "hop")
        assert far.trace is None and far.deadline is None

    @pytest.mark.parametrize(
        "body",
        [
            ["not", "an", "object"],
            {"trace": 7},
            {"trace": ["abc"]},
            {"deadline_ms": True},
            {"deadline_ms": "250"},
            {"deadline_ms": math.nan},
            {"deadline_ms": math.inf},
        ],
    )
    def test_malformed_keys_are_a_400(self, body):
        with pytest.raises(BadRequestError) as excinfo:
            RequestContext.from_wire(body, "hop")
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("budget_ms", [0, -1, -0.5])
    def test_spent_budget_is_an_immediate_504(self, budget_ms):
        with pytest.raises(DeadlineExceededError) as excinfo:
            RequestContext.from_wire({"deadline_ms": budget_ms}, "hop")
        assert excinfo.value.status == 504
        assert excinfo.value.detail["where"] == "hop"

    @pytest.mark.parametrize("endpoint", ["handle_expand", "handle_query"])
    def test_worker_endpoints_validate_before_any_work(
        self, endpoint, sharded, monkeypatch
    ):
        worker = sharded.workers[0].served
        seen: list = []
        spy(monkeypatch, worker, "expand", seen)
        spy(monkeypatch, worker, "local_query", seen)
        handler = getattr(worker, endpoint)
        query = co_located_query(sharded)
        body = {
            "seeds": owned_by(sharded, 0)[:1], "mask": 1,
            "source": str(query.source), "target": str(query.target),
            "labels": LABELS, "constraint": CONSTRAINT,
        }
        with pytest.raises(BadRequestError) as excinfo:
            handler({**body, "trace": 7})
        assert excinfo.value.status == 400
        with pytest.raises(BadRequestError) as excinfo:
            handler({**body, "deadline_ms": False})
        assert excinfo.value.status == 400
        with pytest.raises(DeadlineExceededError):
            handler({**body, "deadline_ms": -3})
        assert seen == []
        handler({**body, "trace": "abc123", "deadline_ms": 60_000})
        assert [trace.trace_id for trace, _, _ in seen] == ["abc123"]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"constraint": None}, "missing field"),
            ({"labels": []}, "'labels' must be"),
            ({"constraint": "SELECT garbage"}, "invalid query"),
        ],
    )
    def test_worker_query_body_is_checked_like_a_query_body(
        self, change, message, sharded, monkeypatch
    ):
        worker = sharded.workers[0].served
        seen: list = []
        spy(monkeypatch, worker, "local_query", seen)
        query = co_located_query(sharded)
        body = {
            "source": str(query.source), "target": str(query.target),
            "labels": LABELS, "constraint": CONSTRAINT, **change,
        }
        body = {key: value for key, value in body.items() if value is not None}
        with pytest.raises(BadRequestError, match=message) as excinfo:
            worker.handle_query(body)
        assert excinfo.value.status == 400
        assert seen == []


# ----------------------------------------------------------------------
# regression: the co-located probe under a deadline
# ----------------------------------------------------------------------


def _spans(node: dict, name: str) -> list[dict]:
    found = []
    for child in node.get("children", []):
        if child.get("name") == name:
            found.append(child)
        found.extend(_spans(child, name))
    return found


def _shape(node: dict) -> list:
    """A span subtree as nested names (timings and attributes dropped)."""
    return [node["name"], [_shape(child) for child in node["children"]]]


def slow_search(finished: threading.Event):
    """A slice search (patched over the worker kernel's
    ``LSCRSession.answer``) that only ever stops on its deadline (or, where
    none reaches it, after two seconds — so a regression fails instead
    of hanging)."""

    def search(*args, **kwargs):
        try:
            for _ in range(1000):
                check_deadline("slice-search")
                sleep(0.002)
            raise AssertionError("the search never saw a deadline")
        finally:
            finished.set()

    return search


class TestProbeUnderDeadline:
    def test_slice_search_stops_on_the_request_deadline(
        self, sharded, monkeypatch
    ):
        # The probe's search outlives the budget.  It must see the
        # request's deadline and stop itself with the structured 504 —
        # not run on after the coordinator stopped waiting for it.
        finished = threading.Event()
        monkeypatch.setattr(LSCRSession, "answer", slow_search(finished))
        coordinator = sharded.coordinator
        before = coordinator.stats()["resilience"]
        with activate(RequestContext(deadline=Deadline.after_ms(150))):
            with pytest.raises(DeadlineExceededError) as excinfo:
                coordinator.answer(co_located_query(sharded), sharded.epoch)
        assert excinfo.value.detail["where"] == "slice-search"
        assert finished.wait(timeout=1.0)
        after = coordinator.stats()["resilience"]
        assert after["deadline_exceeded"] == before["deadline_exceeded"] + 1
        # The worker stopped itself: responsive, not a breaker failure.
        assert after["fast_path_errors"] == before["fast_path_errors"]
        breaker = after["breakers"]["0"]
        assert breaker["state"] == "closed"
        assert breaker["consecutive_failures"] == 0

    def test_co_located_span_has_the_same_children_either_way(self, sharded):
        query = co_located_query(sharded)
        body = {
            "source": str(query.source), "target": str(query.target),
            "labels": LABELS, "constraint": CONSTRAINT, "use_cache": False,
        }
        bare = json.loads(sharded.handle_query(dict(body), trace=True))["trace"]
        bounded = Deadline.after_ms(60_000)
        with activate(RequestContext(deadline=bounded)):
            timed = json.loads(sharded.handle_query(dict(body), trace=True))["trace"]
        (probe,) = _spans(bare, "co-located")
        (timed_probe,) = _spans(timed, "co-located")
        assert probe["children"], "the probe's search left no spans"
        assert _shape(timed_probe) == _shape(probe)

    def test_remote_probe_ships_budget_and_trace_id(
        self, sharded, remote, monkeypatch
    ):
        bodies: list = []
        worker = sharded.workers[0].served
        original = worker.handle_query

        def recording(payload):
            bodies.append(payload)
            return original(payload)

        monkeypatch.setattr(worker, "handle_query", recording)
        context = RequestContext(Trace("request"), Deadline.after_ms(60_000))
        stub = HttpShardWorker(remote, 0)
        try:
            with activate(context):
                stub.local_query(co_located_query(sharded))
        finally:
            stub.close()
        (body,) = bodies
        assert body["trace"] == context.trace.trace_id
        assert 0 < body["deadline_ms"] <= 60_000

    def test_remote_worker_stops_itself_with_a_504_decoded_as_one(
        self, sharded, remote, monkeypatch
    ):
        finished = threading.Event()
        monkeypatch.setattr(LSCRSession, "answer", slow_search(finished))
        stub = HttpShardWorker(remote, 0)
        try:
            started = perf_counter()
            with activate(RequestContext(deadline=Deadline.after_ms(150))):
                with pytest.raises(DeadlineExceededError) as excinfo:
                    stub.local_query(co_located_query(sharded))
            # The worker's own 504, not the 30 s socket timeout and not
            # a RemoteShardError the breaker would count as a failure:
            # it names the step the worker stopped in, and the worker.
            assert excinfo.value.detail["where"] == "slice-search"
            assert excinfo.value.detail["partial"] == {"shard": 0, "remote": remote}
            assert perf_counter() - started < 1.5
            assert finished.is_set()
            # A budget already spent is refused before any search.
            finished.clear()
            with activate(RequestContext(deadline=expired_deadline())):
                with pytest.raises(DeadlineExceededError):
                    stub.local_query(co_located_query(sharded))
            assert not finished.is_set()
        finally:
            stub.close()


class TestBatchUnderContext:
    def test_members_hang_their_query_span_under_the_batch_root(self):
        graph = random_labeled_graph(16, 2.0, 3, rng=1, name="batch")
        service = QueryService(graph, seed=1)
        try:
            names = [graph.name_of(vid) for vid in range(4)]
            payload = {
                "queries": [
                    {"source": source, "target": target,
                     "labels": ["l0", "l1"], "constraint": CONSTRAINT}
                    for source, target in zip(names, reversed(names))
                ]
            }
            with activate(RequestContext(deadline=Deadline.after_ms(60_000))):
                tree = json.loads(service.handle_batch(payload, trace=True))["trace"]
        finally:
            service.close()
        assert tree["name"] == "batch"
        members = [c for c in tree["children"] if c["name"] == "query"]
        assert sorted(m["attrs"]["index"] for m in members) == [0, 1, 2, 3]
